"""Pass/fail records with margins, serializable to JSON and CSV."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field


@dataclass
class Check:
    """One verified inequality: pass iff margin >= -tolerance."""

    name: str
    location: float
    margin: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "location": self.location,
            "margin": self.margin,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)
    tolerance_model: str = ""

    def add(self, name: str, location: float, margin: float, tolerance: float) -> Check:
        check = Check(name, float(location), float(margin),
                      bool(margin >= -tolerance or math.isinf(margin)))
        self.checks.append(check)
        return check

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def as_dict(self) -> dict:
        return {
            "checks": [c.as_dict() for c in self.checks],
            "tolerance_model": self.tolerance_model,
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2)
            fh.write("\n")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "location", "margin", "pass"])
            for c in self.checks:
                writer.writerow([c.name, "%.17g" % c.location, "%.17g" % c.margin,
                                 str(c.passed).lower()])
