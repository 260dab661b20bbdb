"""Check verdicts with margins and tolerances, written as JSON and CSV."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field


@dataclass
class Check:
    """One verified inequality: it passes iff margin >= -tolerance.

    A check that is not ``binding`` is advisory: it is reported, but its
    failure does not fail the verification.
    """

    name: str
    location: float
    margin: float
    tolerance: float
    binding: bool

    @property
    def passed(self) -> bool:
        return bool(self.margin >= -self.tolerance)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "location": self.location,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "binding": self.binding,
        }


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, location: float, margin: float, tolerance: float,
            binding: bool = True) -> Check:
        check = Check(name, float(location), float(margin), float(tolerance),
                      binding)
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
        return {"checks": [c.as_dict() for c in self.checks]}

    def to_json(self, path) -> None:
        """Write the checks as JSON.  JSON has no infinities or NaN, so a
        margin that is not finite (a vacuous check's +inf) is written as
        null; the row's pass flag still tells the verdict."""
        checks = [{key: None if isinstance(value, float)
                   and not math.isfinite(value) else value
                   for key, value in c.as_dict().items()}
                  for c in self.checks]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"checks": checks}, fh, indent=2, allow_nan=False)
            fh.write("\n")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "location", "margin", "tolerance", "pass",
                             "binding"])
            for c in self.checks:
                writer.writerow([c.name, "%.17g" % c.location, "%.17g" % c.margin,
                                 "%.17g" % c.tolerance, str(c.passed).lower(),
                                 str(c.binding).lower()])
