"""Check verdicts with margins and tolerances, written as JSON and CSV."""

from __future__ import annotations

import csv
import io
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
        """Write the checks as JSON, laid out as ``json.dump`` with
        ``indent=2`` lays them out.  JSON has no infinities or NaN, so a
        value that is not finite (a vacuous check's +inf margin) is written
        as null; the row's pass flag still tells the verdict.  The text is
        built from a row template and written at once."""
        rows = ",\n".join(_JSON_ROW % (
            json.dumps(c.name), _json_number(c.location),
            _json_number(c.margin), _json_number(c.tolerance),
            _bool_text(c.passed), _bool_text(c.binding)) for c in self.checks)
        text = ('{\n  "checks": [\n' + rows + "\n  ]\n}\n" if rows
                else '{\n  "checks": []\n}\n')
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def to_csv(self, path) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "location", "margin", "tolerance", "pass",
                         "binding"])
        writer.writerows([c.name, "%.17g" % c.location, "%.17g" % c.margin,
                          "%.17g" % c.tolerance, _bool_text(c.passed),
                          _bool_text(c.binding)] for c in self.checks)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(buf.getvalue())


# one check of report.json, at the depth and in the key order of
# ``json.dump(..., indent=2)`` of ``Check.as_dict``
_JSON_ROW = ('    {\n      "name": %s,\n      "location": %s,\n'
             '      "margin": %s,\n      "tolerance": %s,\n'
             '      "pass": %s,\n      "binding": %s\n    }')


def _json_number(value: float) -> str:
    """``json.dumps`` of a finite float, null for any other."""
    return float.__repr__(value) if math.isfinite(value) else "null"


def _bool_text(value: bool) -> str:
    """A flag as JSON and the CSV write it: true or false."""
    return "true" if value else "false"
