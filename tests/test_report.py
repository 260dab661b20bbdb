import csv
import json
import math

import pytest

from radelliptic.report import VerificationReport


class TestVerdictRecord:
    @pytest.mark.parametrize("margin, passed", [
        (-math.inf, False), (math.inf, True), (math.nan, False),
        (-0.5, True), (-0.5000001, False), (0.0, True)])
    def test_pass_is_margin_at_least_minus_tolerance(self, margin, passed):
        check = VerificationReport().add("row", 0.0, margin, 0.5)
        assert check.passed is passed

    def test_files_hold_tolerance_and_binding(self, tmp_path):
        report = VerificationReport()
        report.add("tight", 0.25, -0.125, 0.0625, binding=False)
        report.add("vacuous", 1.0, math.inf, 0.5)
        report.to_json(tmp_path / "report.json")
        report.to_csv(tmp_path / "report.csv")
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc == {"checks": [
            {"name": "tight", "location": 0.25, "margin": -0.125,
             "tolerance": 0.0625, "pass": False, "binding": False},
            {"name": "vacuous", "location": 1.0, "margin": None,
             "tolerance": 0.5, "pass": True, "binding": True}]}
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["name", "location", "margin", "tolerance", "pass", "binding"],
            ["tight", "0.25", "-0.125", "0.0625", "false", "false"],
            ["vacuous", "1", "inf", "0.5", "true", "true"]]

    # JSON has no Infinity or NaN: a margin that is not finite is written as
    # null and the pass flag keeps the verdict, while as_dict (which the
    # report digests hash) keeps the float
    def test_json_holds_no_non_finite_number(self, tmp_path):
        report = VerificationReport()
        for margin in (math.inf, -math.inf, math.nan, 1.5):
            report.add("row", 0.5, margin, 0.25)
        report.to_json(tmp_path / "report.json")
        doc = json.loads((tmp_path / "report.json").read_text(),
                         parse_constant=pytest.fail)
        assert [(c["margin"], c["pass"]) for c in doc["checks"]] == [
            (None, True), (None, False), (None, False), (1.5, True)]
        assert report.as_dict()["checks"][0]["margin"] == math.inf
