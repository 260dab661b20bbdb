import csv
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


# Byte identity of the one-string writers with the serialisers they
# replaced: json.dump with indent=2 for report.json, csv.writer for
# report.csv, on margins, locations and tolerances at the edges of the
# float range and on names that JSON or CSV must escape or quote.
EDGE_FLOATS = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0,
                               5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                               1e308, -1e308])
FLOATS = st.one_of(EDGE_FLOATS, st.floats())
NAMES = st.text(st.one_of(st.sampled_from('"\\,\n\r é∞\U0001f600'),
                          st.characters()), max_size=12)
REPORTS = st.lists(st.tuples(NAMES, FLOATS, FLOATS, FLOATS, st.booleans()),
                   max_size=6)


def _report(rows):
    report = VerificationReport()
    for name, location, margin, tolerance, binding in rows:
        report.add(name, location, margin, tolerance, binding)
    return report


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=REPORTS)
def test_json_writer_matches_json_dump(tmp_path, rows):
    report = _report(rows)
    report.to_json(tmp_path / "report.json")
    mapping = {"checks": [
        {key: None if isinstance(value, float) and not math.isfinite(value)
         else value for key, value in c.as_dict().items()}
        for c in report.checks]}
    expected = json.dumps(mapping, indent=2, allow_nan=False) + "\n"
    assert (tmp_path / "report.json").read_bytes() == expected.encode("utf-8")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=REPORTS)
def test_csv_writer_matches_csv_writer(tmp_path, rows):
    report = _report(rows)
    report.to_csv(tmp_path / "report.csv")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "location", "margin", "tolerance", "pass",
                     "binding"])
    for c in report.checks:
        writer.writerow([c.name, "%.17g" % c.location, "%.17g" % c.margin,
                         "%.17g" % c.tolerance, str(c.passed).lower(),
                         str(c.binding).lower()])
    expected = buf.getvalue().encode("utf-8")
    assert (tmp_path / "report.csv").read_bytes() == expected


def test_empty_report_files(tmp_path):
    report = VerificationReport()
    report.to_json(tmp_path / "report.json")
    report.to_csv(tmp_path / "report.csv")
    assert (tmp_path / "report.json").read_text() == (
        json.dumps({"checks": []}, indent=2) + "\n")
    assert (tmp_path / "report.csv").read_text() == (
        "name,location,margin,tolerance,pass,binding\n")
