import builtins
import collections
import csv
import dataclasses
import filecmp
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from radelliptic import analysis, cli, eigen, grid
from radelliptic.cli import main
from radelliptic.grid import DiscreteRadialFunction
from radelliptic.solver import EXPRESSION_CATALOGUE, SourceFunction

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIG_DIR = os.path.join(ROOT, "configs")


def _declared_command(name):
    with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
        return json.load(fh).get("command")


VERIFY_CONFIGS = sorted(name for name in os.listdir(CONFIG_DIR)
                        if _declared_command(name) == "verify")

BASE_PROBLEM = {
    "operator": {"variant": "PucciPlus", "alpha": 1.0, "a": 1.0, "A": 2.0,
                 "dim": 2},
    "domain": {"kind": "Ball", "R": 1.0, "bc_outer": 1.0},
    "grid": {"n": 120, "grading": "GradedAtOrigin"},
    "f": {"kind": "constant", "value": 6.75},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(cmd, cfg, out):
    return main([cmd, "--config", cfg, "--out", str(out)])


def test_import_loads_no_scipy():
    # numpy is the one run-time dependency: importing scipy.linalg alone
    # took most of a CLI run's start-up
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, radelliptic.cli; print(sorted("
         "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_verify_loads_no_numpy_ma(tmp_path):
    # np.unique and np.median import numpy.ma, which raised a verify
    # process's peak memory by about 1 MiB; the checks use neither
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = ("import os, sys\n"
            "from radelliptic.cli import main\n"
            "for cfg in sys.argv[2:]:\n"
            "    out = os.path.join(sys.argv[1], os.path.basename(cfg))\n"
            "    assert main(['verify', '--config', cfg, '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.ma'\n"
            "             or m.startswith('numpy.ma.')))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)]
        + [os.path.join(CONFIG_DIR, name) for name in VERIFY_CONFIGS],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_parser_is_built_at_first_call_and_reused():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import radelliptic.cli as cli; "
         "print(cli._parser.cache_info().currsize)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "0"
    assert cli._parser() is cli._parser()


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every line of the README's command block, as written, from a
    # directory holding the shipped configs
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    assert [shlex.split(line)[1] for line in lines] == [
        "solve", "verify", "eigen", "study"]
    shutil.copytree(CONFIG_DIR, tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "radelliptic"
        assert main(argv) == 0, line


class TestSolve:
    def test_writes_solution_and_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path, BASE_PROBLEM)
        out = tmp_path / "out"
        assert run("solve", cfg, out) == 0
        rows = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
        assert rows.shape[1] == 2
        assert rows[-1, 1] == pytest.approx(1.0, abs=1e-13)
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["converged"] is True
        assert diag["residual_sup"] <= 1e-8

    def test_deterministic_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE_PROBLEM)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("solve", cfg, out1) == 0
        assert run("solve", cfg, out2) == 0
        assert filecmp.cmp(out1 / "solution.csv", out2 / "solution.csv",
                           shallow=False)

    def test_missing_config(self, tmp_path, capsys):
        assert run("solve", str(tmp_path / "nope.json"), tmp_path) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("solve", str(path), tmp_path) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_small_grid_rejected(self, tmp_path, capsys):
        doc = dict(BASE_PROBLEM, grid={"n": 8})
        cfg = write_config(tmp_path, doc)
        assert run("solve", cfg, tmp_path) == 1
        assert "n must be >= 16" in capsys.readouterr().err

    def test_command_mismatch(self, tmp_path, capsys):
        doc = dict(BASE_PROBLEM, command="verify")
        cfg = write_config(tmp_path, doc)
        assert run("solve", cfg, tmp_path) == 1
        assert "declares command" in capsys.readouterr().err

    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_PROBLEM)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run("solve", cfg, taken) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cannot write output: ")
        assert taken.read_text() == ""

    @pytest.mark.parametrize("command", ["solve", "verify", "study"])
    def test_forcing_not_finite_at_a_node_fails_before_solving(
            self, tmp_path, capsys, recwarn, command):
        # power with a negative exponent is infinite at the ball's origin
        f = {"kind": "expression", "name": "power",
             "params": {"exponent": -1.0}}
        cfg = write_config(tmp_path, dict(BASE_PROBLEM, f=f))
        out = tmp_path / "out"
        assert run(command, cfg, out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: the forcing is not finite at r = 0"]
        assert not [w for w in recwarn if issubclass(w.category,
                                                     RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "study"])
    def test_overflowing_profile_exits_two(self, tmp_path, capsys, recwarn,
                                           command):
        # AlphaLaplacian alpha = -0.9: u' = phi^10 overflows to inf
        doc = dict(BASE_PROBLEM, operator={"variant": "AlphaLaplacian",
                                           "alpha": -0.9, "dim": 2},
                   f={"kind": "constant", "value": 1e40})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run(command, cfg, out) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: solver diverged: the profile overflows"]
        assert not [w for w in recwarn if issubclass(w.category,
                                                     RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("alpha, bc_outer", [
        (200.0, 20.0), (40.0, 1e8), (1.0, 1.4e154)])
    def test_first_flux_past_the_float_range_exits_two(
            self, tmp_path, capsys, recwarn, alpha, bc_outer):
        # the shooting's first flux |d|^(1+alpha), d the boundary jump over
        # the annulus' width, lies past the float range
        doc = {"operator": {"variant": "AlphaLaplacian", "alpha": alpha,
                            "dim": 2},
               "domain": {"kind": "Annulus", "R1": 0.5, "R": 1.0,
                          "bc_inner": 0.0, "bc_outer": bc_outer},
               "grid": {"n": 100}, "f": {"kind": "constant", "value": 1.0}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("solve", cfg, out) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: solver diverged: boundary mismatch inf at "
                       "first flux inf"]
        assert not [w for w in recwarn if issubclass(w.category,
                                                     RuntimeWarning)]
        assert not out.exists()


class TestVerify:
    def test_passing_problem(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE_PROBLEM, seed=3))
        out = tmp_path / "out"
        assert run("verify", cfg, out) == 0
        report = json.loads((out / "report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert {"eqA", "eqB[loose]", "eqB[tight]",
                "viscosity[supersolution]", "viscosity[subsolution]",
                "c1-spread", "right-bound", "machin[display]",
                "machin[proof]", "holder-fit"} <= names
        # no comparison row: the ``solver`` docstring proves the principle
        assert not any(name.startswith("comparison") for name in names)
        assert all(c["pass"] for c in report["checks"] if c["binding"])
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "location", "margin", "tolerance", "pass",
                           "binding"]
        assert len(rows) == len(report["checks"]) + 1

    def test_decreasing_solution_hits_mirrored_checks(self, tmp_path):
        doc = dict(BASE_PROBLEM,
                   operator={"variant": "PucciMinus", "alpha": 1.0, "a": 1.0,
                             "A": 2.0, "dim": 2},
                   f={"kind": "constant", "value": -6.75})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = run("verify", cfg, out)
        report = json.loads((out / "report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert {"eqC", "eqD[loose]"} <= names
        assert code == 0

    def test_exit_three_on_binding_failure(self, tmp_path):
        # with f = 12r the solution of the alpha = 1 problem is the smooth
        # profile r^2, so the fitted vanishing exponent of u' is 1, far from
        # the degenerate target 1/(1+alpha) = 0.5; the binding exponent-fit
        # check fails and verify must exit 3 while still writing the report
        doc = {
            "operator": {"variant": "AlphaLaplacian", "alpha": 1.0, "dim": 2},
            "domain": {"kind": "Ball", "R": 1.0, "bc_outer": 1.0},
            "grid": {"n": 200, "grading": "GradedAtOrigin"},
            "f": {"kind": "expression", "name": "power",
                  "params": {"coef": 12.0, "exponent": 1.0}},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("verify", cfg, out) == 3
        report = json.loads((out / "report.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert "holder-fit" in failed

    # a failed row gates the exit status iff the check that made it marked
    # it binding
    @pytest.mark.parametrize("name, code", [
        ("machin[display]", 0), ("machin[proof]", 0), ("right-bound", 3)])
    def test_exit_status_follows_binding(self, tmp_path, monkeypatch, name,
                                         code):
        real = analysis.c1_bound_check

        def failing(*args):
            report = real(*args)
            report.checks = [dataclasses.replace(c, margin=-2 * c.tolerance)
                             if c.name == name else c for c in report.checks]
            return report

        monkeypatch.setattr(analysis, "c1_bound_check", failing)
        cfg = write_config(tmp_path, BASE_PROBLEM)
        out = tmp_path / "out"
        assert run("verify", cfg, out) == code
        report = json.loads((out / "report.json").read_text())
        assert [(c["name"], c["binding"]) for c in report["checks"]
                if not c["pass"]] == [(name, code == 3)]

    @pytest.mark.parametrize("name", VERIFY_CONFIGS)
    def test_shipped_rows_record_their_verdict(self, tmp_path, name):
        out = tmp_path / "out"
        code = run("verify", os.path.join(CONFIG_DIR, name), out)
        rows = json.loads((out / "report.json").read_text(),
                          parse_constant=pytest.fail)["checks"]
        assert code == 0
        for row in rows:
            # a null margin is not finite: on these configs, a vacuous +inf
            margin = math.inf if row["margin"] is None else row["margin"]
            assert row["pass"] == (margin >= -row["tolerance"])
            advisory = ("[tight]" in row["name"]
                        or row["name"].startswith("machin["))
            assert row["binding"] is not advisory, row
        with open(out / "report.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert [(r["name"], r["pass"], r["binding"]) for r in table] == [
            (r["name"], str(r["pass"]).lower(), str(r["binding"]).lower())
            for r in rows]

    # at alpha = 40 the hypothesis check used to overflow to a nan margin;
    # at alpha = -0.5 the C^1 diagnostics used a tolerance scale below h,
    # and on u = 1 (f = 0) the flux check evaluated 0^alpha = inf
    @pytest.mark.parametrize("alpha, value",
                             [(40.0, 1.0), (-0.5, 3.0), (-0.5, 0.0)])
    def test_extreme_alpha_passes(self, tmp_path, recwarn, alpha, value):
        doc = dict(BASE_PROBLEM, seed=0,
                   operator=dict(BASE_PROBLEM["operator"], alpha=alpha),
                   grid={"n": 200, "grading": "GradedAtOrigin"},
                   f={"kind": "constant", "value": value})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("verify", cfg, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(c["pass"] for c in report["checks"]), report
        assert not [w for w in recwarn if issubclass(w.category,
                                                     RuntimeWarning)]


    # verify takes no options: a verify_opts section, whatever it holds, is
    # an unknown key
    @pytest.mark.parametrize("opts", [
        {"slopes": "many"}, {"slopes": 2}, {"slopes": 17.5},
        {"curvatures": 1}, {"curvatures": None}, {"threshold": -1},
        {"threshold": 0}, {"threshold": "0.1"}, {"threshold": float("nan")},
        {"decades": 0.5}, {"decades": True}, {"slopes": 10 ** 400},
        {"threshold": 10 ** 400}, "fast"])
    def test_bad_verify_opts_fail_before_solving(self, tmp_path, capsys,
                                                 monkeypatch, opts):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the options were checked")

        monkeypatch.setattr(cli, "solve_dirichlet", no_solve)
        cfg = write_config(tmp_path, dict(BASE_PROBLEM, verify_opts=opts))
        out = tmp_path / "out"
        assert run("verify", cfg, out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: bad config: unknown key verify_opts"]
        assert not out.exists()

    # every command checks the seed, though none reads it
    @pytest.mark.parametrize("seed", ["abc", -1, 2.5, 10 ** 400])
    def test_bad_seed_fails_before_solving(self, tmp_path, capsys,
                                           monkeypatch, seed):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the seed was checked")

        monkeypatch.setattr(cli, "solve_dirichlet", no_solve)
        monkeypatch.setattr(cli, "principal_eigenvalue", no_solve)
        cfg = write_config(tmp_path, dict(BASE_PROBLEM, seed=seed))
        out = tmp_path / "out"
        for command in cli._COMMANDS:
            assert run(command, cfg, out) == 1, command
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "seed" in err[0].lower(), command
            assert not out.exists()

    # verify draws nothing at random: the seed changes no byte
    def test_verify_draws_nothing_random(self, tmp_path, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("verify drew at random")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        with open(os.path.join(CONFIG_DIR, "pucci_power_ball.json")) as fh:
            doc = json.load(fh)
        outs = []
        for seed in (0, 7):
            cfg = write_config(tmp_path, dict(doc, seed=seed),
                               f"seed{seed}.json")
            outs.append(tmp_path / f"out{seed}")
            assert run("verify", cfg, outs[-1]) == 0
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == sorted(path.name for path in outs[1].iterdir())
        _, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names,
                                               shallow=False)
        assert (mismatch, errors) == ([], [])

    def test_integer_past_digit_limit_is_config_error(self, tmp_path,
                                                      capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1' + "0" * 5000 + "}")
        assert run("verify", str(cfg), tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config is not")

    # AlphaLaplacian alpha = 0, dim 1, zero data, f = 2 on [0.25, 1.25]:
    # u = (r - 0.25)(r - 1.25) is exact to roundoff, and the first quotient
    # at r = 0.75 is exactly 0.  That zero is one candidate, not a flip
    # into 0 and another out of it.
    def test_exact_zero_quotient_is_one_candidate(self, tmp_path):
        doc = {"operator": {"variant": "AlphaLaplacian", "alpha": 0.0,
                            "dim": 1},
               "domain": {"kind": "Annulus", "R1": 0.25, "R": 1.25},
               "grid": {"n": 100, "grading": "Uniform"},
               "f": {"kind": "constant", "value": 2.0}}
        out = tmp_path / "out"
        assert run("verify", write_config(tmp_path, doc), out) == 0
        rows = json.loads((out / "report.json").read_text())["checks"]
        assert [c["location"] for c in rows
                if c["name"] == "holder-fit"] == [0.75]
        assert [c["name"] for c in rows].count("right-bound") == 1

    # sha256 of the four files verify writes at the shipped n: how the
    # checks share their work and how the files are written must not move
    # a byte of them (the reports hold no (H1)/(H2) rows, which hold by
    # construction, and no comparison row, which the scheme proves)
    SHIPPED_SHA256 = {
        "pucci_power_ball": {
            "diagnostics.json": "feffeaac85f41ae6018f639308d70585"
                                "e5b3180b652047ce0d642d35dd9b9a87",
            "report.csv": "99315f464ab04dd805551b6c430e21ed"
                          "2aceaab6dd01451afada4f2e11f0cb45",
            "report.json": "da07ff287151712d5a1e9c4558069eb2"
                           "18ec6a641ad8a097242458fa63c8aa03",
            "solution.csv": "1e894cd82e6c062571affd08cd746fdf"
                            "aa5efbb71feb81ca508c5fa98c183869"},
        "alpha_laplacian_annulus": {
            "diagnostics.json": "2a36323b594556e687fb9f989a140c7a"
                                "f68fc41c5b9e49cea0395fb23ea58b99",
            "report.csv": "3d100dfc26347812c116fde1f3d01779"
                          "b1a2985262f3fa1e20b0442e0e207f20",
            "report.json": "cde5aa44e955ee7449f62fd6e56a3a04"
                           "6cc83d2080f1e7b841dc58c28481b5be",
            "solution.csv": "495095cf3b0d9dd8c5dff34dc0a17b83"
                            "c8ea0ad052c43bed0ce644d11c34d411"}}

    @pytest.mark.parametrize("name", sorted(SHIPPED_SHA256))
    def test_shipped_files_are_byte_identical(self, tmp_path, name):
        out = tmp_path / "out"
        assert run("verify", os.path.join(CONFIG_DIR, name + ".json"),
                   out) == 0
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out.iterdir()} == self.SHIPPED_SHA256[name]

    # a request derives the quotients of each profile once, whichever
    # checks read them, and reads the forcing at the nodes once
    @pytest.mark.parametrize("name", ["pucci_power_ball.json",
                                      "alpha_laplacian_annulus.json"])
    def test_request_derives_each_quantity_once(self, tmp_path, monkeypatch,
                                                name):
        built = collections.Counter()
        quotients = grid._quotients

        def counted(u):
            built[id(u)] += 1
            return quotients(u)

        evaluated = []
        call = SourceFunction.__call__

        def forcing(f, r):
            evaluated.append(np.shape(r))
            return call(f, r)

        monkeypatch.setattr(grid, "_quotients", counted)
        monkeypatch.setattr(SourceFunction, "__call__", forcing)
        out = tmp_path / "out"
        assert run("verify", os.path.join(CONFIG_DIR, name), out) == 0
        assert list(built.values()) == [1]
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            n = json.load(fh)["grid"]["n"]
        assert evaluated == [(n + 1,)]

    # a request makes its output directory once, before its first write,
    # whether or not the directory is there already
    def test_request_makes_its_directory_once(self, tmp_path, monkeypatch):
        made = []
        makedirs = os.makedirs

        def counted(path, **kwargs):
            made.append(path)
            return makedirs(path, **kwargs)

        monkeypatch.setattr(cli.os, "makedirs", counted)
        out = tmp_path / "out"
        cfg = os.path.join(CONFIG_DIR, "pucci_power_ball.json")
        assert run("verify", cfg, out) == 0
        assert made == [str(out)]
        assert run("verify", cfg, out) == 0
        assert made == [str(out)] * 2


# the _write_json files are json.dumps(payload, indent=2, sort_keys=True)
# and a newline, for the payloads of diagnostics.json, eigen.json and
# study.json, over floats at the edges of the float range
JSON_FLOATS = st.one_of(st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308,
     -1e308]), st.floats())
PAYLOADS = st.one_of(
    st.fixed_dictionaries({"residual_sup": JSON_FLOATS,
                           "scans": st.integers(0, 10 ** 6),
                           "shooting_steps": st.integers(0, 100),
                           "converged": st.just(True)}),
    st.fixed_dictionaries({"lambda": JSON_FLOATS,
                           "sign": st.sampled_from(["Plus", "Minus"]),
                           "iterations": st.integers(1, 80),
                           "residual_sup": JSON_FLOATS}),
    st.integers(16, 10 ** 5).flatmap(lambda n: st.fixed_dictionaries({
        "n": st.just(n),
        "errors": st.fixed_dictionaries({str(n): JSON_FLOATS,
                                         str(2 * n): JSON_FLOATS}),
        "rate": st.one_of(st.none(), JSON_FLOATS)})))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=PAYLOADS)
def test_write_json_matches_json_dump(tmp_path, payload):
    path = tmp_path / "out.json"
    cli._write_json(str(path), payload)
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


# every output file is opened in binary, so its bytes are the text each
# writer builds, with \n line ends, on every platform
@pytest.mark.parametrize("command, name", [
    ("solve", "pucci_power_ball"), ("verify", "alpha_laplacian_annulus"),
    ("eigen", "eigen_disk"), ("study", "laplacian_ball")])
def test_every_output_file_is_written_in_binary(tmp_path, monkeypatch,
                                                command, name):
    with open(os.path.join(CONFIG_DIR, name + ".json")) as fh:
        doc = json.load(fh)
    doc.pop("command")
    cfg = write_config(tmp_path, doc)
    opened = []
    real_open = builtins.open

    def recording(file, mode="r", *args, **kwargs):
        opened.append((os.fspath(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording)
    out = tmp_path / "out"
    assert run(command, cfg, out) == 0
    monkeypatch.undo()
    written = sorted(str(path) for path in out.iterdir())
    assert len(written) == (4 if command == "verify" else 2)
    assert sorted(path for path, _ in opened if path != cfg) == written
    assert {mode for path, mode in opened if path != cfg} == {"wb"}


class TestEigen:
    def test_disk_laplacian(self, tmp_path):
        doc = {
            "operator": {"variant": "PucciPlus", "alpha": 0.0, "a": 1.0,
                         "A": 1.0, "dim": 2},
            "domain": {"kind": "Ball", "R": 1.0},
            "grid": {"n": 400},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("eigen", cfg, out) == 0
        payload = json.loads((out / "eigen.json").read_text())
        assert payload["lambda"] == pytest.approx(5.7831859, rel=0.01)
        assert payload["sign"] == "Plus"
        phi = np.loadtxt(out / "eigenfunction.csv", delimiter=",", skiprows=1)
        assert np.all(phi[:-1, 1] > 0)

    # sha256 of the two files eigen writes: how an outer step calls its
    # solve and reads its profile must not move a byte of them.  The
    # second problem is of perfbench's eigen family and takes 19 steps.
    EIGEN_PROBLEMS = {
        "eigen_disk": os.path.join(CONFIG_DIR, "eigen_disk.json"),
        "pucci_plus_alpha1_minus_n400": {
            "operator": {"variant": "PucciPlus", "alpha": 1.0, "a": 1.0,
                         "A": 2.0, "dim": 2},
            "domain": {"kind": "Ball", "R": 1.0},
            "grid": {"n": 400, "grading": "GradedAtOrigin"},
            "eigen": {"sign": "Minus", "tol": 1e-8}}}
    EIGEN_SHA256 = {
        "eigen_disk": {
            "eigen.json": "985c36897d8be4c0fbae51ebedce60c2"
                          "906bbff3b095bf181f271bb3d438e5cb",
            "eigenfunction.csv": "5c90fe38e4ef125be88f62bc0728a9d3"
                                 "1c8da81864843d5f3c1cfef4d2865629"},
        "pucci_plus_alpha1_minus_n400": {
            "eigen.json": "b0710df9251d4a749ff70c46e2035599"
                          "4bc96fb61c9dfdf523074ad036c84496",
            "eigenfunction.csv": "6fdf39c301bd56d8ae0f622f70580581"
                                 "4db6814989af5bc19d69e578561ca98f"}}

    @pytest.mark.parametrize("name", sorted(EIGEN_SHA256))
    def test_eigen_files_are_byte_identical(self, tmp_path, name):
        cfg = self.EIGEN_PROBLEMS[name]
        if isinstance(cfg, dict):
            cfg = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run("eigen", cfg, out) == 0
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out.iterdir()} == self.EIGEN_SHA256[name]
        if name != "eigen_disk":
            assert json.loads((out / "eigen.json").read_text())[
                "iterations"] == 19

    def test_nonzero_boundary_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_PROBLEM)
        assert run("eigen", cfg, tmp_path) == 1
        assert "zero Dirichlet" in capsys.readouterr().err


    @pytest.mark.parametrize("opts", [
        {"sign": "plus"}, {"sign": 1}, {"tol": "tight"}, {"tol": 0},
        {"tol": -1e-8}, {"tol": float("nan")}, {"tol": True},
        {"tol": 10 ** 400}, ["Plus"], {"sign": None}])
    def test_bad_eigen_options_fail_before_solving(self, tmp_path, capsys,
                                                   monkeypatch, opts):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the options were checked")

        monkeypatch.setattr(eigen, "solve_dirichlet", no_solve)
        doc = {"operator": BASE_PROBLEM["operator"],
               "domain": {"kind": "Ball", "R": 1.0},
               "grid": {"n": 64}, "eigen": opts}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("eigen", cfg, out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad config: eigen")
        assert not out.exists()

    def test_iteration_limit_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(eigen, "MAX_OUTER", 2)
        with open(os.path.join(CONFIG_DIR, "eigen_disk.json")) as fh:
            doc = json.load(fh)
        cfg = write_config(tmp_path, doc)
        assert run("eigen", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: eigenvalue iteration did not settle in 2 steps"]
        assert not (tmp_path / "out").exists()

    # lambda scales like R^-(2+alpha): none of these eigenvalues is a
    # double, and the first step's 1 / norm^(1+alpha) is 0 or inf
    @pytest.mark.parametrize("alpha, R", [
        (40.0, 1e-8), (10.0, 1e-30), (40.0, 1e8), (0.0, 1e-160)])
    def test_eigenvalue_past_the_float_range_exits_two(
            self, tmp_path, capsys, recwarn, alpha, R):
        doc = {"operator": dict(BASE_PROBLEM["operator"], alpha=alpha),
               "domain": {"kind": "Ball", "R": R}, "grid": {"n": 100}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("eigen", cfg, out) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: solver diverged: eigenvalue outside the "
                       "float range at step 1"]
        assert not [w for w in recwarn if issubclass(w.category,
                                                     RuntimeWarning)]
        assert not out.exists()

    def test_lost_positivity_exits_two(self, tmp_path, capsys, monkeypatch):
        solve = eigen.solve_dirichlet

        def sign_changing(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sol.u = DiscreteRadialFunction(sol.u.grid, -sol.u.values)
            return sol

        monkeypatch.setattr(eigen, "solve_dirichlet", sign_changing)
        doc = {"operator": BASE_PROBLEM["operator"],
               "domain": {"kind": "Ball", "R": 1.0}, "grid": {"n": 64}}
        cfg = write_config(tmp_path, doc)
        assert run("eigen", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: iterate left the positive cone"]


class TestConfigSchema:
    """Every key a config may hold is read by some command; others fail."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the config was checked")

        monkeypatch.setattr(cli, "solve_dirichlet", no_solve)
        monkeypatch.setattr(eigen, "solve_dirichlet", no_solve)

    @pytest.mark.parametrize("section, key, path", [
        (None, "params", "params"),
        (None, "output_dir", "output_dir"),
        (None, "gradng", "gradng"),
        ("operator", "alpah", "operator.alpah"),
        ("domain", "bc_outter", "domain.bc_outter"),
        ("grid", "gradng", "grid.gradng"),
        ("f", "vlaue", "f.vlaue"),
        ("verify_opts", "slope", "verify_opts"),
        ("eigen", "tols", "eigen.tols"),
        ("eigen", "max_outer", "eigen.max_outer"),
    ])
    @pytest.mark.parametrize("command", ["solve", "verify", "eigen", "study"])
    def test_unknown_key_fails_every_command(self, tmp_path, capsys, command,
                                             section, key, path):
        doc = json.loads(json.dumps(BASE_PROBLEM))
        if section is None:
            doc[key] = 1
        else:
            doc.setdefault(section, {})[key] = 1
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run(command, cfg, out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: bad config: unknown key {path}"]
        assert not out.exists()

    @pytest.mark.parametrize("section, change, message", [
        ("grid", {"n": 400.7}, "grid.n must be an integer, got 400.7"),
        ("grid", {"n": "400"}, "grid.n must be an integer, got '400'"),
        ("grid", {"n": 15}, "grid.n must be >= 16, got 15"),
        ("operator", {"dim": 2.9}, "operator.dim must be an integer, got 2.9"),
        ("operator", {"a": True}, "operator.a must be a finite number, "
                                  "got True"),
        ("domain", {"R": "1"}, "domain.R must be a finite number, got '1'"),
        ("domain", {"bc_outer": True}, "domain.bc_outer must be a finite "
                                       "number, got True"),
        ("domain", {"bc_outer": 0.0, "bc_inner": 5},
         "ball domains have bc_inner = 0"),
    ], ids=["fractional-n", "text-n", "small-n", "fractional-dim", "bool-a",
            "text-R", "bool-bc_outer", "ball-bc_inner"])
    @pytest.mark.parametrize("command", ["solve", "verify", "eigen", "study"])
    def test_bad_number_fails_every_command(self, tmp_path, capsys, command,
                                            section, change, message):
        doc = dict(BASE_PROBLEM, **{section: dict(BASE_PROBLEM[section],
                                                  **change)})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run(command, cfg, out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: bad config: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("f, path", [
        ({"kind": "constant", "value": 1.0, "name": "sine"}, "f.name"),
        ({"kind": "tabulated", "r": [0, 1], "v": [1, 1], "value": 1},
         "f.value"),
        ({"kind": "expression", "name": "sine",
          "params": {"amplitud": 2.0}}, "f.params.amplitud"),
        ({"kind": "expression", "name": "power",
          "params": {"coef": 1.0, "offset": 0.0}}, "f.params.offset"),
    ])
    def test_forcing_keys_depend_on_kind(self, tmp_path, capsys, f, path):
        cfg = write_config(tmp_path, dict(BASE_PROBLEM, f=f))
        assert run("solve", cfg, tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: bad config: unknown key {path}"]

    def test_first_misspelling_is_named(self, tmp_path, capsys):
        doc = dict(BASE_PROBLEM, gradng={"n": 64}, parms={},
                   verify_opt={}, f={"kind": "constant", "vlaue": 1.0})
        cfg = write_config(tmp_path, doc)
        assert run("solve", cfg, tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: bad config: unknown key gradng"]

    @pytest.mark.parametrize("change, path", [
        (("f", {"kind": "tabulated"}), "f.r"),
        (("f", {"value": 1.0}), "f.kind"),
        (("operator", {"variant": "PucciPlus", "a": 1.0, "A": 2.0,
                       "dim": 2}), "operator.alpha"),
        (("domain", {"kind": "Ball"}), "domain.R"),
        (("grid", {"grading": "Uniform"}), "grid.n"),
        (("grid", None), "grid"),
    ])
    def test_missing_key_names_dotted_path(self, tmp_path, capsys, change,
                                           path):
        name, section = change
        doc = dict(BASE_PROBLEM)
        if section is None:
            del doc[name]
        else:
            doc[name] = section
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("verify", cfg, out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: bad config: missing key {path}"]
        assert not out.exists()

    @pytest.mark.parametrize("f, message", [
        ({"kind": "tabulated", "r": [0, 1], "v": [1, 2, 3]},
         "table r and v differ in length"),
        ({"kind": "tabulated", "r": [], "v": []},
         "table r must be a non-empty list of finite numbers"),
        ({"kind": "tabulated", "r": [0, 1], "v": [1, float("nan")]},
         "table v must be a non-empty list of finite numbers"),
        ({"kind": "expression", "name": "sine", "params": {"amplitude": "x"}},
         "sine parameter 'amplitude' must be a finite number, got 'x'"),
        ({"kind": "constant", "value": float("nan")},
         "forcing value must be a finite number, got nan"),
        ({"kind": "constant", "value": "1.5"},
         "forcing value must be a finite number, got '1.5'"),
        ({"kind": "expression", "name": "step", "params": {"width": 0}},
         "step parameter 'width' must be > 0"),
        ({"kind": "expression", "name": "const"},
         "unknown expression 'const'"),
    ], ids=["unequal-table", "empty-table", "nan-table-entry",
            "text-parameter", "nan-constant", "text-constant",
            "zero-step-width", "const-expression"])
    def test_bad_forcing_value_fails_before_solving(self, tmp_path, capsys,
                                                    f, message):
        cfg = write_config(tmp_path, dict(BASE_PROBLEM, f=f))
        out = tmp_path / "out"
        assert run("solve", cfg, out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: bad config: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("f", [
        {"kind": ["constant"], "value": 1.0},
        {"kind": "expression", "name": ["sine"], "params": {}}])
    def test_unhashable_kind_or_name_is_config_error(self, tmp_path, capsys,
                                                     f):
        cfg = write_config(tmp_path, dict(BASE_PROBLEM, f=f))
        assert run("solve", cfg, tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad config: ")

    @pytest.mark.parametrize("doc", [[1, 2], "solve", 3])
    def test_config_must_be_an_object(self, tmp_path, capsys, doc):
        cfg = write_config(tmp_path, doc)
        assert run("solve", cfg, tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: bad config: the config must be a JSON object"]

    def test_shipped_configs_and_benchmark_requests_pass(self):
        docs = []
        for name in sorted(os.listdir(CONFIG_DIR)):
            with open(os.path.join(CONFIG_DIR, name)) as fh:
                docs.append(json.load(fh))
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        reqs = [req for workload in sorted(workloads.WHY)
                for req in workloads.build(workload, ROOT, 7)]
        assert len(reqs) == 24
        docs += [req.doc for req in reqs]
        for doc in docs:
            cli._parse_problem(doc)
            cli._parse_eigen_opts(doc)

    def test_readme_table_lists_exactly_the_schema(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        start = lines.index("| section | keys | values |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            label, keys, _ = (cell.strip()
                              for cell in line.strip("|").split("|"))
            rows.append((label, sorted(re.findall(r"`([^`]+)`", keys))))
        expected = [("top level", cli._TOP_KEYS)]
        expected += [(f"`{name}`", keys)
                     for name, keys in cli._SECTION_KEYS.items()]
        expected += [(f"`f` of kind `{kind}`", keys)
                     for kind, keys in cli._SOURCE_KEYS.items()]
        expected += [(f"`f.params` of `{name}`", list(params))
                     for name, params in EXPRESSION_CATALOGUE.items()]
        assert sorted(rows) == sorted((label, sorted(keys))
                                      for label, keys in expected)


class TestStudy:
    def test_rate_at_least_first_order(self, tmp_path):
        doc = dict(BASE_PROBLEM, grid={"n": 50,
                                       "grading": "GradedAtOrigin"})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("study", cfg, out) == 0
        payload = json.loads((out / "study.json").read_text())
        assert payload["rate"] >= 0.5
        with open(out / "study.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "sup_error_vs_finest", "rate"]
        assert rows[1][0] == "50"
        assert rows[2][0] == "100"

    def test_no_rate_when_an_error_is_zero(self, tmp_path):
        # u = 1 is exact at every n, so both errors are 0.0 and the rate is
        # undefined: null, not the Infinity that JSON cannot hold
        doc = dict(BASE_PROBLEM, grid={"n": 32, "grading": "GradedAtOrigin"},
                   f={"kind": "constant", "value": 0.0})
        out = tmp_path / "out"
        assert run("study", write_config(tmp_path, doc), out) == 0
        text = (out / "study.json").read_text()
        payload = json.loads(text, parse_constant=pytest.fail)
        assert payload["errors"] == {"32": 0.0, "64": 0.0}
        assert payload["rate"] is None
        with open(out / "study.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [["32", "0", ""], ["64", "0", ""]]
