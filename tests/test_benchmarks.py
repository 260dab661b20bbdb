"""Smoke tests of the scripts in benchmarks/ and of perfbench's tracer:
they must keep running against the package's current API."""

import importlib.util
import json
import os
import subprocess
import sys
import time
import types

import pytest

from radelliptic import analysis, cli, eigen, solver
from radelliptic import grid as grid_module

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _load_script(name, directory="benchmarks"):
    # the scripts import ``harness`` from their own directory, as they do
    # when run as ``python3 benchmarks/<script>.py``
    directory = os.path.join(ROOT, directory)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(directory, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, directory)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(directory)
    return module


def _config(name):
    with open(os.path.join(ROOT, "configs", name + ".json")) as fh:
        return json.load(fh)


def test_certify_times_every_check_on_a_shipped_config(monkeypatch):
    bench = _load_script("bench_certify")
    monkeypatch.setattr(bench.harness, "SAMPLE_SECONDS", 0.001)
    doc = _config("laplacian_ball")
    (n, times, digests), = bench.time_runs([doc])
    assert n == doc["grid"]["n"]
    assert set(times) == set(bench.ROWS) == set(bench.CHECKS) | {"verify"}
    assert all(t >= 0.0 for t in times.values())
    assert times["verify_flux_inequalities"] > 0.0
    # the whole certification costs more than any one of its checks
    assert times["verify"] > max(times[c] for c in bench.CHECKS)
    # one sha256 per row, and the same reports give the same digests
    assert set(digests) == set(bench.ROWS)
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())
    assert bench.time_runs([doc])[0][2] == digests


def test_certify_rows_run_on_cold_profiles(monkeypatch, tmp_path):
    bench = _load_script("bench_certify")
    built = []
    quotients = grid_module._quotients
    monkeypatch.setattr(grid_module, "_quotients",
                        lambda u: built.append(u) or quotients(u))
    n, calls, _ = bench.prepare(_config("pucci_power_ball"), str(tmp_path))
    assert n == 400 and calls["c1_bound_check"]
    # every call derives the quotients from a new profile of its own
    # (c1_modulus_report reads no quotients)
    for row in ("verify_flux_inequalities", "check_viscosity",
                "c1_bound_check", "holder_exponent", "verify"):
        for fn in calls[row]:
            before = len(built)
            fn()
            fn()
            assert len(built) == before + 2
            assert built[-1] is not built[-2]


def test_certify_times_the_bound_checks_verify_makes(monkeypatch, tmp_path):
    # u = 0: c1_bound_check returns at both derivative-zero candidates, and
    # holder_exponent finds too few points to fit at either
    bench = _load_script("bench_certify")
    doc = _config("laplacian_ball")
    doc = dict(doc, f={"kind": "constant", "value": 0.0},
               domain=dict(doc["domain"], bc_outer=0.0))
    _, calls, _ = bench.prepare(doc, str(tmp_path))
    assert len(calls["c1_bound_check"]) == 2
    assert calls["holder_exponent"] == []
    # the row's calls are the ones verify makes, at the same candidates
    made = []
    bound_check = analysis.c1_bound_check
    monkeypatch.setattr(analysis, "c1_bound_check",
                        lambda *args: made.append(args[-1]) or
                        bound_check(*args))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cli.main(["verify", "--config", str(path), "--out", str(tmp_path)])
    assert [fn.args[-1] for fn in calls["c1_bound_check"]] == made


def test_recorder_restores_every_attribute_when_a_call_raises():
    harness = _load_script("harness")

    def half(x):
        return x / 2

    def fail(x):
        raise ZeroDivisionError(x)

    owner = types.SimpleNamespace(half=half, fail=fail)
    with pytest.raises(ZeroDivisionError):
        with harness.recorded((owner, "half"), (owner, "fail")) as made:
            assert owner.half(x=3) == 1.5
            owner.fail(0)
    assert owner.half is half and owner.fail is fail
    # the call that returned is recorded, the one that raised is not
    assert made == [harness.Call(half, (), {"x": 3}, 1.5)]


@pytest.mark.parametrize("name", ["pucci_power_ball",
                                  "alpha_laplacian_annulus"])
def test_certify_writes_the_reports_of_verify(name, tmp_path):
    # the verify row runs cmd_verify's certification: the same reports
    bench = _load_script("bench_certify")
    (tmp_path / "bench").mkdir()
    bench.prepare(_config(name), str(tmp_path / "bench"))
    cli_out = str(tmp_path / "cli")
    path = os.path.join(ROOT, "configs", name + ".json")
    assert cli.main(["verify", "--config", path, "--out", cli_out]) == 0
    assert (bench.report_texts(str(tmp_path / "bench"))
            == bench.report_texts(cli_out))


def test_solve_times_a_config_row(monkeypatch, tmp_path):
    bench = _load_script("bench_solve")
    monkeypatch.setattr(bench.harness, "SAMPLE_SECONDS", 0.001)
    doc = _config("pucci_power_ball")
    path = tmp_path / "profile.csv"
    row, shas, call, write = bench.solve_row(doc, path)
    assert set(row) == {"steps"} and row["steps"] >= 1
    assert set(shas) == {"profile", "csv"}
    assert all(len(sha) == 64 and int(sha, 16) >= 0 for sha in shas.values())
    # each call solves on a fresh grid of the config's n, to the same bits
    sol = call()
    assert sol.u.grid.n == doc["grid"]["n"]
    assert bench.harness.digest(sol.u.values) == shas["profile"]
    # the CSV call writes the bytes of the file a solve request writes
    sol.u.to_csv(tmp_path / "solution.csv")
    write()
    assert path.read_bytes() == (tmp_path / "solution.csv").read_bytes()
    assert bench.harness.digest(path.read_bytes()) == shas["csv"]
    assert all(t > 0.0 for t in bench.harness.best_times([call, write]))


def test_solve_times_an_eigen_row(tmp_path):
    bench = _load_script("bench_solve")
    # perfbench's eigen requests, under the run names of BENCH_solve.json
    with open(os.path.join(ROOT, "BENCH_solve.json")) as fh:
        runs = json.load(fh)["change"]["runs"]
    assert set(bench.EIGEN_FAMILY) == {run for run in runs
                                       if run.startswith("eigen:")}
    doc = bench.EIGEN_FAMILY["eigen:Plus:alpha=1:n=400"]
    assemble = bench._kernels.assemble_system
    path = tmp_path / "profile.csv"
    row, shas, call, write = bench.eigen_row(doc, path)
    assert row["outer_iters"] > 1 and row["lambda"] > 0.0
    assert set(shas) == {"profile", "csv"}
    assert bench.harness.digest(path.read_bytes()) == shas["csv"]
    # one scan or more per outer step; the settled steps after the first
    # guessed one reuse the grid's row factors and assemble nothing
    assert row["scans"] >= row["outer_iters"]
    assert 0 < row["assemblies"] < row["outer_iters"]
    assert bench.eigen_row(doc, path)[:2] == (row, shas)
    res = call()
    assert res.lambda_value == row["lambda"]
    # the CSV call writes the eigenfunction, as an eigen request does
    res.phi.to_csv(tmp_path / "eigenfunction.csv")
    write()
    assert path.read_bytes() == (tmp_path / "eigenfunction.csv").read_bytes()
    # the recording wrappers are gone after the run
    assert bench.eigen.solve_dirichlet is solver.solve_dirichlet
    assert bench._kernels.assemble_system is assemble


def test_fixed_time_loop_runs_until_its_budget(monkeypatch):
    harness = _load_script("harness")
    monkeypatch.setattr(harness, "SAMPLE_SECONDS", 0.02)
    starts = []

    def call():
        starts.append(time.process_time())
        sum(range(10_000))

    t0 = time.process_time()
    assert harness.sample(call) > 0.0
    assert time.process_time() - t0 >= 0.02
    # no call starts once the budget is spent
    assert len(starts) > 1 and starts[-1] - starts[0] < 0.02 + 1e-3


def test_best_times_keeps_the_minimum_over_rounds(monkeypatch):
    harness = _load_script("harness")
    samples = iter([3.0, 5.0, 1.0, 6.0, 2.0, 4.0])
    sampled = []

    def fake_sample(fn):
        sampled.append(fn)
        return next(samples)

    monkeypatch.setattr(harness, "REPEAT", 3)
    monkeypatch.setattr(harness, "sample", fake_sample)
    assert harness.best_times(["a", "b"]) == [1.0, 4.0]
    assert sampled == ["a", "b"] * 3


def test_shipped_yields_each_matching_config_at_every_scale():
    harness = _load_script("harness")
    verify = ["alpha_laplacian_annulus", "laplacian_ball", "pucci_alpha2_ball",
              "pucci_minus_ball", "pucci_power_ball", "trace_mix_ball"]
    # minimal.json names no command, and eigen_disk.json runs eigen
    got = list(harness.shipped(("solve", "verify")))
    assert [(name, scale) for name, scale, _ in got] == [
        (name, scale) for name in verify for scale in (1, 4, 16)]
    assert [(name, scale) for name, scale, _ in harness.shipped(
        ("eigen",))] == [("eigen_disk", 1), ("eigen_disk", 4),
                         ("eigen_disk", 16)]
    for name, scale, doc in got:
        shipped = _config(name)
        assert doc["grid"]["n"] == scale * shipped["grid"]["n"]
        # nothing but grid.n changes
        assert dict(doc, grid=shipped["grid"]) == shipped
        assert dict(doc["grid"], n=shipped["grid"]["n"]) == shipped["grid"]


def test_record_replaces_its_own_label_and_names_differing_digests(
        tmp_path, capsys):
    harness = _load_script("harness")
    path = str(tmp_path / "BENCH.json")
    parent = {"runs": {}, "digests": {
        "a:n=10": {"check_viscosity": "1", "c1_bound_check": "2",
                   "holder_exponent": "3"},
        "b:n=10": "4", "c:n=10": "5"}}
    with open(path, "w") as fh:
        json.dump({"parent": parent}, fh)
    entry = {"runs": {}, "digests": {
        "a:n=10": {"check_viscosity": "1", "c1_bound_check": "x"},
        "b:n=10": "4", "d:n=10": "6"}}
    harness.record(path, "change", entry)
    # a digest, a check or a run that only one entry has differs too
    assert capsys.readouterr().out == (
        "digests vs parent: 4 differ: a:n=10 c1_bound_check, "
        "a:n=10 holder_exponent, c:n=10, d:n=10\n")
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["parent"] == parent
    assert set(doc["change"]) == {"runs", "digests", "commit", "sources",
                                  "host", "method"}
    # the package sources this process imported, by content
    assert doc["change"]["sources"] == harness.source_digest(
        harness.imported_sources())
    assert os.path.join("radelliptic", "solver.py") in "\n".join(
        harness.imported_sources())
    assert doc["change"]["digests"] == entry["digests"]
    assert doc["change"]["method"]["repeat"] == harness.REPEAT
    harness.record(path, "parent", entry)
    assert capsys.readouterr().out == (
        "digests vs change: every digest matches\n")
    with open(path) as fh:
        assert json.load(fh) == dict(doc, parent=doc["change"])


def test_source_digest_names_the_code_and_not_its_place(tmp_path):
    # two copies of one tree give one digest; a one-byte edit changes it
    harness = _load_script("harness")
    package = os.path.join(ROOT, "src", "radelliptic")
    names = sorted(name for name in os.listdir(package)
                   if name.endswith(".py"))
    copies = []
    for copy in ("one", "two"):
        directory = tmp_path / copy / "radelliptic"
        directory.mkdir(parents=True)
        for name in names:
            with open(os.path.join(package, name), "rb") as fh:
                (directory / name).write_bytes(fh.read())
        copies.append([str(directory / name) for name in names])
    one, two = copies
    digest = harness.source_digest(one)
    assert len(digest) == 64
    assert harness.source_digest(list(reversed(two))) == digest
    edited = tmp_path / "two" / "radelliptic" / "solver.py"
    text = edited.read_bytes()
    edited.write_bytes(text[:-1] + bytes([text[-1] ^ 1]))
    assert harness.source_digest(two) != digest
    # a file's bytes cannot pass as another's: the names enter the digest
    renamed = tmp_path / "one" / "radelliptic" / "solver_.py"
    os.rename(one[names.index("solver.py")], renamed)
    assert harness.source_digest(
        [str(renamed) if path.endswith("solver.py") else path
         for path in one]) != digest


@pytest.mark.parametrize("name", ["BENCH_solve.json", "BENCH_certify.json"])
def test_committed_entries_hold_what_record_writes(name):
    with open(os.path.join(ROOT, name)) as fh:
        doc = json.load(fh)
    assert {"parent", "change"} <= set(doc)
    runs = set(doc["change"]["runs"])
    for entry in doc.values():
        assert {"commit", "sources", "host", "method", "runs",
                "digests"} <= set(entry)
        assert len(entry["sources"]) == 64
        assert set(entry["runs"]) == set(entry["digests"]) == runs


def _sweep(*args):
    # run as documented, without PYTHONPATH: the script finds src itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "bench_sweep.py"),
         "--cases", "2", "--n", "32", *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_sweep_runs_two_cases():
    lines = _sweep()
    assert len(lines) == 3
    assert lines[-1].startswith("seed 2026, n=32: ")
    assert not any("uncaught" in line for line in lines)


def test_sweep_compares_with_a_saved_sweep(tmp_path):
    saved = str(tmp_path / "sweep.npz")
    _sweep("--save", saved)
    lines = _sweep("--compare", saved)
    assert len(lines) == 4
    assert all(line.endswith("  identical") for line in lines[:2])
    assert lines[-1] == f"compare {saved}: 2 of 2 identical"


def test_perfbench_tracer_installs_and_records(tmp_path):
    # the tracer wraps functions of the package from outside: every one it
    # names must exist, and a solve, a verify and an eigen run must pass
    # through them
    tracer = _load_script("tracing", "perfbench").Tracer()
    cfg = os.path.join(ROOT, "configs", "minimal.json")
    eigen_cfg = os.path.join(ROOT, "configs", "eigen_disk.json")
    with tracer.installed():
        for owner, attr, _, _ in tracer._targets():
            assert owner.__dict__[attr].__name__ == "traced", attr
        for command, path in (("solve", cfg), ("verify", cfg),
                              ("eigen", eigen_cfg)):
            out = str(tmp_path / command)
            with tracer.request(command):
                assert cli.main([command, "--config", path,
                                 "--out", out]) == 0
    assert cli.solve_dirichlet is solver.solve_dirichlet
    assert eigen.solve_dirichlet is solver.solve_dirichlet
    for name in ("solver.solve_dirichlet", "kernels.assemble_system",
                 "analysis.check_viscosity", "eigen.principal_eigenvalue",
                 "operators.validate_hypotheses", "report.write"):
        assert tracer.calls[name] > 0, name
    # solve and verify make one solve each, through the attribute the
    # tracer wraps; verify runs no comparison spot-check, though ``cli``
    # keeps the name the tracer wraps
    assert tracer.calls["solver.solve_dirichlet"] - tracer.counts[
        "eigen.solves"] == 2
    assert tracer.calls["solver.comparison_oracle"] == 0
    assert tracer.total_s["solver.comparison_solve"] == 0.0
    assert cli.comparison_oracle is None
    # the eigen steps after the first pass their guess as ``initial_guess=``
    assert tracer.total_s["eigen.warm_solve"] > 0.0
