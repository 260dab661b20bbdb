"""Smoke tests of the scripts in benchmarks/: they must keep running
against the package's current API."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _load_script(name):
    path = os.path.join(ROOT, "benchmarks", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_times_every_check_on_a_shipped_config():
    bench = _load_script("bench_certify")
    with open(os.path.join(ROOT, "configs", "laplacian_ball.json")) as fh:
        doc = json.load(fh)
    n, times, digests = bench.time_checks(doc)
    assert n == doc["grid"]["n"]
    assert set(times) == set(bench.CHECKS)
    assert all(t >= 0.0 for t in times.values())
    assert times["verify_flux_inequalities"] > 0.0
    # one sha256 per check, and the same reports give the same digests
    assert set(digests) == set(bench.CHECKS)
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())
    assert bench.time_checks(doc)[2] == digests


def test_solve_times_assembly_and_linear_step():
    bench = _load_script("bench_solve")
    with open(os.path.join(ROOT, "configs", "pucci_power_ball.json")) as fh:
        doc = json.load(fh)
    n, row = bench.time_solve(doc)
    assert n == doc["grid"]["n"]
    assert row["newton_iters"] > 0
    # a step can be retried with the frozen Jacobian, never skipped
    assert row["linear_steps"] >= row["newton_iters"]
    assert row["assemblies"] > row["newton_iters"]
    assert all(row[k] > 0.0 for k in ("solve_s", "assembly_us",
                                       "linear_step_us"))
    assert len(row["sha256"]) == 64 and int(row["sha256"], 16) >= 0


def test_solve_times_an_eigen_row():
    bench = _load_script("bench_solve")
    assert ("Plus", 1.0, 400) in bench.EIGEN_FAMILY
    row = bench.time_eigen("Plus", 1.0, 400)
    assert row["eigen_s"] > 0.0 and row["outer_iters"] > 1
    assert row["assemblies"] > 0
    assert len(row["sha256"]) == 64
    assert bench.time_eigen("Plus", 1.0, 400)["sha256"] == row["sha256"]


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
