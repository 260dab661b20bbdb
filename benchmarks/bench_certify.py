"""Per-check certification timings on the shipped verify configs.

Each config whose ``command`` is ``verify`` is solved at n, 4n and 16n
(its shipped ``grid.n`` times the scale), and every certification check
that ``verify`` runs on that solution is timed on its own:

- ``verify_flux_inequalities`` (eqA-eqD),
- ``check_viscosity``,
- ``c1_modulus_report`` (derivative numbers),
- ``c1_bound_check`` and ``holder_exponent`` at every derivative-zero
  candidate, summed over the candidates.

Times are seconds of process time per call.  A sample calls a check in a
loop until the loop has run for ``SAMPLE_SECONDS`` and divides by the
number of calls.  A shared host's speed drifts by tens of percent for
minutes at a time, so each sample is scaled to a host where perfbench's
fixed probe kernel takes ``PROBE_REF_S``, by the mean of the probe's
timings just before and just after the loop.  The samples are taken in
``REPEAT`` rounds over all configs and scales, and a check's time is the
best of its samples.

The checks get the arguments ``verify`` gives them.  The script prints
one line per config and scale, and writes (or replaces) the entry under
``--label`` in the JSON file, with per-scale totals per check.  The entry
also records, per config and scale, the sha256 of each check's result in
JSON (``json.dumps(report.as_dict(), sort_keys=True)``; for the checks run
at every derivative-zero candidate, the list of their results), so two
entries show whether two commits report the same; against each of the
file's other entries the script names every check whose digest differs,
with the runs where it does.

Usage: python3 benchmarks/bench_certify.py --label change
                                           [--out BENCH_certify.json]

The package is imported from the ``src`` directory next to this script's
directory, so a copy of the script inside another checkout times that
checkout's code.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from radelliptic import analysis  # noqa: E402
from radelliptic.errors import InsufficientData, NotAZero  # noqa: E402
from radelliptic.grid import Domain, RadialGrid  # noqa: E402
from radelliptic.operators import OperatorSpec  # noqa: E402
from radelliptic.solver import SourceFunction, solve_dirichlet  # noqa: E402

# the host-speed probe of the end-to-end benchmark
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import PROBE_REF_S, probe  # noqa: E402

REPEAT = 5
SAMPLE_SECONDS = 0.05
SCALES = (1, 4, 16)
CHECKS = ("verify_flux_inequalities", "check_viscosity", "c1_modulus_report",
          "c1_bound_check", "holder_exponent")


def sample(fn):
    """One sample of ``fn``: process seconds per call over a loop of calls
    that runs for at least ``SAMPLE_SECONDS``, scaled to the probe's
    reference host by the mean of the probe's timings just before and just
    after the loop."""
    before = probe()
    calls = 0
    t0 = time.process_time()
    while True:
        fn()
        calls += 1
        elapsed = time.process_time() - t0
        if elapsed >= SAMPLE_SECONDS:
            break
    return elapsed / calls * PROBE_REF_S / (0.5 * (before + probe()))


def digest(doc):
    """sha256 of ``doc`` in JSON with sorted keys."""
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def prepare(doc):
    """Solve ``doc``.  Returns its n, the calls that make each check on the
    solution (one per derivative-zero candidate for ``c1_bound_check`` and
    ``holder_exponent``) and the digest of each check's result."""
    op = OperatorSpec.from_json_dict(doc["operator"])
    dom = Domain.from_json_dict(doc["domain"])
    grid = RadialGrid.for_domain(dom, doc["grid"]["n"], doc["grid"]["grading"])
    f = SourceFunction.from_json_dict(doc["f"])
    sol = solve_dirichlet(op, dom, f, grid)
    calls = {
        "verify_flux_inequalities": [
            functools.partial(analysis.verify_flux_inequalities, sol, op, f)],
        "check_viscosity": [
            functools.partial(analysis.check_viscosity, sol, op, f)],
        "c1_modulus_report": [
            functools.partial(analysis.c1_modulus_report, sol,
                              alpha=op.alpha)],
        "c1_bound_check": [],
        "holder_exponent": [],
    }
    digests = {check: digest(fns[0]().as_dict())
               for check, fns in calls.items() if fns}
    bounds, fits = [], []
    for r_star in analysis.derivative_zero_candidates(sol.u, dom):
        try:
            bound = analysis.c1_bound_check(sol, op, f, r_star)
            fit = analysis.holder_exponent(sol, r_star)
        except (NotAZero, InsufficientData):
            continue
        bounds.append(bound.as_dict())
        fits.append(dataclasses.asdict(fit))
        calls["c1_bound_check"].append(functools.partial(
            analysis.c1_bound_check, sol, op, f, r_star))
        calls["holder_exponent"].append(functools.partial(
            analysis.holder_exponent, sol, r_star))
    digests["c1_bound_check"] = digest(bounds)
    digests["holder_exponent"] = digest(fits)
    return grid.n, calls, digests


def time_runs(docs):
    """For each config of ``docs``: its n, the seconds per call of each
    check (summed over the candidates) and the digests.

    A call's time is the best of its ``REPEAT`` samples.  The samples are
    taken in rounds, each of which samples every call of every config once,
    so the samples of one call lie apart in time.
    """
    prepared = [prepare(doc) for doc in docs]
    best = [{check: [math.inf] * len(fns) for check, fns in calls.items()}
            for _, calls, _ in prepared]
    for _ in range(REPEAT):
        for (_, calls, _), row in zip(prepared, best):
            for check, fns in calls.items():
                row[check] = [min(t, sample(fn))
                              for t, fn in zip(row[check], fns)]
    return [(n, {check: sum(times) for check, times in row.items()}, digests)
            for (n, _, digests), row in zip(prepared, best)]


def differing_checks(digests, other):
    """{check: [run, ...]}: the runs (config and n) where two entries'
    digests of a check differ.  A run or a check that only one of the
    entries has differs too."""
    changed = {}
    for run in sorted(set(digests) | set(other)):
        mine, theirs = digests.get(run, {}), other.get(run, {})
        for check in sorted(set(mine) | set(theirs)):
            if mine.get(check) != theirs.get(check):
                changed.setdefault(check, []).append(run)
    return changed


def git_commit():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="entry name, e.g. parent or change")
    parser.add_argument("--out",
                        default=os.path.join(ROOT, "BENCH_certify.json"))
    args = parser.parse_args(argv)

    config_dir = os.path.join(ROOT, "configs")
    docs = []
    for name in sorted(os.listdir(config_dir)):
        with open(os.path.join(config_dir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("command") != "verify":
            continue
        for scale in SCALES:
            docs.append((name[:-5], scale, dict(doc, grid=dict(
                doc["grid"], n=int(doc["grid"]["n"]) * scale))))
    runs = {}
    digests = {}
    totals = {str(s): dict.fromkeys(CHECKS, 0.0) for s in SCALES}
    for (name, scale, _), (n, times, run_digests) in zip(
            docs, time_runs([doc for _, _, doc in docs])):
        runs[f"{name}:n={n}"] = times
        digests[f"{name}:n={n}"] = run_digests
        for check, t in times.items():
            totals[str(scale)][check] += t
        print(f"{name:24s} n={n:5d} "
              + " ".join(f"{c}={t:.6f}" for c, t in times.items()))
    for scale, row in totals.items():
        print(f"total x{scale}: "
              + " ".join(f"{c}={t:.6f}" for c, t in row.items()))

    entry = {
        "commit": git_commit(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "repeat": REPEAT,
        "sample_seconds": SAMPLE_SECONDS,
        "probe_ref_s": PROBE_REF_S,
        "unit": "process s per call on the probe's reference host, "
                "best of repeat samples taken in rounds",
        "totals_by_scale": totals,
        "runs": runs,
        "digests": digests,
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    for label, other in sorted(doc.items()):
        if label != args.label and "digests" in other:
            changed = differing_checks(digests, other["digests"])
            if not changed:
                print(f"digests vs {label}: every check matches")
            for check, where in sorted(changed.items()):
                print(f"digests vs {label}: {check} differs on "
                      f"{len(where)} of {len(digests)} runs: "
                      + ", ".join(where))
    doc[args.label] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
