"""Per-check certification timings on the shipped verify configs.

Each config whose ``command`` is ``verify`` is solved at n, 4n and 16n
(its shipped ``grid.n`` times the scale), and every certification check
that ``verify`` runs on that solution is timed on its own, best of
``REPEAT`` calls:

- ``verify_flux_inequalities`` (eqA-eqD),
- ``check_viscosity``,
- ``c1_modulus_report`` (derivative numbers),
- ``c1_bound_check`` and ``holder_exponent`` at every derivative-zero
  candidate, summed over the candidates.

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
import hashlib
import json
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

REPEAT = 3
SCALES = (1, 4, 16)
CHECKS = ("verify_flux_inequalities", "check_viscosity", "c1_modulus_report",
          "c1_bound_check", "holder_exponent")


def best_of(fn):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def digest(doc):
    """sha256 of ``doc`` in JSON with sorted keys."""
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def time_checks(doc):
    """Best-of-``REPEAT`` seconds of each check on the solution of ``doc``,
    and the digest of each check's result."""
    op = OperatorSpec.from_json_dict(doc["operator"])
    dom = Domain.from_json_dict(doc["domain"])
    grid = RadialGrid.for_domain(dom, doc["grid"]["n"], doc["grid"]["grading"])
    f = SourceFunction.from_json_dict(doc["f"])
    sol = solve_dirichlet(op, dom, f, grid)
    times = {
        "verify_flux_inequalities": best_of(
            lambda: analysis.verify_flux_inequalities(sol, op, f)),
        "check_viscosity": best_of(
            lambda: analysis.check_viscosity(sol, op, f)),
        "c1_modulus_report": best_of(
            lambda: analysis.c1_modulus_report(sol, alpha=op.alpha)),
        "c1_bound_check": 0.0,
        "holder_exponent": 0.0,
    }
    digests = {
        "verify_flux_inequalities": digest(
            analysis.verify_flux_inequalities(sol, op, f).as_dict()),
        "check_viscosity": digest(
            analysis.check_viscosity(sol, op, f).as_dict()),
        "c1_modulus_report": digest(
            analysis.c1_modulus_report(sol, alpha=op.alpha).as_dict()),
    }
    bounds, fits = [], []
    for r_star in analysis.derivative_zero_candidates(sol.u, dom):
        try:
            bound = analysis.c1_bound_check(sol, op, f, r_star)
            fit = analysis.holder_exponent(sol, r_star)
        except (NotAZero, InsufficientData):
            continue
        bounds.append(bound.as_dict())
        fits.append(dataclasses.asdict(fit))
        times["c1_bound_check"] += best_of(
            lambda: analysis.c1_bound_check(sol, op, f, r_star))
        times["holder_exponent"] += best_of(
            lambda: analysis.holder_exponent(sol, r_star))
    digests["c1_bound_check"] = digest(bounds)
    digests["holder_exponent"] = digest(fits)
    return grid.n, times, digests


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
    runs = {}
    digests = {}
    totals = {str(s): dict.fromkeys(CHECKS, 0.0) for s in SCALES}
    for name in sorted(os.listdir(config_dir)):
        with open(os.path.join(config_dir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("command") != "verify":
            continue
        for scale in SCALES:
            scaled = dict(doc, grid=dict(doc["grid"],
                                         n=int(doc["grid"]["n"]) * scale))
            n, times, digests[f"{name[:-5]}:n={n}"] = time_checks(scaled)
            runs[f"{name[:-5]}:n={n}"] = times
            for check, t in times.items():
                totals[str(scale)][check] += t
            print(f"{name[:-5]:24s} n={n:5d} "
                  + " ".join(f"{c}={t:.4f}" for c, t in times.items()),
                  flush=True)
    for scale, row in totals.items():
        print(f"total x{scale}: "
              + " ".join(f"{c}={t:.4f}" for c, t in row.items()))

    entry = {
        "commit": git_commit(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "repeat": REPEAT,
        "unit": "s, best of repeat",
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
