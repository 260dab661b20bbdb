"""Start-up, solve and eigen timings on the shipped configs and the
benchmark's eigen family.

The script records three things:

- the median time of ``import radelliptic.cli`` in a fresh interpreter,
  over ``IMPORT_RUNS`` subprocesses after one discarded;
- for each config whose ``command`` is ``solve`` or ``verify``, at n, 4n
  and 16n (its shipped ``grid.n`` times the scale): the time of
  ``solve_dirichlet`` and of reading its ``residual_sup``, which a
  ``solve`` request writes, and the solver's step count
  (``Solution.iterations``: affine scans of the flux solver, or Newton
  steps before it);
- for each problem of perfbench's ``eigen`` workload (PucciPlus a=1, A=2,
  dim 2 on the unit ball, graded grid; Plus and Minus, alpha -0.5, 0 and
  1; n 400 and 1600): the time of ``principal_eigenvalue``, its outer
  steps and its eigenvalue.

Each timed call builds its own grid, as a CLI request does, so no call
reuses mesh data that an earlier call left on a grid.

Each time is the mean over a fixed-time loop: the call repeats until
``ROW_SECONDS`` have passed (and at least ``MIN_CALLS`` times), so a row
of a millisecond call averages hundreds of calls.  Every row also holds
the sha256 of its profile's bytes (the solution, or the eigenfunction),
so two entries show whether a change moved any bit.

The script prints one line per row, and writes (or replaces) the entry
under ``--label`` in the JSON file.

Usage: python3 benchmarks/bench_solve.py --label change
                                         [--out BENCH_solve.json]

The package is imported from the ``src`` directory next to this script's
directory, so a copy of the script inside another checkout times that
checkout's code.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from radelliptic.eigen import principal_eigenvalue  # noqa: E402
from radelliptic.grid import Domain, Grading, RadialGrid  # noqa: E402
from radelliptic.operators import OperatorSpec  # noqa: E402
from radelliptic.solver import SourceFunction, solve_dirichlet  # noqa: E402

ROW_SECONDS = 0.25
MIN_CALLS = 3
IMPORT_RUNS = 5
SCALES = (1, 4, 16)
# perfbench's eigen workload: (sign, alpha, n)
EIGEN_FAMILY = tuple((sign, alpha, n) for sign in ("Plus", "Minus")
                     for alpha in (-0.5, 0.0, 1.0) for n in (400, 1600))
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import radelliptic.cli; "
                "print(time.perf_counter() - t0)")


def import_seconds():
    """Median seconds of ``import radelliptic.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times[1:])


def loop_seconds(call):
    """Mean seconds per call of ``call()`` over a fixed-time loop, and its
    last result."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        result = call()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= ROW_SECONDS and calls >= MIN_CALLS:
            return elapsed / calls, result


def time_solve(doc):
    """Mean solve time and the solver's step count of one config."""
    op = OperatorSpec.from_json_dict(doc["operator"])
    dom = Domain.from_json_dict(doc["domain"])
    f = SourceFunction.from_json_dict(doc["f"])

    def solve():
        grid = RadialGrid.for_domain(dom, doc["grid"]["n"],
                                     doc["grid"]["grading"])
        sol = solve_dirichlet(op, dom, f, grid)
        sol.residual_sup  # computed on first read; a solve request reads it
        return sol

    seconds, sol = loop_seconds(solve)
    return sol.u.grid.n, {"solve_s": seconds, "steps": sol.iterations,
                          "sha256": digest(sol.u.values)}


def digest(values):
    """sha256 of a profile's float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float)
                          .tobytes()).hexdigest()


def time_eigen(sign, alpha, n):
    """Mean ``principal_eigenvalue`` time, outer steps and eigenvalue of
    one problem of the eigen family."""
    op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
    dom = Domain.ball(1.0)
    seconds, res = loop_seconds(lambda: principal_eigenvalue(
        op, dom, RadialGrid.for_domain(dom, n, Grading.GRADED_AT_ORIGIN),
        sign, tol=1e-8))
    return {"eigen_s": seconds, "outer_iters": res.iterations,
            "lambda": res.lambda_value, "sha256": digest(res.phi.values)}


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
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_solve.json"))
    args = parser.parse_args(argv)

    import_s = import_seconds()
    print(f"import radelliptic.cli: {import_s:.4f} s (median of {IMPORT_RUNS})",
          flush=True)
    config_dir = os.path.join(ROOT, "configs")
    runs = {}
    totals = {str(s): 0.0 for s in SCALES}
    for name in sorted(os.listdir(config_dir)):
        with open(os.path.join(config_dir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("command") not in ("solve", "verify"):
            continue
        for scale in SCALES:
            scaled = dict(doc, grid=dict(doc["grid"],
                                         n=int(doc["grid"]["n"]) * scale))
            n, row = time_solve(scaled)
            runs[f"{name[:-5]}:n={n}"] = row
            totals[str(scale)] += row["solve_s"]
            print(f"{name[:-5]:24s} n={n:5d} solve={row['solve_s']:.5f} s "
                  f"steps={row['steps']:3d}", flush=True)
    for scale, total in totals.items():
        print(f"total x{scale}: solve={total:.4f} s")
    eigen_total = 0.0
    for sign, alpha, n in EIGEN_FAMILY:
        row = time_eigen(sign, alpha, n)
        runs[f"eigen:{sign}:alpha={alpha:g}:n={n}"] = row
        eigen_total += row["eigen_s"]
        print(f"eigen {sign:5s} alpha={alpha:+.1f} n={n:5d} "
              f"eigen={row['eigen_s']:.5f} s outer={row['outer_iters']:3d} "
              f"lambda={row['lambda']:.7f}", flush=True)
    print(f"total eigen: {eigen_total:.4f} s")

    entry = {
        "commit": git_commit(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "row_seconds": ROW_SECONDS,
        "unit": "s (solve and eigen mean over a fixed-time loop, import "
                "median)",
        "import_s": import_s,
        "solve_s_by_scale": totals,
        "eigen_s": eigen_total,
        "runs": runs,
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc[args.label] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
