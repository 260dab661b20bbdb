"""Start-up, Newton-solve and eigen timings on the shipped configs and the
benchmark's eigen family.

The script records three things:

- the median time of ``import radelliptic.cli`` in a fresh interpreter,
  over ``IMPORT_RUNS`` subprocesses after one discarded;
- for each config whose ``command`` is ``solve`` or ``verify``, at n, 4n
  and 16n (its shipped ``grid.n`` times the scale): the best-of-``REPEAT``
  time of ``solve_dirichlet``, its Newton iterations, and from ``REPEAT``
  more solves with the two layers wrapped, the least mean microseconds per
  kernel assembly (``_kernels.assemble_system``) and per Newton linear
  step;
- for each problem of perfbench's ``eigen`` workload (PucciPlus a=1, A=2,
  dim 2 on the unit ball, graded grid; Plus and Minus, alpha -0.5, 0 and
  1; n 400 and 1600): the best-of-``REPEAT`` time of
  ``principal_eigenvalue``, its outer steps and its kernel assemblies.

Every row also holds the sha256 of its profile's bytes (the solution, or
the eigenfunction), so two entries show whether a change moved any bit.

The linear step is ``_System.step``; in checkouts from before it, it is
``_System.banded`` plus ``_banded_solve``, the banded copy and its solve.
The script prints one line per row, and writes (or replaces) the entry
under ``--label`` in the JSON file.

Usage: python3 benchmarks/bench_solve.py --label change
                                         [--out BENCH_solve.json]

The package is imported from the ``src`` directory next to this script's
directory, so a copy of the script inside another checkout times that
checkout's code.
"""

import argparse
import contextlib
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

from radelliptic import _kernels, solver  # noqa: E402
from radelliptic.eigen import principal_eigenvalue  # noqa: E402
from radelliptic.grid import Domain, Grading, RadialGrid  # noqa: E402
from radelliptic.operators import OperatorSpec  # noqa: E402
from radelliptic.solver import SourceFunction, solve_dirichlet  # noqa: E402

REPEAT = 3
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


class Timed:
    """Wraps ``owner.attr`` with a call counter and a wall-clock total."""

    def __init__(self, owner, attr):
        self.owner, self.attr = owner, attr
        self.calls, self.seconds = 0, 0.0

    def __enter__(self):
        self.original = self.owner.__dict__[self.attr]

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return self.original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
                self.calls += 1

        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


def linear_step_targets():
    """(owner, attribute) of the linear step; its last entry runs once per
    step."""
    if "step" in solver._System.__dict__:
        return [(solver._System, "step")]
    return [(solver._System, "banded"), (solver, "_banded_solve")]


def time_solve(doc):
    """Best-of-``REPEAT`` solve time, Newton iterations, and per-call
    microseconds of the assembly and of the linear step (a solve without
    Newton steps reports 0 for the step)."""
    op = OperatorSpec.from_json_dict(doc["operator"])
    dom = Domain.from_json_dict(doc["domain"])
    grid = RadialGrid.for_domain(dom, doc["grid"]["n"], doc["grid"]["grading"])
    f = SourceFunction.from_json_dict(doc["f"])
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        sol = solve_dirichlet(op, dom, f, grid)
        best = min(best, time.perf_counter() - t0)
    row = {"solve_s": best, "newton_iters": sol.iterations,
           "sha256": digest(sol.u.values),
           "assembly_us": float("inf"), "linear_step_us": float("inf")}
    for _ in range(REPEAT):
        with contextlib.ExitStack() as stack:
            assembly = stack.enter_context(Timed(_kernels, "assemble_system"))
            steps = [stack.enter_context(Timed(*target))
                     for target in linear_step_targets()]
            solve_dirichlet(op, dom, f, grid)
        row.update(assemblies=assembly.calls, linear_steps=steps[-1].calls)
        row["assembly_us"] = min(row["assembly_us"], 1e6 * assembly.seconds
                                 / max(assembly.calls, 1))
        row["linear_step_us"] = min(row["linear_step_us"],
                                    1e6 * sum(s.seconds for s in steps)
                                    / max(steps[-1].calls, 1))
    return grid.n, row


def digest(values):
    """sha256 of a profile's float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float)
                          .tobytes()).hexdigest()


def time_eigen(sign, alpha, n):
    """Best-of-``REPEAT`` ``principal_eigenvalue`` time, outer steps and
    kernel assemblies of one problem of the eigen family."""
    op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
    dom = Domain.ball(1.0)
    grid = RadialGrid.for_domain(dom, n, Grading.GRADED_AT_ORIGIN)
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        res = principal_eigenvalue(op, dom, grid, sign, tol=1e-8)
        best = min(best, time.perf_counter() - t0)
    with Timed(_kernels, "assemble_system") as assembly:
        principal_eigenvalue(op, dom, grid, sign, tol=1e-8)
    return {"eigen_s": best, "outer_iters": res.iterations,
            "assemblies": assembly.calls, "lambda": res.lambda_value,
            "sha256": digest(res.phi.values)}


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
            print(f"{name[:-5]:24s} n={n:5d} solve={row['solve_s']:.4f} s "
                  f"newton={row['newton_iters']:3d} "
                  f"assembly={row['assembly_us']:.1f} us "
                  f"step={row['linear_step_us']:.1f} us", flush=True)
    for scale, total in totals.items():
        print(f"total x{scale}: solve={total:.4f} s")
    eigen_total = 0.0
    for sign, alpha, n in EIGEN_FAMILY:
        row = time_eigen(sign, alpha, n)
        runs[f"eigen:{sign}:alpha={alpha:g}:n={n}"] = row
        eigen_total += row["eigen_s"]
        print(f"eigen {sign:5s} alpha={alpha:+.1f} n={n:5d} "
              f"eigen={row['eigen_s']:.4f} s outer={row['outer_iters']:3d} "
              f"assemblies={row['assemblies']:4d}", flush=True)
    print(f"total eigen: {eigen_total:.4f} s")

    entry = {
        "commit": git_commit(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "repeat": REPEAT,
        "unit": "s (solve and eigen best of repeat, import median), "
                "us per call",
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
