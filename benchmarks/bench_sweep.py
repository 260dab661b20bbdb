"""Seeded robustness sweep: random radial Dirichlet problems through solve_dirichlet.

Each case draws an operator variant, alpha in {-0.75, ..., 4}, dim 1-4,
ellipticity constants, a ball or an annulus with random boundary data, and
constant or sine forcing, then solves it on an n-node grid.  One line per
case gives the outcome (converged, or the error class raised), the
solver's step count (its affine scans), ``|u-ref|``, the largest distance
at the nodes from the reference solution of ``tests/reference.py`` (scipy's
``solve_ivp`` on the flux ODE), and the wall time of the solve; a summary
line with the largest ``|u-ref|`` follows.

Usage: python3 benchmarks/bench_sweep.py [--seed 2026] [--cases 40] [--n 200]
                                         [--save sweep.npz]
                                         [--compare other.npz]

``--save`` stores every converged profile under its case number, so two
versions of the solver can be compared case by case.  ``--compare`` reads
such a file and ends each case line with ``identical`` when both sides
have no profile or bitwise equal ones, or else the largest ``|delta|``
(``missing`` when only one side has a profile, ``other-shape`` when the
grids differ); a summary line counts the identical cases.  The package is
imported from the ``src`` directory of the checkout that holds the script.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import numpy as np  # noqa: E402

from radelliptic.errors import RadellipticError  # noqa: E402
from radelliptic.grid import Domain, Grading, RadialGrid  # noqa: E402
from radelliptic.operators import OperatorSpec  # noqa: E402
from radelliptic.solver import SourceFunction, solve_dirichlet  # noqa: E402
from reference import reference_solution  # noqa: E402

ALPHAS = (-0.75, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0)
VARIANTS = ("PucciPlus", "PucciMinus", "AlphaLaplacian", "TraceNormalMix")


def draw_case(rng, n):
    """One random problem: (label, op, dom, grid, f)."""
    variant = VARIANTS[rng.integers(len(VARIANTS))]
    alpha = float(ALPHAS[rng.integers(len(ALPHAS))])
    dim = int(rng.integers(1, 5))
    a = float(rng.uniform(0.5, 1.5))
    A = a * float(rng.uniform(1.0, 3.0))
    if variant == "PucciPlus":
        op = OperatorSpec.pucci_plus(alpha, a, A, dim)
    elif variant == "PucciMinus":
        op = OperatorSpec.pucci_minus(alpha, a, A, dim)
    elif variant == "AlphaLaplacian":
        op = OperatorSpec.alpha_laplacian(alpha, dim)
    else:
        op = OperatorSpec.trace_normal_mix(alpha, a, A - a, dim)
    if rng.random() < 0.5:
        dom = Domain.ball(1.0, bc_outer=float(rng.uniform(-1.0, 1.0)))
        grid = RadialGrid.for_domain(dom, n, Grading.GRADED_AT_ORIGIN)
        where = "ball"
    else:
        r1 = float(rng.uniform(0.1, 0.6))
        dom = Domain.annulus(r1, 1.0, bc_inner=float(rng.uniform(-1.0, 1.0)),
                             bc_outer=float(rng.uniform(-1.0, 1.0)))
        grid = RadialGrid.for_domain(dom, n, Grading.UNIFORM)
        where = f"annulus[{r1:.2f},1]"
    if rng.random() < 0.5:
        f = SourceFunction.constant(float(rng.uniform(-10.0, 10.0)))
        forcing = f"f={f.value:+.3f}"
    else:
        amp, freq, off = (float(rng.uniform(0.5, 5.0)), float(rng.uniform(1.0, 8.0)),
                          float(rng.uniform(-5.0, 5.0)))
        f = SourceFunction.expression("sine", amplitude=amp, frequency=freq, offset=off)
        forcing = f"f={off:+.2f}{amp:+.2f}sin({freq:.2f}r)"
    label = f"{variant:<14} alpha={alpha:+.2f} dim={dim} {where:<18} {forcing}"
    return label, op, dom, grid, f


def compare(mine, theirs):
    """``identical``, ``missing``, or the largest |delta| of two profiles."""
    if mine is None and theirs is None:
        return "identical"
    if mine is None or theirs is None:
        return "missing"
    if mine.shape != theirs.shape:
        return "other-shape"
    if mine.tobytes() == theirs.tobytes():
        return "identical"
    return f"max|delta|={float(np.max(np.abs(mine - theirs))):.3e}"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--cases", type=int, default=40)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--save", default=None, help="npz file for converged profiles")
    parser.add_argument("--compare", default=None,
                        help="npz file of --save to compare the profiles with")
    args = parser.parse_args()
    saved = None
    if args.compare:
        with np.load(args.compare) as npz:
            saved = {key: npz[key] for key in npz.files}

    rng = np.random.default_rng(args.seed)
    outcomes = {}
    profiles = {}
    total = 0.0
    slowest = 0.0
    worst = 0.0
    identical = 0
    for k in range(args.cases):
        label, op, dom, grid, f = draw_case(rng, args.n)
        t0 = time.perf_counter()
        err = "-"
        try:
            sol = solve_dirichlet(op, dom, f, grid)
            outcome, steps = "converged", str(sol.iterations)
            profiles[f"case{k:02d}"] = sol.u.values
        except RadellipticError as exc:
            outcome, steps = type(exc).__name__, "-"
        except Exception as exc:  # anything else escapes the CLI's exit codes
            outcome, steps = "uncaught:" + type(exc).__name__, "-"
        dt = time.perf_counter() - t0
        if outcome == "converged":
            ref = reference_solution(op, dom, f, grid.nodes)
            dist = float(np.max(np.abs(sol.u.values - ref)))
            worst = max(worst, dist)
            err = f"{dist:.2e}"
        total += dt
        slowest = max(slowest, dt)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        line = (f"{k:3d} {label}  {outcome:<12} scans={steps:>4} "
                f"|u-ref|={err:>8} {dt:8.3f}s")
        if saved is not None:
            verdict = compare(profiles.get(f"case{k:02d}"),
                              saved.get(f"case{k:02d}"))
            identical += verdict == "identical"
            line += f"  {verdict}"
        print(line, flush=True)
    summary = ", ".join(f"{name} {count}" for name, count in sorted(outcomes.items()))
    print(f"seed {args.seed}, n={args.n}: {summary}; total {total:.2f}s, "
          f"slowest {slowest:.2f}s, largest |u-ref| {worst:.2e}")
    if saved is not None:
        print(f"compare {args.compare}: {identical} of {args.cases} identical")
    if args.save:
        np.savez(args.save, **profiles)


if __name__ == "__main__":
    main()
