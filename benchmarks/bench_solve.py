"""Solve and eigen timings on the shipped configs and the benchmark's
eigen family.

The script times two kinds of rows:

- for each config whose ``command`` is ``solve`` or ``verify``, at n, 4n
  and 16n (its shipped ``grid.n`` times the scale): ``solve_dirichlet``
  and the reading of its ``residual_sup``, which a ``solve`` request
  writes.  The row holds the solver's step count (``Solution.iterations``:
  affine scans of the flux solver, or Newton steps before it);
- for each problem of perfbench's ``eigen`` workload (PucciPlus a=1, A=2,
  dim 2 on the unit ball, graded grid; Plus and Minus, alpha -0.5, 0 and
  1; n 400 and 1600): ``principal_eigenvalue``.  The row holds its outer
  steps and its eigenvalue and, from one more untimed run, the affine
  scans of its inner solves (``scans``) and the calls of
  ``_kernels.assemble_system`` (``assemblies``).  The counts repeat
  exactly, so two entries compare them where the times cannot resolve a
  change of a few percent.

Each timed call builds its own grid, as a CLI request does, so no call
reuses mesh data that an earlier call left on a grid.  Each run's digest
is the sha256 of its profile's bytes (the solution, or the
eigenfunction).  How the calls are timed and how to record an entry pair:
README, "Benchmarks".

Usage: python3 benchmarks/bench_solve.py --label change
                                         [--out BENCH_solve.json]
"""

import contextlib

import harness  # first: it puts src on the path and pins BLAS threads

from radelliptic import _kernels, eigen
from radelliptic.eigen import principal_eigenvalue
from radelliptic.grid import Domain, Grading, RadialGrid
from radelliptic.operators import OperatorSpec
from radelliptic.solver import SourceFunction, solve_dirichlet

# perfbench's eigen workload: (sign, alpha, n)
EIGEN_FAMILY = tuple((sign, alpha, n) for sign in ("Plus", "Minus")
                     for alpha in (-0.5, 0.0, 1.0) for n in (400, 1600))


def solve_row(doc):
    """The step count and digest of one config's solution, and the call
    that the row times."""
    op = OperatorSpec.from_json_dict(doc["operator"])
    dom = Domain.from_json_dict(doc["domain"])
    f = SourceFunction.from_json_dict(doc["f"])

    def solve():
        grid = RadialGrid.for_domain(dom, doc["grid"]["n"],
                                     doc["grid"]["grading"])
        sol = solve_dirichlet(op, dom, f, grid)
        sol.residual_sup  # computed on first read; a solve request reads it
        return sol

    sol = solve()
    return {"steps": sol.iterations}, harness.digest(sol.u.values), solve


@contextlib.contextmanager
def counted():
    """The scans of eigen's inner solves and the kernel assemblies while
    the block runs, counted at the module attributes the package calls."""
    counts = {"scans": 0, "assemblies": 0}
    solve, assemble = eigen.solve_dirichlet, _kernels.assemble_system

    def counting_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        counts["scans"] += sol.iterations
        return sol

    def counting_assemble(*args):
        counts["assemblies"] += 1
        return assemble(*args)

    eigen.solve_dirichlet = counting_solve
    _kernels.assemble_system = counting_assemble
    try:
        yield counts
    finally:
        eigen.solve_dirichlet, _kernels.assemble_system = solve, assemble


def eigen_row(sign, alpha, n):
    """The outer steps, eigenvalue, scans, assemblies and digest of one
    problem of the eigen family, and the call that the row times."""
    op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
    dom = Domain.ball(1.0)

    def run():
        return principal_eigenvalue(
            op, dom, RadialGrid.for_domain(dom, n, Grading.GRADED_AT_ORIGIN),
            sign, tol=1e-8)

    with counted() as counts:
        res = run()
    return ({"outer_iters": res.iterations, "lambda": res.lambda_value,
             **counts}, harness.digest(res.phi.values), run)


def main(argv=None):
    args = harness.arguments(__doc__, "BENCH_solve.json", argv)
    configs = list(harness.shipped(("solve", "verify")))
    solves = [solve_row(doc) for _, _, doc in configs]
    eigens = [eigen_row(*problem) for problem in EIGEN_FAMILY]
    runs, digests = {}, {}
    totals = {str(s): 0.0 for s in harness.SCALES}
    for (name, scale, doc), (row, sha, _), t in zip(
            configs, solves, harness.best_times([c for *_, c in solves])):
        run = f"{name}:n={doc['grid']['n']}"
        runs[run], digests[run] = dict(row, solve_s=t), sha
        totals[str(scale)] += t
        print(f"{run:30s} solve={t:.5f} s steps={row['steps']:3d}")
    for scale, total in totals.items():
        print(f"total x{scale}: solve={total:.4f} s")
    eigen_total = 0.0
    for (sign, alpha, n), (row, sha, _), t in zip(
            EIGEN_FAMILY, eigens, harness.best_times([c for *_, c in eigens])):
        run = f"eigen:{sign}:alpha={alpha:g}:n={n}"
        runs[run], digests[run] = dict(row, eigen_s=t), sha
        eigen_total += t
        print(f"{run:30s} eigen={t:.5f} s outer={row['outer_iters']:3d} "
              f"scans={row['scans']:3d} assemblies={row['assemblies']:3d} "
              f"lambda={row['lambda']:.7f}")
    print(f"total eigen: {eigen_total:.4f} s")
    harness.record(args.out, args.label, {
        "solve_s_by_scale": totals, "eigen_s": eigen_total, "runs": runs,
        "digests": digests})


if __name__ == "__main__":
    main()
