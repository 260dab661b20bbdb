"""Solve and eigen timings on the shipped configs and the benchmark's
eigen family.

The script times two kinds of rows:

- for each config whose ``command`` is ``solve`` or ``verify``, at n, 4n
  and 16n (its shipped ``grid.n`` times the scale): ``solve_dirichlet``
  and the reading of its ``residual_sup``, which a ``solve`` request
  writes.  The row holds the solver's step count (``Solution.iterations``:
  affine scans of the flux solver);
- for each request of perfbench's ``eigen`` workload (PucciPlus a=1, A=2,
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

import harness  # first: it puts src on the path and pins BLAS threads

import workloads  # perfbench's, on the path through harness

from radelliptic import _kernels, cli, eigen
from radelliptic.eigen import principal_eigenvalue
from radelliptic.grid import RadialGrid
from radelliptic.solver import solve_dirichlet

# perfbench's eigen workload: each request's config, by its run name
EIGEN_FAMILY = {req.label: req.doc for req in sorted(
    workloads.build("eigen", harness.ROOT, 0), key=lambda req: req.label)}


def solve_row(doc):
    """The step count and digest of one config's solution, and the call
    that the row times."""
    op, dom, grid, f = cli._parse_problem(doc)

    def solve():
        sol = solve_dirichlet(op, dom, f, RadialGrid.for_domain(
            dom, grid.n, grid.grading))
        sol.residual_sup  # computed on first read; a solve request reads it
        return sol

    sol = solve()
    return {"steps": sol.iterations}, harness.digest(sol.u.values), solve


def eigen_row(doc):
    """The outer steps, eigenvalue, scans, assemblies and digest of one
    request ``doc`` of the eigen family, and the call that the row times."""
    op, dom, grid, _ = cli._parse_problem(doc)

    def run():
        return principal_eigenvalue(op, dom, RadialGrid.for_domain(
            dom, grid.n, grid.grading), **doc["eigen"])

    with harness.recorded((eigen, "solve_dirichlet"),
                          (_kernels, "assemble_system")) as made:
        res = run()
    solves = [call.result for call in made if call.fn is solve_dirichlet]
    return ({"outer_iters": res.iterations, "lambda": res.lambda_value,
             "scans": sum(sol.iterations for sol in solves),
             "assemblies": len(made) - len(solves)},
            harness.digest(res.phi.values), run)


def main(argv=None):
    args = harness.arguments(__doc__, "BENCH_solve.json", argv)
    configs = list(harness.shipped(("solve", "verify")))
    solves = [solve_row(doc) for _, _, doc in configs]
    eigens = [eigen_row(doc) for doc in EIGEN_FAMILY.values()]
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
    for run, (row, sha, _), t in zip(
            EIGEN_FAMILY, eigens, harness.best_times([c for *_, c in eigens])):
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
