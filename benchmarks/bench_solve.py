"""Solve, eigen and CSV timings on the shipped configs and the benchmark's
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

Each row also times ``csv_s``: the ``to_csv`` of its profile (the
solution, or the eigenfunction), the file a ``solve``, ``verify`` or
``eigen`` request writes.  Each timed solve or eigen call builds its own
grid, as a CLI request does, so no call reuses mesh data that an earlier
call left on a grid.  A run's digests are the sha256 of its profile's
float64 bytes (``profile``) and of the bytes its ``to_csv`` writes
(``csv``).  How the calls are timed and how to record an entry pair:
README, "Benchmarks".

Usage: python3 benchmarks/bench_solve.py --label change
                                         [--out BENCH_solve.json]
"""

import harness  # first: it puts src on the path and pins BLAS threads

import os
import tempfile

import workloads  # perfbench's, on the path through harness

from radelliptic import _kernels, cli, eigen
from radelliptic.eigen import principal_eigenvalue
from radelliptic.grid import RadialGrid
from radelliptic.solver import solve_dirichlet

# perfbench's eigen workload: each request's config, by its run name
EIGEN_FAMILY = {req.label: req.doc for req in sorted(
    workloads.build("eigen", harness.ROOT, 0), key=lambda req: req.label)}


def csv_call(profile, path):
    """The sha256 of the bytes ``profile.to_csv`` writes to ``path``, and
    that call, which the row times as ``csv_s``."""
    def write():
        profile.to_csv(path)

    write()
    with open(path, "rb") as fh:
        return harness.digest(fh.read()), write


def solve_row(doc, path):
    """The step count and digests of one config's solution, the call that
    the row times as ``solve_s`` and its CSV call, which writes to
    ``path``."""
    op, dom, grid, f = cli._parse_problem(doc)

    def solve():
        sol = solve_dirichlet(op, dom, f, RadialGrid.for_domain(
            dom, grid.n, grid.grading))
        sol.residual_sup  # computed on first read; a solve request reads it
        return sol

    sol = solve()
    csv_sha, write = csv_call(sol.u, path)
    return ({"steps": sol.iterations},
            {"profile": harness.digest(sol.u.values), "csv": csv_sha},
            solve, write)


def eigen_row(doc, path):
    """The outer steps, eigenvalue, scans, assemblies and digests of one
    request ``doc`` of the eigen family, the call that the row times as
    ``eigen_s`` and its CSV call, which writes to ``path``."""
    op, dom, grid, _ = cli._parse_problem(doc)

    def run():
        return principal_eigenvalue(op, dom, RadialGrid.for_domain(
            dom, grid.n, grid.grading), **doc["eigen"])

    with harness.recorded((eigen, "solve_dirichlet"),
                          (_kernels, "assemble_system")) as made:
        res = run()
    solves = [call.result for call in made if call.fn is solve_dirichlet]
    csv_sha, write = csv_call(res.phi, path)
    return ({"outer_iters": res.iterations, "lambda": res.lambda_value,
             "scans": sum(sol.iterations for sol in solves),
             "assemblies": len(made) - len(solves)},
            {"profile": harness.digest(res.phi.values), "csv": csv_sha},
            run, write)


def main(argv=None):
    args = harness.arguments(__doc__, "BENCH_solve.json", argv)
    configs = list(harness.shipped(("solve", "verify")))
    with tempfile.TemporaryDirectory() as out_dir:
        path = os.path.join(out_dir, "profile.csv")
        solves = [solve_row(doc, path) for _, _, doc in configs]
        eigens = [eigen_row(doc, path) for doc in EIGEN_FAMILY.values()]
        rows = solves + eigens
        times = harness.best_times([row[2] for row in rows]
                                   + [row[3] for row in rows])
    call_s, csv_s = times[:len(rows)], times[len(rows):]
    runs, digests = {}, {}
    totals = {str(s): 0.0 for s in harness.SCALES}
    csv_totals = dict(totals)
    for (name, scale, doc), (row, shas, *_), t, t_csv in zip(
            configs, solves, call_s, csv_s):
        run = f"{name}:n={doc['grid']['n']}"
        runs[run], digests[run] = dict(row, solve_s=t, csv_s=t_csv), shas
        totals[str(scale)] += t
        csv_totals[str(scale)] += t_csv
        print(f"{run:30s} solve={t:.5f} s csv={t_csv:.5f} s "
              f"steps={row['steps']:3d}")
    for scale, total in totals.items():
        print(f"total x{scale}: solve={total:.4f} s "
              f"csv={csv_totals[scale]:.4f} s")
    eigen_total = eigen_csv_total = 0.0
    for run, (row, shas, *_), t, t_csv in zip(
            EIGEN_FAMILY, eigens, call_s[len(solves):], csv_s[len(solves):]):
        runs[run], digests[run] = dict(row, eigen_s=t, csv_s=t_csv), shas
        eigen_total += t
        eigen_csv_total += t_csv
        print(f"{run:30s} eigen={t:.5f} s csv={t_csv:.5f} s "
              f"outer={row['outer_iters']:3d} scans={row['scans']:3d} "
              f"assemblies={row['assemblies']:3d} lambda={row['lambda']:.7f}")
    print(f"total eigen: eigen={eigen_total:.4f} s "
          f"csv={eigen_csv_total:.4f} s")
    harness.record(args.out, args.label, {
        "solve_s_by_scale": totals, "csv_s_by_scale": csv_totals,
        "eigen_s": eigen_total, "eigen_csv_s": eigen_csv_total, "runs": runs,
        "digests": digests})


if __name__ == "__main__":
    main()
