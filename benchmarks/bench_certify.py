"""Per-check certification timings on the shipped verify configs.

Each config whose ``command`` is ``verify`` is solved at n, 4n and 16n
(its shipped ``grid.n`` times the scale), and ``verify``'s certification
is run once on that solution with the calls of the checks in ``CHECKS``
recorded.  Each row times the calls recorded for it, each on its own,
with the arguments ``verify`` gave it:

- ``verify_flux_inequalities`` (eqA-eqD),
- ``check_viscosity``,
- ``c1_modulus_report`` (derivative numbers),
- ``c1_bound_check`` and ``holder_exponent``: every call that returned, at
  the derivative-zero candidates, summed over the calls,
- ``verify``: the whole certification that ``verify`` runs after its
  solve, ``cli.certify`` (every check above, ``validate_hypotheses``, the
  comparison solve and ``comparison_oracle``), and the writing of
  report.json and report.csv.  The row calls the routine ``verify``
  calls, so a copy of this script inside an older checkout whose ``cli``
  has no ``certify`` cannot time that checkout.

Every timed call gets a new profile built from the solution's values
(``cold``), so a call pays for what it derives from the values, as the
first use of a request's profile does, and never reads what an earlier
call kept.  The profile's grid is the one the solve used, as in a request.

The entry holds per-scale totals per row.  Each run's digests are the
sha256 of each check's recorded result in JSON
(``json.dumps(report.as_dict(), sort_keys=True)``; for the checks run at
the derivative-zero candidates, the list of their results; for
``verify``, the text of report.json and report.csv), so two entries show
whether two commits report the same.  How the rows are timed and how to
record an entry pair: README, "Benchmarks".

Usage: python3 benchmarks/bench_certify.py --label change
                                           [--out BENCH_certify.json]
"""

import dataclasses
import functools
import os
import tempfile

import harness  # first: it puts src on the path and pins BLAS threads

from radelliptic import analysis, cli
from radelliptic.grid import DiscreteRadialFunction
from radelliptic.report import VerificationReport
from radelliptic.solver import Solution, _node_forcing, solve_dirichlet

CHECKS = ("verify_flux_inequalities", "check_viscosity", "c1_modulus_report",
          "c1_bound_check", "holder_exponent")
PER_CANDIDATE = ("c1_bound_check", "holder_exponent")
ROWS = CHECKS + ("verify",)


def cold(sol):
    """``sol`` with a new profile of the same values on the same grid."""
    return Solution(DiscreteRadialFunction(sol.u.grid, sol.u.values),
                    sol.residual_sup, sol.iterations, sol.shooting_steps)


def on_cold(fn, sol, *args, **kwargs):
    """``fn`` applied to ``cold(sol)``, a profile no earlier call used."""
    return fn(cold(sol), *args, **kwargs)


def verify(sol, op, dom, fvals, seed, out_dir):
    """What ``verify`` runs after its solve: ``cli.certify``, and
    report.json and report.csv written to ``out_dir``."""
    report = cli.certify(sol, op, dom, fvals, seed)
    report.to_json(os.path.join(out_dir, "report.json"))
    report.to_csv(os.path.join(out_dir, "report.csv"))


def report_texts(out_dir):
    """The text of report.json and report.csv in ``out_dir``."""
    texts = []
    for name in ("report.json", "report.csv"):
        with open(os.path.join(out_dir, name), encoding="utf-8",
                  newline="") as fh:
            texts.append(fh.read())
    return texts


def prepare(doc, out_dir):
    """Solve ``doc`` and run ``verify``'s certification on the solution
    with the calls of ``CHECKS`` recorded.  Returns its n, the calls that
    make each row (the recorded ones, and ``verify`` itself), each on a
    cold profile, and the digest of each row's result.  ``verify`` writes
    its reports to ``out_dir``."""
    op, dom, grid, f = cli._parse_problem(doc)
    fvals = _node_forcing(f, grid.nodes)
    sol = solve_dirichlet(op, dom, fvals, grid)
    sol.residual_sup  # computed once, as verify's diagnostics.json does
    run = functools.partial(on_cold, verify, sol, op, dom, fvals,
                            doc.get("seed", 0), out_dir)
    with harness.recorded(*[(analysis, check) for check in CHECKS]) as made:
        run()
    calls = {check: [] for check in CHECKS}
    results = {check: [] for check in CHECKS}
    for fn, args, kwargs, result in made:
        calls[fn.__name__].append(
            functools.partial(on_cold, fn, *args, **kwargs))
        results[fn.__name__].append(
            result.as_dict() if isinstance(result, VerificationReport)
            else dataclasses.asdict(result))  # holder_exponent's estimate
    calls["verify"] = [run]
    digests = {check: harness.digest(
        found if check in PER_CANDIDATE else found[0])
        for check, found in results.items()}
    digests["verify"] = harness.digest(report_texts(out_dir))
    return grid.n, calls, digests


def time_runs(docs):
    """For each config of ``docs``: its n, the seconds per call of each
    row (summed over the candidates) and the digests."""
    with tempfile.TemporaryDirectory() as out_dir:
        prepared = [prepare(doc, out_dir) for doc in docs]
        times = iter(harness.best_times([fn for _, calls, _ in prepared
                                         for fns in calls.values()
                                         for fn in fns]))
    return [(n, {row: sum(next(times) for _ in fns)
                 for row, fns in calls.items()}, digests)
            for n, calls, digests in prepared]


def main(argv=None):
    args = harness.arguments(__doc__, "BENCH_certify.json", argv)
    configs = list(harness.shipped(("verify",)))
    runs, digests = {}, {}
    totals = {str(s): dict.fromkeys(ROWS, 0.0) for s in harness.SCALES}
    for (name, scale, _), (n, times, run_digests) in zip(
            configs, time_runs([doc for _, _, doc in configs])):
        runs[f"{name}:n={n}"] = times
        digests[f"{name}:n={n}"] = run_digests
        for row, t in times.items():
            totals[str(scale)][row] += t
        print(f"{name:24s} n={n:5d} "
              + " ".join(f"{r}={t:.6f}" for r, t in times.items()))
    for scale, row in totals.items():
        print(f"total x{scale}: "
              + " ".join(f"{r}={t:.6f}" for r, t in row.items()))
    harness.record(args.out, args.label, {
        "totals_by_scale": totals, "runs": runs, "digests": digests})


if __name__ == "__main__":
    main()
