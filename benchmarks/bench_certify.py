"""Per-check certification timings on the shipped verify configs.

Each config whose ``command`` is ``verify`` is solved at n, 4n and 16n
(its shipped ``grid.n`` times the scale), and every certification check
that ``verify`` runs on that solution is timed on its own, with the
arguments ``verify`` gives it:

- ``verify_flux_inequalities`` (eqA-eqD),
- ``check_viscosity``,
- ``c1_modulus_report`` (derivative numbers),
- ``c1_bound_check`` and ``holder_exponent`` at every derivative-zero
  candidate, summed over the candidates.

The entry holds per-scale totals per check.  Each run's digests are the
sha256 of each check's result in JSON
(``json.dumps(report.as_dict(), sort_keys=True)``; for the checks run at
every derivative-zero candidate, the list of their results), so two
entries show whether two commits report the same.  How the checks are
timed and how to record an entry pair: README, "Benchmarks".

Usage: python3 benchmarks/bench_certify.py --label change
                                           [--out BENCH_certify.json]
"""

import dataclasses
import functools

import harness  # first: it puts src on the path and pins BLAS threads

from radelliptic import analysis
from radelliptic.errors import InsufficientData, NotAZero
from radelliptic.grid import Domain, RadialGrid
from radelliptic.operators import OperatorSpec
from radelliptic.solver import SourceFunction, solve_dirichlet

CHECKS = ("verify_flux_inequalities", "check_viscosity", "c1_modulus_report",
          "c1_bound_check", "holder_exponent")


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
    digests = {check: harness.digest(fns[0]().as_dict())
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
    digests["c1_bound_check"] = harness.digest(bounds)
    digests["holder_exponent"] = harness.digest(fits)
    return grid.n, calls, digests


def time_runs(docs):
    """For each config of ``docs``: its n, the seconds per call of each
    check (summed over the candidates) and the digests."""
    prepared = [prepare(doc) for doc in docs]
    times = iter(harness.best_times([fn for _, calls, _ in prepared
                                     for fns in calls.values()
                                     for fn in fns]))
    return [(n, {check: sum(next(times) for _ in fns)
                 for check, fns in calls.items()}, digests)
            for n, calls, digests in prepared]


def main(argv=None):
    args = harness.arguments(__doc__, "BENCH_certify.json", argv)
    configs = list(harness.shipped(("verify",)))
    runs, digests = {}, {}
    totals = {str(s): dict.fromkeys(CHECKS, 0.0) for s in harness.SCALES}
    for (name, scale, _), (n, times, run_digests) in zip(
            configs, time_runs([doc for _, _, doc in configs])):
        runs[f"{name}:n={n}"] = times
        digests[f"{name}:n={n}"] = run_digests
        for check, t in times.items():
            totals[str(scale)][check] += t
        print(f"{name:24s} n={n:5d} "
              + " ".join(f"{c}={t:.6f}" for c, t in times.items()))
    for scale, row in totals.items():
        print(f"total x{scale}: "
              + " ".join(f"{c}={t:.6f}" for c, t in row.items()))
    harness.record(args.out, args.label, {
        "totals_by_scale": totals, "runs": runs, "digests": digests})


if __name__ == "__main__":
    main()
