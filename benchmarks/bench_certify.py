"""Per-check certification timings on the shipped verify configs.

Each config whose ``command`` is ``verify`` is solved at n, 4n and 16n
(its shipped ``grid.n`` times the scale), and every certification check
that ``verify`` runs on that solution is timed on its own, with the
arguments ``verify`` gives it (the forcing as its values at the nodes):

- ``verify_flux_inequalities`` (eqA-eqD),
- ``check_viscosity``,
- ``c1_modulus_report`` (derivative numbers),
- ``c1_bound_check`` and ``holder_exponent`` at every derivative-zero
  candidate, summed over the candidates,
- ``verify``: the whole certification that ``verify`` runs after its
  solve (``certify``): every check above, ``validate_hypotheses``, the
  comparison solve and ``comparison_oracle``, and the writing of
  report.json and report.csv.

Every timed call gets a new profile built from the solution's values
(``cold``), so a call pays for what it derives from the values, as the
first use of a request's profile does, and never reads what an earlier
call kept.  The profile's grid is the one the solve used, as in a request.

The entry holds per-scale totals per row.  Each run's digests are the
sha256 of each check's result in JSON
(``json.dumps(report.as_dict(), sort_keys=True)``; for the checks run at
every derivative-zero candidate, the list of their results; for
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

import numpy as np

from radelliptic import analysis
from radelliptic.errors import InsufficientData, NotAZero
from radelliptic.grid import DiscreteRadialFunction, Domain, RadialGrid
from radelliptic.operators import OperatorSpec, validate_hypotheses
from radelliptic.report import VerificationReport
from radelliptic.solver import (Solution, SourceFunction, _node_forcing,
                                solve_dirichlet)

CHECKS = ("verify_flux_inequalities", "check_viscosity", "c1_modulus_report",
          "c1_bound_check", "holder_exponent")
ROWS = CHECKS + ("verify",)


def cold(sol):
    """``sol`` with a new profile of the same values on the same grid."""
    return Solution(DiscreteRadialFunction(sol.u.grid, sol.u.values),
                    sol.residual_sup, sol.iterations, sol.shooting_steps)


def on_cold(fn, sol, *args, **kwargs):
    """``fn`` applied to ``cold(sol)``, a profile no earlier call used."""
    return fn(cold(sol), *args, **kwargs)


def certify(sol, op, dom, fvals, seed, out_dir):
    """What ``verify`` runs after its solve, in its order: the checks,
    the hypotheses, the comparison spot-check, and report.json and
    report.csv written to ``out_dir``."""
    report = VerificationReport()
    report.extend(analysis.verify_flux_inequalities(sol, op, fvals))
    report.extend(analysis.check_viscosity(sol, op, fvals))
    report.extend(analysis.c1_modulus_report(sol, alpha=op.alpha))
    beta_target = 1.0 / (1.0 + op.alpha)
    for r_star in analysis.derivative_zero_candidates(sol.u, dom):
        try:
            report.extend(analysis.c1_bound_check(sol, op, fvals, r_star))
            est = analysis.holder_exponent(sol, r_star)
            report.add("holder-fit", est.r_star,
                       -abs(est.beta_fit - beta_target), 0.05 * beta_target)
        except (NotAZero, InsufficientData):
            continue
    report.extend(validate_hypotheses(op, 2000, seed))
    f_low = fvals - 0.1 * max(1.0, float(np.max(np.abs(fvals))))
    sol_low = solve_dirichlet(op, dom, f_low, sol.u.grid)
    report.extend(analysis.comparison_oracle(sol, sol_low, op, fvals, f_low))
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
    """Solve ``doc``.  Returns its n, the calls that make each row on the
    solution (one per derivative-zero candidate for ``c1_bound_check`` and
    ``holder_exponent``), each on a cold profile, and the digest of each
    row's result.  ``verify`` writes its reports to ``out_dir``."""
    op = OperatorSpec.from_json_dict(doc["operator"])
    dom = Domain.from_json_dict(doc["domain"])
    grid = RadialGrid.for_domain(dom, doc["grid"]["n"], doc["grid"]["grading"])
    fvals = _node_forcing(SourceFunction.from_json_dict(doc["f"]), grid.nodes)
    sol = solve_dirichlet(op, dom, fvals, grid)
    sol.residual_sup  # computed once, as verify's diagnostics.json does
    call = functools.partial
    calls = {
        "verify_flux_inequalities": [
            call(on_cold, analysis.verify_flux_inequalities, sol, op, fvals)],
        "check_viscosity": [
            call(on_cold, analysis.check_viscosity, sol, op, fvals)],
        "c1_modulus_report": [
            call(on_cold, analysis.c1_modulus_report, sol, alpha=op.alpha)],
        "c1_bound_check": [],
        "holder_exponent": [],
        "verify": [call(on_cold, certify, sol, op, dom, fvals,
                        doc.get("seed", 0), out_dir)],
    }
    digests = {row: harness.digest(calls[row][0]().as_dict())
               for row in ("verify_flux_inequalities", "check_viscosity",
                           "c1_modulus_report")}
    calls["verify"][0]()
    digests["verify"] = harness.digest(report_texts(out_dir))
    bounds, fits = [], []
    for r_star in analysis.derivative_zero_candidates(sol.u, dom):
        try:
            bound = analysis.c1_bound_check(sol, op, fvals, r_star)
            fit = analysis.holder_exponent(sol, r_star)
        except (NotAZero, InsufficientData):
            continue
        bounds.append(bound.as_dict())
        fits.append(dataclasses.asdict(fit))
        calls["c1_bound_check"].append(call(
            on_cold, analysis.c1_bound_check, sol, op, fvals, r_star))
        calls["holder_exponent"].append(call(
            on_cold, analysis.holder_exponent, sol, r_star))
    digests["c1_bound_check"] = harness.digest(bounds)
    digests["holder_exponent"] = harness.digest(fits)
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
