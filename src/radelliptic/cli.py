"""Batch front-end: JSON experiment configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 1 config error, 2 solver divergence, 3 a binding
verification check failed (reports are still written in that case), 4 the
converged linearization lost its monotone structure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import analysis
from .eigen import EigenSign, principal_eigenvalue
from .errors import (Diverged, InsufficientData, LostMonotonicity, NotAZero,
                     RadellipticError)
from .grid import (DiscreteRadialFunction, Domain, DomainKind, Grading,
                   RadialGrid, interior_quotients, lipschitz_constant)
from .operators import OperatorSpec, validate_hypotheses
from .report import VerificationReport
from .solver import (SolverParams, SourceFunction, comparison_oracle,
                     solve_dirichlet)

# advisory checks never gate the exit status: alternate constant readings
# carried for reference alongside the binding one
_ADVISORY_MARKERS = ("[tight]", "machin")


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _parse_problem(doc: dict):
    try:
        op = OperatorSpec.from_json_dict(doc["operator"])
        dom = Domain.from_json_dict(doc["domain"])
        grid_doc = doc["grid"]
        n = int(grid_doc["n"])
        if n < 16:
            raise ConfigError("n must be >= 16")
        grading = Grading(grid_doc.get("grading", "Uniform"))
        grid = RadialGrid.for_domain(dom, n, grading)
        f = SourceFunction.from_json_dict(doc.get("f", {"kind": "constant",
                                                        "value": 0.0}))
        params = SolverParams.from_json_dict(doc.get("params", {}))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, RadellipticError) as exc:
        raise ConfigError(f"bad config: {exc}")
    return op, dom, grid, f, params


def _seed(doc: dict) -> int:
    env = os.environ.get("RDL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError("RDL_SEED must be an integer")
    return int(doc.get("seed", 0))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=lambda o: o.item() if isinstance(o, np.generic) else str(o))
        fh.write("\n")


def _derivative_zero_candidates(dom: Domain, profile: DiscreteRadialFunction):
    nodes = profile.grid.nodes
    q, _ = interior_quotients(profile)
    candidates = []
    if dom.kind is DomainKind.BALL:
        candidates.append(0.0)
    flips = np.nonzero(np.diff(np.sign(q)) != 0)[0]
    for k in flips:
        candidates.append(float(nodes[1 + k]))
    return candidates


def cmd_solve(doc: dict, out_dir: str) -> int:
    op, dom, grid, f, params = _parse_problem(doc)
    sol = solve_dirichlet(op, dom, f, grid, params)
    sol.u.to_csv(os.path.join(out_dir, "solution.csv"))
    _write_json(os.path.join(out_dir, "diagnostics.json"),
                sol.diagnostics_dict())
    return 0


def cmd_verify(doc: dict, out_dir: str) -> int:
    op, dom, grid, f, params = _parse_problem(doc)
    opts = doc.get("verify_opts", {})
    seed = _seed(doc)

    sol = solve_dirichlet(op, dom, f, grid, params)
    sol.u.to_csv(os.path.join(out_dir, "solution.csv"))
    _write_json(os.path.join(out_dir, "diagnostics.json"),
                sol.diagnostics_dict())

    lip = lipschitz_constant(sol.u)
    threshold = opts.get("threshold")
    if threshold is None:
        threshold = max(10.0 * sol.eps_final, grid.max_spacing) * (1.0 + lip)
    decades = float(opts.get("decades", 1.5))
    slopes = int(opts.get("slopes", 17))
    curvatures = int(opts.get("curvatures", 9))

    report = VerificationReport(
        tolerance_model="per-check; see module documentation")
    report.extend(analysis.verify_flux_inequalities(sol, op, f, threshold))
    report.extend(analysis.check_viscosity(sol, op, f, slopes, curvatures))
    report.extend(analysis.c1_modulus_report(sol, alpha=op.alpha))

    h = grid.max_spacing
    beta_target = 1.0 / (1.0 + op.alpha)
    for r_star in _derivative_zero_candidates(dom, sol.u):
        try:
            report.extend(analysis.c1_bound_check(sol, op, f, r_star))
            est = analysis.holder_exponent(sol, r_star, decades)
            report.add("holder-fit", est.r_star,
                       0.05 * beta_target - abs(est.beta_fit - beta_target),
                       0.0)
        except (NotAZero, InsufficientData):
            continue

    report.extend(validate_hypotheses(op, 2000, seed))

    # comparison spot-check: lowering the forcing must raise the solution
    shift = 0.1 * max(1.0, float(np.max(np.abs(f(grid.nodes)))))
    f_low = SourceFunction.tabulated(grid.nodes,
                                     np.asarray(f(grid.nodes)) - shift)
    sol_low = solve_dirichlet(op, dom, f_low, grid, params)
    report.extend(comparison_oracle(sol, sol_low, op, f, f_low))

    report.to_json(os.path.join(out_dir, "report.json"))
    report.to_csv(os.path.join(out_dir, "report.csv"))
    binding_failures = [c for c in report.failures()
                        if not any(m in c.name for m in _ADVISORY_MARKERS)]
    return 3 if binding_failures else 0


def cmd_eigen(doc: dict, out_dir: str) -> int:
    op, dom, grid, _, params = _parse_problem(doc)
    eig_opts = doc.get("eigen", {})
    sign = EigenSign(eig_opts.get("sign", "Plus"))
    tol = float(eig_opts.get("tol", 1e-8))
    max_outer = int(eig_opts.get("max_outer", 80))
    res = principal_eigenvalue(op, dom, grid, sign=sign, tol=tol,
                               max_outer=max_outer, params=params,
                               seed=_seed(doc))
    res.phi.to_csv(os.path.join(out_dir, "eigenfunction.csv"))
    _write_json(os.path.join(out_dir, "eigen.json"),
                {"lambda": res.lambda_value, "sign": res.sign.value,
                 "iterations": res.iterations,
                 "residual_sup": res.residual_sup})
    return 0


def cmd_study(doc: dict, out_dir: str) -> int:
    op, dom, grid, f, params = _parse_problem(doc)
    base_n = grid.n
    grading = grid.grading
    solutions = {}
    for n in (base_n, 2 * base_n, 4 * base_n):
        g = RadialGrid.for_domain(dom, n, grading)
        solutions[n] = solve_dirichlet(op, dom, f, g, params)
    finest = solutions[4 * base_n].u
    errors = {}
    for n in (base_n, 2 * base_n):
        u = solutions[n].u
        errors[n] = float(np.max(np.abs(u.values - finest(u.grid.nodes))))
    rate = (math.log2(errors[base_n] / errors[2 * base_n])
            if errors[2 * base_n] > 0 else math.inf)
    with open(os.path.join(out_dir, "study.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "sup_error_vs_finest", "rate"])
        writer.writerow([base_n, "%.17g" % errors[base_n], "%.17g" % rate])
        writer.writerow([2 * base_n, "%.17g" % errors[2 * base_n], ""])
    _write_json(os.path.join(out_dir, "study.json"),
                {"n": base_n, "errors": {str(k): v for k, v in errors.items()},
                 "rate": rate})
    return 0


_COMMANDS = {"solve": cmd_solve, "verify": cmd_verify, "eigen": cmd_eigen,
             "study": cmd_study}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="radelliptic",
        description="Radial Dirichlet solver and certification suite for "
                    "degenerate elliptic equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        doc = _load_config(args.config)
        declared = doc.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command {declared!r}, invoked {args.command!r}")
        out_dir = args.out or doc.get("output_dir", ".")
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](doc, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Diverged as exc:
        print(f"error: solver diverged: {exc}", file=sys.stderr)
        return 2
    except LostMonotonicity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RadellipticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
