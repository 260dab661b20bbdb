"""Batch front-end: JSON experiment configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 1 config error or an output that cannot be
written, 2 no convergence (the shooting of an annulus did not close its
boundary mismatch, or its first flux or the profile overflowed, or the
eigenvalue iteration hit its step limit, lost positivity or met an
eigenvalue of 0 or past the float range), 3 a binding verification check
failed (reports are still written in that case).

The config schema is closed: a key outside it is a config error.  It
holds ``seed``, which configs carry though nothing is drawn at random.
Every command checks all keys, the values it reads and ``seed`` before
its first solve; the output directory is made only at the first write.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis
from .eigen import EigenSign, principal_eigenvalue
from .errors import (ConfigError, InsufficientData, NotAZero,
                     RadellipticError, config_number)
from .grid import Domain, Grading, RadialGrid
from .operators import OperatorSpec, validate_hypotheses
from .report import VerificationReport
from .solver import (EXPRESSION_CATALOGUE, SourceFunction, _node_forcing,
                     solve_dirichlet)

# never called; perfbench/tracing.py ``_targets`` wraps it (ROADMAP item 3)
comparison_oracle = None

# the keys each section may hold, the same for every command
_SECTION_KEYS = {
    "operator": [fd.name for fd in dataclasses.fields(OperatorSpec)],
    "domain": [fd.name for fd in dataclasses.fields(Domain)],
    "grid": ["n", "grading"],
    "eigen": ["sign", "tol"],
}
_SOURCE_KEYS = {"constant": ["kind", "value"], "tabulated": ["kind", "r", "v"],
                "expression": ["kind", "name", "params"]}
_TOP_KEYS = ["command", "seed", "f", *_SECTION_KEYS]


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except ValueError as exc:  # also an integer literal past int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("bad config: the config must be a JSON object")
    return doc


def _section(doc: dict, name: str, path: str = "") -> dict:
    """The object under key ``name``, {} when absent; ``path`` is its parent's."""
    opts = doc.get(name, {})
    if not isinstance(opts, dict):
        raise ConfigError(f"bad config: {path}{name} must be an object")
    return opts


def _known_keys(section: dict, known, path: str) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"bad config: unknown key {path}{key}")


def _check_keys(doc: dict) -> None:
    """Reject any key that no command reads, at every level."""
    _known_keys(doc, _TOP_KEYS, "")
    for name, known in _SECTION_KEYS.items():
        _known_keys(_section(doc, name), known, name + ".")
    # an unknown f.kind or f.name is left to SourceFunction to report
    f = _section(doc, "f")
    kind, name = f.get("kind"), f.get("name")
    if isinstance(kind, str) and kind in _SOURCE_KEYS:
        _known_keys(f, _SOURCE_KEYS[kind], "f.")
    if (kind == "expression" and isinstance(name, str)
            and name in EXPRESSION_CATALOGUE):
        _known_keys(_section(f, "params", "f."), EXPRESSION_CATALOGUE[name],
                    "f.params.")


def _from_section(doc: dict, name: str, build, default=None):
    """``build`` applied to the value under key ``name``, a section or a
    number, ``default`` when absent; a missing key is named by its dotted
    path, and any other error of ``build`` is a ``bad config``."""
    if name not in doc and default is None:
        raise ConfigError(f"bad config: missing key {name}")
    try:
        return build(doc.get(name, default))
    except KeyError as exc:
        raise ConfigError(f"bad config: missing key {name}.{exc.args[0]}")
    except (TypeError, ValueError, RadellipticError) as exc:
        raise ConfigError(f"bad config: {exc}")


def _parse_problem(doc: dict):
    """Operator, domain, grid and forcing of a config, after its keys are
    checked; its ``seed`` is checked last and read by no command."""
    _check_keys(doc)
    op = _from_section(doc, "operator", OperatorSpec.from_json_dict)
    dom = _from_section(doc, "domain", Domain.from_json_dict)

    def build_grid(grid_doc):
        n = config_number(grid_doc["n"], "grid.n", int, 16)
        grading = Grading(grid_doc.get("grading", "Uniform"))
        return RadialGrid.for_domain(dom, n, grading)

    grid = _from_section(doc, "grid", build_grid)
    f = _from_section(doc, "f", SourceFunction.from_json_dict,
                      {"kind": "constant", "value": 0.0})
    _from_section(doc, "seed",
                  lambda seed: config_number(seed, "seed", int, 0), 0)
    return op, dom, grid, f


def _parse_eigen_opts(doc: dict) -> dict:
    """The eigen section, checked before any solve."""
    opts = _section(doc, "eigen")
    try:
        sign = EigenSign(opts.get("sign", "Plus"))
    except ValueError:
        raise ConfigError(
            f"bad config: eigen.sign must be one of "
            f"{[s.value for s in EigenSign]}, got {opts.get('sign')!r}")
    return {"sign": sign,
            "tol": _from_section(opts, "tol", lambda tol: config_number(
                tol, "eigen.tol", float, 0.0, strict=True), 1e-8)}


def _outputs(out_dir: str):
    """Output file paths by name; ``out_dir`` is made at the first call."""
    make_dir = functools.cache(lambda: os.makedirs(out_dir, exist_ok=True))

    def path(name: str) -> str:
        make_dir()
        return os.path.join(out_dir, name)

    return path


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def cmd_solve(doc: dict, out) -> int:
    op, dom, grid, f = _parse_problem(doc)
    sol = solve_dirichlet(op, dom, f, grid)
    sol.u.to_csv(out("solution.csv"))
    _write_json(out("diagnostics.json"), sol.diagnostics_dict())
    return 0


def certify(sol, op: OperatorSpec, dom: Domain, fvals) -> VerificationReport:
    """The report of what ``verify`` runs after its solve ``sol`` of ``op``
    on ``dom`` (forcing ``fvals`` at the nodes): every check and the
    closed-form (H4) row when ``op`` sets ``nu`` and ``kappa``.  It makes
    no solve, and nothing in it is random; the scheme's comparison
    principle is proved in ``solver``."""
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

    report.extend(validate_hypotheses(op))
    return report


def cmd_verify(doc: dict, out) -> int:
    op, dom, grid, f = _parse_problem(doc)

    # the forcing is read at the nodes once; the solve and every check
    # take the node values
    fvals = _node_forcing(f, grid.nodes)
    sol = solve_dirichlet(op, dom, fvals, grid)
    sol.u.to_csv(out("solution.csv"))
    _write_json(out("diagnostics.json"), sol.diagnostics_dict())

    report = certify(sol, op, dom, fvals)
    report.to_json(out("report.json"))
    report.to_csv(out("report.csv"))
    return 3 if any(c.binding for c in report.failures()) else 0


def cmd_eigen(doc: dict, out) -> int:
    op, dom, grid, _ = _parse_problem(doc)
    res = principal_eigenvalue(op, dom, grid, **_parse_eigen_opts(doc))
    res.phi.to_csv(out("eigenfunction.csv"))
    _write_json(out("eigen.json"),
                {"lambda": res.lambda_value, "sign": res.sign.value,
                 "iterations": res.iterations,
                 "residual_sup": res.residual_sup})
    return 0


def cmd_study(doc: dict, out) -> int:
    op, dom, grid, f = _parse_problem(doc)
    base_n = grid.n
    grading = grid.grading
    solutions = {}
    for n in (base_n, 2 * base_n, 4 * base_n):
        g = RadialGrid.for_domain(dom, n, grading)
        solutions[n] = solve_dirichlet(op, dom, f, g)
    finest = solutions[4 * base_n].u
    errors = {}
    for n in (base_n, 2 * base_n):
        u = solutions[n].u
        errors[n] = float(np.max(np.abs(u.values - finest(u.grid.nodes))))
    # no rate where an error is exactly 0 (JSON has no infinity)
    rate = (math.log2(errors[base_n] / errors[2 * base_n])
            if min(errors.values()) > 0 else None)
    # no cell needs quoting: the bytes of csv.writer's rows
    text = "n,sup_error_vs_finest,rate\n%d,%.17g,%s\n%d,%.17g,\n" % (
        base_n, errors[base_n], "" if rate is None else "%.17g" % rate,
        2 * base_n, errors[2 * base_n])
    with open(out("study.csv"), "wb") as fh:
        fh.write(text.encode("utf-8"))
    _write_json(out("study.json"),
                {"n": base_n, "errors": {str(k): v for k, v in errors.items()},
                 "rate": rate})
    return 0


_COMMANDS = {"solve": cmd_solve, "verify": cmd_verify, "eigen": cmd_eigen,
             "study": cmd_study}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="radelliptic",
        description="Radial Dirichlet solver and certification suite for "
                    "degenerate elliptic equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        doc = _load_config(args.config)
        declared = doc.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command {declared!r}, invoked {args.command!r}")
        return _COMMANDS[args.command](doc, _outputs(args.out))
    except RadellipticError as exc:
        print(f"error: {exc.headline}{exc}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:  # _load_config made read errors ConfigErrors
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
