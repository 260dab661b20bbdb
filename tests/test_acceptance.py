"""Acceptance suite: the package's headline quantitative claims.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (run with -s or see captured output on failure).
"""

import glob
import json
import math
import os

import numpy as np
import pytest

from radelliptic.analysis import (c1_bound_check, c1_modulus_report,
                                  check_viscosity, holder_exponent,
                                  verify_flux_inequalities)
from radelliptic.errors import InsufficientData, NotAZero
from radelliptic.grid import (DiscreteRadialFunction, Domain, DomainKind,
                              Grading, RadialGrid, interior_quotients)
from radelliptic.cli import main
from radelliptic.operators import (OperatorSpec, closed_form_alpha_laplacian,
                                   closed_form_pucci_power,
                                   pucci_power_profile)
from radelliptic.solver import SourceFunction, solve_dirichlet
from structure import TOLERANCE, h1_defect, h2_defect, jets

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def report_line(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, detail


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    op = OperatorSpec.from_json_dict(doc["operator"])
    dom = Domain.from_json_dict(doc["domain"])
    grid = RadialGrid.for_domain(dom, int(doc["grid"]["n"]),
                                 Grading(doc["grid"].get("grading", "Uniform")))
    f = SourceFunction.from_json_dict(doc["f"])
    return op, dom, grid, f


@pytest.fixture(scope="module")
def shipped():
    """Solved instances of every shipped solve/verify config."""
    cases = {}
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            if json.load(fh).get("command") != "verify":
                continue
        op, dom, grid, f = load_problem(path)
        sol = solve_dirichlet(op, dom, f, grid)
        name = os.path.splitext(os.path.basename(path))[0]
        cases[name] = (op, dom, grid, f, sol)
    assert cases, "no shipped configs found"
    return cases


def zero_candidates(dom, profile):
    nodes = profile.grid.nodes
    q, _ = interior_quotients(profile)
    out = [0.0] if dom.kind is DomainKind.BALL else []
    for k in np.nonzero(np.diff(np.sign(q)) != 0)[0]:
        out.append(float(nodes[1 + k]))
    return out


def test_criterion_1_closed_form_accuracy_and_rate():
    op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
    _, c = closed_form_pucci_power(op)
    exact = pucci_power_profile(op)
    dom = Domain.ball(1.0, bc_outer=float(exact(1.0)))
    errs = {}
    for n in (100, 200, 400):
        grid = RadialGrid.for_domain(dom, n, Grading.GRADED_AT_ORIGIN)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(c), grid)
        errs[n] = float(np.max(np.abs(sol.u.values - exact(grid.nodes))))
    rate = math.log2(errs[100] / errs[200])
    ok = errs[400] <= 5e-3 and rate >= 0.5
    report_line("criterion 1 (closed-form accuracy)", ok,
                f"sup error at n=400 is {errs[400]:.2e} (need <= 5e-3), "
                f"observed rate {rate:.2f} (need >= 0.5)")


@pytest.mark.parametrize("alpha", [-0.5, -0.75])
def test_criterion_1_negative_alpha_closed_form(alpha):
    # g' = (f r / N)^(1/(1+alpha)) vanishes at the origin with an exponent
    # above 1, so the scheme keeps its second order there
    op = OperatorSpec.alpha_laplacian(alpha, 2)
    exact = closed_form_alpha_laplacian(op, 2.0)
    dom = Domain.ball(1.0, bc_outer=float(exact(1.0)))
    errs = {}
    for n in (100, 200, 400):
        grid = RadialGrid.for_domain(dom, n, Grading.GRADED_AT_ORIGIN)
        sol = solve_dirichlet(op, dom, SourceFunction.constant(2.0), grid)
        errs[n] = float(np.max(np.abs(sol.u.values - exact(grid.nodes))))
    rates = [math.log2(errs[n] / errs[2 * n]) for n in (100, 200)]
    ok = errs[400] <= 1e-5 and min(rates) >= 1.9
    report_line(f"criterion 1 (closed-form accuracy, alpha={alpha:g})", ok,
                f"sup error at n=400 is {errs[400]:.2e} (need <= 1e-5), "
                f"observed rates {rates[0]:.3f}, {rates[1]:.3f} "
                f"(need >= 1.9)")


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 4.0])
def test_criterion_2_holder_exponent(alpha):
    op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
    _, c = closed_form_pucci_power(op)
    exact = pucci_power_profile(op)
    dom = Domain.ball(1.0, bc_outer=float(exact(1.0)))
    grid = RadialGrid.for_domain(dom, 400, Grading.GRADED_AT_ORIGIN)
    sol = solve_dirichlet(op, dom, SourceFunction.constant(c), grid)
    est = holder_exponent(sol, 0.0)
    target = 1.0 / (1.0 + alpha)
    rel = abs(est.beta_fit - target) / target
    report_line(f"criterion 2 (exponent fit, alpha={alpha:g})", rel <= 0.05,
                f"fitted {est.beta_fit:.4f} vs {target:.4f} "
                f"(relative error {rel:.2%}, need <= 5%)")


def test_criterion_3_flux_inequalities(shipped):
    failures = []
    for name, (op, dom, grid, f, sol) in shipped.items():
        rep = verify_flux_inequalities(sol, op, f)
        failures += [f"{name}:{c.name}" for c in rep.failures()
                     if c.binding]
    rng = np.random.default_rng(2024)
    for k in range(20):
        alpha = float(k % 2)
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
        dom = Domain.ball(1.0, bc_outer=float(rng.uniform(-1.0, 1.0)))
        grid = RadialGrid.for_domain(dom, 150, Grading.GRADED_AT_ORIGIN)
        base = rng.uniform(-3.0, 3.0)
        f = SourceFunction.tabulated(
            grid.nodes, base + rng.uniform(0.2, 1.5)
            * np.sin(rng.uniform(1.0, 5.0) * grid.nodes))
        sol = solve_dirichlet(op, dom, f, grid)
        rep = verify_flux_inequalities(sol, op, f)
        failures += [f"random{k}:{c.name}" for c in rep.failures()
                     if c.binding]
    report_line("criterion 3 (flux inequalities)", not failures,
                f"{len(failures)} binding failures over shipped + 20 random "
                f"configs {failures if failures else ''}")


def test_criterion_4_c1_right_bound(shipped):
    checked, failures = 0, []
    for name, (op, dom, grid, f, sol) in shipped.items():
        for r_star in zero_candidates(dom, sol.u):
            try:
                rep = c1_bound_check(sol, op, f, r_star)
            except NotAZero:
                continue
            checked += 1
            right = next(c for c in rep.checks if c.name == "right-bound")
            if not right.passed:
                failures.append(f"{name}@{r_star:g}")
    report_line("criterion 4 (C1 growth bound)", checked > 0 and not failures,
                f"right-side bound at {checked} derivative zeros, "
                f"failures: {failures if failures else 'none'}")


def test_criterion_5_comparison_pairs():
    rng = np.random.default_rng(7)
    ok_count = 0
    for k in range(20):
        alpha = float(k % 2)
        op = OperatorSpec.pucci_plus(alpha, 1.0, 2.0, 2)
        dom = Domain.ball(1.0, bc_outer=float(rng.uniform(-0.5, 0.5)))
        grid = RadialGrid.for_domain(dom, 100, Grading.GRADED_AT_ORIGIN)
        g_vals = (rng.uniform(-2.0, 2.0)
                  + rng.uniform(0.0, 1.0) * np.sin(rng.uniform(1.0, 6.0)
                                                   * grid.nodes))
        f_lo = SourceFunction.tabulated(grid.nodes, g_vals)
        f_hi = SourceFunction.tabulated(grid.nodes, g_vals + 0.1)
        hi = solve_dirichlet(op, dom, f_hi, grid)
        lo = solve_dirichlet(op, dom, f_lo, grid)
        # the larger forcing lies below, at every node
        if np.all(hi.u.values <= lo.u.values):
            ok_count += 1
    report_line("criterion 5 (comparison principle)", ok_count == 20,
                f"{ok_count}/20 seeded ordered pairs kept the ordering")


def test_criterion_6_derivative_number_interlacing(shipped):
    failures = []
    for name, (op, dom, grid, f, sol) in shipped.items():
        rep = c1_modulus_report(sol, alpha=op.alpha)
        failures += [f"{name}:{c.name}" for c in rep.failures()
                     if c.name.startswith("interlace")]
    report_line("criterion 6 (derivative-number interlacing)", not failures,
                f"failures: {failures if failures else 'none'}")


def test_criterion_7_viscosity(shipped):
    failures = []
    for name, (op, dom, grid, f, sol) in shipped.items():
        rep = check_viscosity(sol, op, f)
        failures += [f"{name}:{c.name}" for c in rep.failures()]

    # negative control: the steep cone w = 2r satisfies H[w] > |f|_inf
    # everywhere, so it is a strict subsolution and must be flagged as NOT
    # a supersolution
    op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
    grid = RadialGrid.for_domain(Domain.ball(1.0), 200)
    cone = DiscreteRadialFunction(grid, 2.0 * grid.nodes)
    rep = check_viscosity(cone, op, SourceFunction.constant(1.0))
    by_name = {c.name: c for c in rep.checks}
    control_ok = (not by_name["viscosity[supersolution]"].passed
                  and by_name["viscosity[subsolution]"].passed)
    report_line("criterion 7 (viscosity certification)",
                not failures and control_ok,
                f"shipped failures: {failures if failures else 'none'}; "
                f"negative control flagged as not a supersolution: {control_ok}")


@pytest.mark.parametrize("value", [3.0, -3.0])
@pytest.mark.parametrize("alpha", [-0.5, -0.75])
@pytest.mark.parametrize("variant", ["PucciPlus", "PucciMinus"])
def test_criterion_7_negative_alpha_verify(tmp_path, variant, alpha, value):
    doc = {"operator": {"variant": variant, "alpha": alpha, "a": 1.0,
                        "A": 2.0, "dim": 2},
           "domain": {"kind": "Ball", "R": 1.0, "bc_outer": 1.0},
           "grid": {"n": 200, "grading": "GradedAtOrigin"},
           "f": {"kind": "constant", "value": value}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["verify", "--config", str(cfg), "--out",
                 str(tmp_path / "out")])
    with open(tmp_path / "out" / "report.json", encoding="utf-8") as fh:
        failed = [c["name"] for c in json.load(fh)["checks"] if not c["pass"]]
    report_line(f"criterion 7 (verify, {variant} alpha={alpha:g} "
                f"f={value:g})", code == 0,
                f"exit {code}, failing rows: {failed if failed else 'none'}")


def test_criterion_8_eigenvalues():
    from radelliptic.eigen import principal_eigenvalue

    lap2 = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 2)
    lap1 = OperatorSpec.pucci_plus(0.0, 1.0, 1.0, 1)
    dom = Domain.ball(1.0)
    lam_disk = principal_eigenvalue(
        lap2, dom, RadialGrid.for_domain(dom, 400)).lambda_value
    lam_int = principal_eigenvalue(
        lap1, dom, RadialGrid.for_domain(dom, 400)).lambda_value
    rel_disk = abs(lam_disk - 5.7831859629) / 5.7831859629
    rel_int = abs(lam_int - math.pi ** 2 / 4.0) / (math.pi ** 2 / 4.0)

    op = OperatorSpec.pucci_plus(1.0, 1.0, 2.0, 2)
    lams = {}
    for R in (1.0, 2.0):
        d = Domain.ball(R)
        lams[R] = principal_eigenvalue(
            op, d, RadialGrid.for_domain(d, 200)).lambda_value
    ratio = lams[2.0] / lams[1.0]
    rel_dil = abs(ratio - 0.125) / 0.125

    ok = rel_disk <= 0.01 and rel_int <= 0.01 and rel_dil <= 0.02
    report_line("criterion 8 (principal eigenvalues)", ok,
                f"disk {lam_disk:.5f} ({rel_disk:.3%}), "
                f"interval {lam_int:.5f} ({rel_int:.3%}), "
                f"dilation ratio {ratio:.5f} ({rel_dil:.3%})")


def test_criterion_9_structure_hypotheses():
    variants = {
        "extremal-max": lambda alpha: OperatorSpec.pucci_plus(alpha, 1.0,
                                                              2.0, 3),
        "extremal-min": lambda alpha: OperatorSpec.pucci_minus(alpha, 1.0,
                                                               2.0, 3),
        "variational": lambda alpha: OperatorSpec.alpha_laplacian(alpha, 2),
        "trace-mix": lambda alpha: OperatorSpec.trace_normal_mix(alpha, 1.0,
                                                                 -0.5, 2),
    }
    alphas = [-0.75, -0.5, 0.5, 1.0, 1.5, 2.0, 40.0, 60.0, 100.0, 1e6]
    # (H1) and (H2) hold by construction, so verify does not check them;
    # the property tests' check, on seeded jets
    unit = np.random.default_rng(99).uniform(0.0, 1.0, (10_000, 8))
    bad = []
    for name, make_op in variants.items():
        for alpha in alphas:
            op = make_op(alpha)
            r, q, m, t, mu, s = jets(alpha, unit)
            defects = {"H1": h1_defect(op, r, q, m, t, mu),
                       "H2": h2_defect(op, r, q, m, s)}
            bad += [f"{name}:{alpha:g}:{h}" for h, d in defects.items()
                    if not np.max(d) <= TOLERANCE]
    report_line("criterion 9 (structure hypotheses)", not bad,
                f"4 operator variants x {len(alphas)} alphas x 10000 jets, "
                f"violations: {bad if bad else 'none'}")
