"""The benchmark's workloads: CLI request lists and the checks on their outputs.

Each workload is a list of ``radelliptic`` CLI requests built from the
shipped configs in ``configs/`` (with ``grid.n`` scaled) or, for ``eigen``,
from a fixed family of eigenproblems.  The workload seed goes into every
config's ``seed`` field and sets the order of the requests.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

# the README's recovery claim for the closed-form power profiles
ERR_LIMIT = 5e-3
# the acceptance suite's eigenvalue agreement
LAMBDA_GAP_LIMIT = 0.01

FIVE_CONFIGS = ("pucci_power_ball", "pucci_minus_ball", "trace_mix_ball",
                "alpha_laplacian_annulus", "laplacian_ball")

WHY = {
    "verify-fine": "verify at 4x shipped n on five configs: certification-heavy, Newton with "
                   "no fallback; of a ~2.1 s pass at seed check_viscosity ~67%, flux check "
                   "~13%, solve ~21%",
    "verify-degenerate": "verify at shipped n on pucci_alpha2_ball and pucci_minus_ball: "
                         "globalization-heavy; solve ~93% of a ~3.8 s pass at seed, "
                         "fallback ~2.9 s, ~57 assemblies per Newton step",
    "solve-fine": "solve at 16x shipped n (3200-6400) on five configs: per-Newton-step "
                  "cost, assembly plus sparse solve ~52% of a ~0.5 s pass at seed; no "
                  "certification, no fallback",
    "eigen": "12 eigen requests (Plus/Minus, alpha -0.5/0/1, n 400/1600): many short "
             "warm-started solves of 0.03-0.13 s where per-solve set-up dominates; the "
             "only alpha < 0",
}

# Known defects at the time the benchmark was defined.  A request that
# fails only the eigenvalue agreement check on one of these problems counts
# in ``failed`` and in the accuracy metrics, but does not make the run
# incorrect; any other failure does.
KNOWN_DEFECTS = {
    "eigen:Plus:alpha=-0.5": "lambda 5.8425 at n=400 against 6.0989 at n=1600 "
                             "(gap 4.2% of the n=1600 value); lambda_history "
                             "cycles and residual_sup is 3.3 and 18.8",
}

EXPECTED_FILES = {
    "solve": ("solution.csv", "diagnostics.json"),
    "verify": ("solution.csv", "diagnostics.json", "report.json", "report.csv"),
    "eigen": ("eigenfunction.csv", "eigen.json"),
}


@dataclass
class Request:
    label: str
    command: str
    doc: dict
    reference: str | None = None  # shipped config name with a closed form
    pair: str | None = None       # eigen problem key shared by its two grids


def _shipped(root: str, name: str, command: str, scale: int, seed: int) -> Request:
    with open(os.path.join(root, "configs", name + ".json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["command"] = command
    doc["grid"]["n"] = int(doc["grid"]["n"]) * scale
    doc["seed"] = seed
    ref = None if name == "trace_mix_ball" else name
    return Request(f"{command}:{name}:n={doc['grid']['n']}", command, doc, ref)


def _eigen(sign: str, alpha: float, n: int, seed: int) -> Request:
    doc = {
        "command": "eigen",
        "operator": {"variant": "PucciPlus", "alpha": alpha, "a": 1.0, "A": 2.0,
                     "dim": 2},
        "domain": {"kind": "Ball", "R": 1.0},
        "grid": {"n": n, "grading": "GradedAtOrigin"},
        "eigen": {"sign": sign, "tol": 1e-8},
        "seed": seed,
    }
    key = f"eigen:{sign}:alpha={alpha:g}"
    return Request(f"{key}:n={n}", "eigen", doc, pair=key)


def build(name: str, root: str, seed: int) -> list[Request]:
    if name == "verify-fine":
        reqs = [_shipped(root, c, "verify", 4, seed) for c in FIVE_CONFIGS]
    elif name == "verify-degenerate":
        reqs = [_shipped(root, c, "verify", 1, seed)
                for c in ("pucci_alpha2_ball", "pucci_minus_ball")]
    elif name == "solve-fine":
        reqs = [_shipped(root, c, "solve", 16, seed) for c in FIVE_CONFIGS]
    elif name == "eigen":
        reqs = [_eigen(sign, alpha, n, seed) for sign in ("Plus", "Minus")
                for alpha in (-0.5, 0.0, 1.0) for n in (400, 1600)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(reqs)
    return reqs


def reference_profile(req: Request):
    """Closed-form solution of a shipped config, from the package's own functions."""
    from radelliptic.operators import (OperatorSpec, closed_form_alpha_laplacian,
                                       pucci_power_profile)

    op = OperatorSpec.from_json_dict(req.doc["operator"])
    if req.reference in ("pucci_power_ball", "pucci_alpha2_ball", "laplacian_ball"):
        return pucci_power_profile(op)
    if req.reference == "pucci_minus_ball":
        plus = pucci_power_profile(op.dual())
        return lambda r: -plus(r)
    if req.reference == "alpha_laplacian_annulus":
        return closed_form_alpha_laplacian(op, float(req.doc["f"]["value"]))
    return None


@dataclass
class Outcome:
    label: str
    wall_s: float
    ok: bool = True
    reason: str = ""
    known_defect: bool = False
    err_sup: float | None = None
    lam: float | None = None
    io_bytes: int = 0
    speed: float = 1.0        # host speed factor while the request ran
    span: dict | None = None  # traced passes: wall, covered and self times

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reason = self.reason or reason


def check(req: Request, code, exc, out_dir: str, outcome: Outcome, reference) -> None:
    """Check one request's exit status and the files it is documented to write."""
    if exc is not None:
        outcome.fail(f"raised {type(exc).__name__}: {exc}")
        return
    if code != 0:
        outcome.fail(f"exit code {code}")
        return
    for fname in EXPECTED_FILES[req.command]:
        path = os.path.join(out_dir, fname)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            outcome.fail(f"missing {fname}")
            return
        outcome.io_bytes += os.path.getsize(path)
    if req.command == "eigen":
        with open(os.path.join(out_dir, "eigen.json"), encoding="utf-8") as fh:
            lam = json.load(fh)["lambda"]
        if isinstance(lam, float) and math.isfinite(lam) and lam > 0:
            outcome.lam = lam
        else:
            outcome.fail(f"lambda {lam!r} is not a positive number")
        return
    with open(os.path.join(out_dir, "diagnostics.json"), encoding="utf-8") as fh:
        if json.load(fh).get("converged") is not True:
            outcome.fail("diagnostics.json does not report convergence")
    if req.command == "verify":
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            if not json.load(fh).get("checks"):
                outcome.fail("report.json holds no checks")
    if reference is not None:
        rows = np.loadtxt(os.path.join(out_dir, "solution.csv"), delimiter=",",
                          skiprows=1, ndmin=2)
        err = float(np.max(np.abs(rows[:, 1] - reference(rows[:, 0]))))
        outcome.err_sup = err
        if not err <= ERR_LIMIT:
            outcome.fail(f"sup error {err:.3e} above {ERR_LIMIT:g}")


def check_pairs(reqs: list[Request], outcomes: list[Outcome]) -> float | None:
    """Mark eigen pairs whose n=400 and n=1600 eigenvalues disagree; return the largest gap."""
    by_key: dict[str, dict[int, Outcome]] = {}
    for req, out in zip(reqs, outcomes):
        if req.pair is not None and out.lam is not None:
            by_key.setdefault(req.pair, {})[req.doc["grid"]["n"]] = out
    worst = None
    for key, grids in by_key.items():
        if set(grids) != {400, 1600}:
            continue
        gap = abs(grids[400].lam - grids[1600].lam) / grids[1600].lam
        worst = gap if worst is None else max(worst, gap)
        if gap > LAMBDA_GAP_LIMIT:
            for out in grids.values():
                if out.ok:
                    out.known_defect = key in KNOWN_DEFECTS
                out.fail(f"lambda gap {gap:.2%} between n=400 and n=1600 "
                         f"above {LAMBDA_GAP_LIMIT:.0%}")
    return worst
