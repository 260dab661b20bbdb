"""A seeded smoke sweep of the command line over the documented range.

Each drawn config is valid: one of the four variants, alpha > -1 up to
200, dim 1-12, a ball or an annulus, constant (down to 1e-200 and up to
1e200), tabulated or catalogue forcing, and one of the four commands.
Every run must end in one of two ways: exit 0 (or 3 for ``verify``) with
empty stderr and all of the command's files, or exit 2 with exactly one
``error:`` line.  No other exception may escape ``cli.main`` and no
RuntimeWarning may be raised.
"""

import json

import numpy as np
import pytest

from radelliptic.cli import main

SEED = 5
CASES = 300

VARIANTS = ("PucciPlus", "PucciMinus", "AlphaLaplacian", "TraceNormalMix")
ALPHAS = (-0.99, -0.9, -0.5, 0.0, 0.5, 1.0, 3.0, 10.0, 40.0, 100.0, 200.0)
DIMS = (1, 2, 3, 4, 6, 12)
BALL_RADII = (1e-3, 1.0, 1e3)
ANNULUS_HOLES = (1e-6, 1e-3, 0.1, 0.5, 0.9)
CONSTANTS = (0.0, 1.0, -3.0, 1e-200, -1e-200, 1e200)
SIZES = (16, 40)
FILES = {"solve": {"solution.csv", "diagnostics.json"},
         "verify": {"solution.csv", "diagnostics.json", "report.json",
                    "report.csv"},
         "eigen": {"eigenfunction.csv", "eigen.json"},
         "study": {"study.csv", "study.json"}}


def draw_config(rng):
    """One valid config, its ``command`` set; ``eigen`` gets zero data."""
    command = str(rng.choice(list(FILES)))
    variant = str(rng.choice(VARIANTS))
    operator = {"variant": variant, "alpha": float(rng.choice(ALPHAS)),
                "dim": int(rng.choice(DIMS))}
    if variant.startswith("Pucci"):
        a = float(rng.uniform(0.5, 1.0))
        operator.update(a=a, A=a * float(rng.uniform(1.0, 3.0)))
    elif variant == "TraceNormalMix":
        p1 = float(rng.uniform(0.5, 1.5))
        operator.update(p1=p1, p2=p1 * float(rng.uniform(-0.9, 1.0)))

    def data():
        return 0.0 if command == "eigen" else float(rng.uniform(-1.0, 1.0))

    if rng.random() < 0.5:
        R1, R = 0.0, float(rng.choice(BALL_RADII))
        domain = {"kind": "Ball", "R": R, "bc_outer": data()}
    else:
        R1, R = float(rng.choice(ANNULUS_HOLES)), 1.0
        domain = {"kind": "Annulus", "R1": R1, "R": R, "bc_inner": data(),
                  "bc_outer": data()}

    kind = rng.integers(5)
    if kind == 0:
        f = {"kind": "constant", "value": float(rng.choice(CONSTANTS))}
    elif kind == 1:
        r = np.sort(rng.uniform(R1, R, int(rng.integers(1, 5))))
        f = {"kind": "tabulated", "r": r.tolist(),
             "v": rng.uniform(-3.0, 3.0, len(r)).tolist()}
    else:
        name = ("step", "sine", "power")[kind - 2]
        params = {"step": {"r0": float(rng.uniform(R1, R)),
                           "width": 0.1 * (R - R1)},
                  "sine": {"amplitude": float(rng.uniform(-3.0, 3.0)),
                           "frequency": float(rng.uniform(0.5, 6.0)) / R},
                  "power": {"coef": float(rng.uniform(-3.0, 3.0)),
                            "exponent": float(rng.uniform(0.0, 3.0))}}[name]
        f = {"kind": "expression", "name": name, "params": params}

    return {"command": command, "operator": operator, "domain": domain,
            "grid": {"n": int(rng.choice(SIZES)),
                     "grading": str(rng.choice(["Uniform",
                                                "GradedAtOrigin"]))},
            "f": f}


def _outcome(doc, tmp_path, capsys):
    """None if a run of ``doc`` ends in one of the two documented ways,
    else what went wrong."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    try:
        code = main([doc["command"], "--config", str(cfg), "--out", str(out)])
    except Exception as exc:  # a RuntimeWarning is raised as one too
        return f"{type(exc).__name__}: {exc}"
    finally:
        err = capsys.readouterr().err.splitlines()
    if code == 2:
        if len(err) == 1 and err[0].startswith("error: "):
            return None
        return f"exit 2 with stderr {err}"
    if code in ((0, 3) if doc["command"] == "verify" else (0,)):
        written = {p.name for p in out.iterdir()} if out.exists() else set()
        if not err and written == FILES[doc["command"]]:
            return None
        return f"exit {code}, stderr {err}, files {sorted(written)}"
    return f"exit {code}, stderr {err}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_drawn_request_ends_in_a_documented_way(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    bad = []
    for k in range(CASES):
        doc = draw_config(rng)
        run_dir = tmp_path / str(k)
        run_dir.mkdir()
        problem = _outcome(doc, run_dir, capsys)
        if problem is not None:
            bad.append((k, problem, doc))
    assert not bad, bad
