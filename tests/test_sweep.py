"""The seeded robustness sweep of ``benchmarks/bench_sweep.py`` as a test.

Each of the sweep's 40 cases at seed 2026 and n=200 either comes within
1e-2 of the reference solution of ``reference.py`` or raises a
``RadellipticError``, and gives the same profile bytes (or the same error)
when solved from random branch keys.
"""

import functools
import importlib.util
import os

import numpy as np
import pytest

from radelliptic.errors import RadellipticError
from radelliptic.solver import solve_dirichlet
from reference import reference_solution

SEED = 2026
CASES = 40
N = 200


@functools.cache
def sweep_cases():
    """The sweep's cases, drawn by its own ``draw_case``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                        "bench_sweep.py")
    spec = importlib.util.spec_from_file_location("bench_sweep", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rng = np.random.default_rng(SEED)
    return [bench.draw_case(rng, N) for _ in range(CASES)]


@pytest.mark.parametrize("k", range(CASES))
def test_case_meets_reference_or_raises_from_any_guess(k):
    label, op, dom, grid, f = sweep_cases()[k]
    guesses = np.random.default_rng(k).integers(0, 4, (3, grid.n - 1))
    try:
        sol = solve_dirichlet(op, dom, f, grid)
    except RadellipticError as exc:
        for guess in guesses:
            with pytest.raises(type(exc)):
                solve_dirichlet(op, dom, f, grid, initial_guess=guess)
        return
    ref = reference_solution(op, dom, f, grid.nodes)
    assert np.max(np.abs(sol.u.values - ref)) <= 1e-2, label
    for guess in guesses:
        warm = solve_dirichlet(op, dom, f, grid, initial_guess=guess)
        assert warm.u.values.tobytes() == sol.u.values.tobytes(), label
        assert np.array_equal(warm.branches, sol.branches), label
    if sol.shooting_steps == 0:
        # a ball's settled branches are its whole solve: one scan
        again = solve_dirichlet(op, dom, f, grid, initial_guess=sol.branches)
        assert again.iterations == 1, label
        assert again.u.values.tobytes() == sol.u.values.tobytes(), label
