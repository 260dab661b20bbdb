"""Per-layer spans taken from outside the package.

The tracer replaces each layer's public functions at the module attribute
their caller looks up (for example ``radelliptic.cli.solve_dirichlet`` and
``radelliptic._kernels.assemble_system``) with a wrapper that records a
span, then restores the originals.  A span's self time is its duration
minus the time covered by the spans it encloses, so the self times of all
spans in a request plus the uncovered remainder equal the request's wall
time.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._verify_solves: int | None = None  # solves so far in a verify request

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = perf_counter() - frame[0]
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        return traced

    @contextlib.contextmanager
    def request(self, command: str):
        """Root frame of one CLI request.

        Yields a dict that is filled on exit with the request's wall time,
        the time covered by its top-level spans and the sum of the self
        times of all spans inside it.
        """
        self._verify_solves = 0 if command == "verify" else None
        own_before = sum(self.self_s.values())
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        span = {}
        try:
            yield span
        finally:
            self._stack.pop()
            span["wall_s"] = perf_counter() - frame[0]
            span["covered_s"] = frame[1]
            span["self_s"] = sum(self.self_s.values()) - own_before

    # -- counters read off arguments and results ------------------------------

    def _after_assemble(self, args, kwargs, result, dur):
        self.counts["kernels.nodes"] += len(args[0])

    def _after_solve(self, args, kwargs, sol, dur):
        self.counts["solver.newton_iters"] += sol.iterations
        self.counts["solver.eps_stages"] += len(sol.eps_path)

    def _after_cli_solve(self, args, kwargs, sol, dur):
        self._after_solve(args, kwargs, sol, dur)
        if self._verify_solves is not None:
            self._verify_solves += 1
            # cmd_verify's second solve is the comparison spot-check
            if self._verify_solves == 2:
                self.total_s["solver.comparison_solve"] += dur

    def _after_eigen_solve(self, args, kwargs, sol, dur):
        self._after_solve(args, kwargs, sol, dur)
        self.counts["eigen.solves"] += 1
        if kwargs.get("initial_guess") is not None:
            self.total_s["eigen.warm_solve"] += dur

    def _after_eigen(self, args, kwargs, res, dur):
        self.counts["eigen.outer_iters"] += res.iterations

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, counter hook) for every wrapped function."""
        mod = importlib.import_module
        cli = mod("radelliptic.cli")
        analysis = mod("radelliptic.analysis")
        grid = mod("radelliptic.grid")
        report = mod("radelliptic.report")
        targets = [
            (mod("radelliptic._kernels"), "assemble_system", "kernels.assemble_system",
             self._after_assemble),
            (cli, "solve_dirichlet", "solver.solve_dirichlet", self._after_cli_solve),
            (mod("radelliptic.eigen"), "solve_dirichlet", "solver.solve_dirichlet",
             self._after_eigen_solve),
            (cli, "comparison_oracle", "solver.comparison_oracle", None),
            (cli, "principal_eigenvalue", "eigen.principal_eigenvalue",
             self._after_eigen),
            (cli, "validate_hypotheses", "operators.validate_hypotheses", None),
            (analysis, "eval_radial_many", "operators.eval_radial_many", None),
            (mod("radelliptic.operators"), "eval_radial_many",
             "operators.eval_radial_many", None),
            (analysis, "derivative_numbers", "grid.derivative_numbers", None),
            (cli, "_write_json", "cli.write_json", None),
            (grid.DiscreteRadialFunction, "to_csv", "grid.to_csv", None),
            (report.VerificationReport, "to_json", "report.write", None),
            (report.VerificationReport, "to_csv", "report.write", None),
        ]
        for check in ("check_viscosity", "verify_flux_inequalities",
                      "c1_modulus_report", "c1_bound_check", "holder_exponent"):
            targets.append((analysis, check, "analysis." + check, None))
        return targets

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, after in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
