"""End-to-end benchmark of the radelliptic CLI, with an optional per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-fine --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: each workload's CLI requests run
in-process through ``radelliptic.cli.main``, one after another, in passes
over the request list.  A warm-up pass comes first; then whole passes run
until ``--seconds`` have elapsed.  Every request's exit code and output
files are checked.  ``setup_s`` is the time a fresh interpreter takes to
``import radelliptic.cli``, measured in separate subprocesses.

``pass_s`` and ``slowest_request_s`` are normalised to the host's speed.
A fixed numpy/Python probe owned by the benchmark runs before the first
request and after every request; each request's wall time is scaled by
``PROBE_REF_S`` over the mean of the two probes around it, which gives
seconds on a host where the probe takes ``PROBE_REF_S``.  On a shared
2-vCPU virtual machine (Intel Xeon, 2.1 GHz) the speed swung by up to
+-25% for minutes at a time: 20-second medians of raw pass time moved
+-12% across three minutes, while the ratio of pass time to probe time
moved +-4%.  The raw times are printed alongside.

With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP threads before numpy is first imported
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
ACCOUNTING_LIMIT = 0.10
# fixed scale: about the best time of probe() on the 2-vCPU Xeon host above
PROBE_REF_S = 0.0015

SETUP_CODE = ("import time; t = time.perf_counter(); import radelliptic.cli; "
              "t = time.perf_counter() - t; import radelliptic; "
              "print(radelliptic.__file__); print(repr(t))")


def measure_setup() -> float:
    """Median import time of radelliptic.cli over fresh interpreters; the first is discarded."""
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED_THREADS)
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        path, seconds = proc.stdout.split()[-2:]
        if not os.path.abspath(path).startswith(SRC + os.sep):
            raise RuntimeError(f"setup imported radelliptic from {path}")
        if i:
            times.append(float(seconds))
    return statistics.median(times)


_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = np.sort(_PROBE_RNG.random(1601))
_PROBE_Y = _PROBE_RNG.random(1601)


def probe() -> float:
    """Best of three timings of a fixed kernel that mixes numpy array work and Python loops."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(50):
            h = np.diff(_PROBE_X)
            q = (_PROBE_Y[2:] - _PROBE_Y[:-2]) / (h[1:] + h[:-1])
            float(np.max(np.maximum(q, 0.0) * np.abs(_PROBE_Y[1:-1]) ** 0.5))
            [v * 1.0001 for v in range(300)]
        best = min(best, perf_counter() - t0)
    return best


class Runner:
    def __init__(self, reqs, work_dir):
        import radelliptic.cli

        self.main = radelliptic.cli.main
        self.reqs = reqs
        self.references = [workloads.reference_profile(req) for req in reqs]
        self.out_dir = os.path.join(work_dir, "out")
        self.configs = []
        for k, req in enumerate(reqs):
            path = os.path.join(work_dir, f"request{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(req.doc, fh)
            self.configs.append(path)

    def _call(self, argv):
        try:
            return self.main(argv), None
        except Exception as exc:  # a crash is a failed request, not a failed run
            return None, exc

    def run_pass(self, tracer: Tracer | None = None):
        """One pass over the request list.

        Returns the checked outcomes and the largest lambda gap.  Each
        outcome carries its host speed factor, ``PROBE_REF_S`` over the mean
        of the probes taken just before and just after the request.
        """
        probes = [probe()]
        outcomes = []
        for req, cfg, ref in zip(self.reqs, self.configs, self.references):
            shutil.rmtree(self.out_dir, ignore_errors=True)
            argv = [req.command, "--config", cfg, "--out", self.out_dir]
            if tracer is None:
                t0 = perf_counter()
                code, exc = self._call(argv)
                out = workloads.Outcome(req.label, perf_counter() - t0)
            else:
                with tracer.request(req.command) as span:
                    code, exc = self._call(argv)
                out = workloads.Outcome(req.label, span["wall_s"])
                out.span = span
            probes.append(probe())
            out.speed = PROBE_REF_S / (0.5 * (probes[-2] + probes[-1]))
            workloads.check(req, code, exc, self.out_dir, out, ref)
            outcomes.append(out)
        return outcomes, workloads.check_pairs(self.reqs, outcomes)


def layer_metrics(tracer: Tracer, outcomes) -> dict:
    """Per-layer totals of one traced pass, named as in BENCHMARK.json."""
    calls, total, own, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    wall = sum(o.wall_s for o in outcomes)
    newton = counts["solver.newton_iters"]
    outer = counts["eigen.outer_iters"]
    certify = sum(v for k, v in own.items()
                  if k.startswith("analysis.") or k in (
                      "operators.validate_hypotheses", "operators.eval_radial_many",
                      "grid.derivative_numbers", "solver.comparison_oracle"))
    m = {
        "kernels.assemble_system.calls": calls["kernels.assemble_system"],
        "kernels.assemble_system.s": total["kernels.assemble_system"],
        "kernels.assemble_system.us_per_node":
            1e6 * total["kernels.assemble_system"] / max(counts["kernels.nodes"], 1),
        "solver.solve_dirichlet.calls": calls["solver.solve_dirichlet"],
        "solver.solve_dirichlet.s": total["solver.solve_dirichlet"],
        "solver.self_s": own["solver.solve_dirichlet"],
        "solver.newton_iters": newton,
        "solver.eps_stages": counts["solver.eps_stages"],
        "solver.assemblies_per_newton":
            calls["kernels.assemble_system"] / newton if newton else 0.0,
        "solver.comparison_solve_s": total["solver.comparison_solve"],
        "solver.comparison_oracle.s": total["solver.comparison_oracle"],
    }
    for check in ("check_viscosity", "verify_flux_inequalities", "c1_modulus_report",
                  "c1_bound_check", "holder_exponent"):
        m[f"analysis.{check}.s"] = total["analysis." + check]
    m.update({
        "analysis.certify_share": certify / wall,
        "operators.eval_radial_many.calls": calls["operators.eval_radial_many"],
        "operators.validate_hypotheses.s": total["operators.validate_hypotheses"],
        "grid.derivative_numbers.calls": calls["grid.derivative_numbers"],
        "grid.derivative_numbers.s": total["grid.derivative_numbers"],
        "eigen.principal_eigenvalue.s": total["eigen.principal_eigenvalue"],
        "eigen.outer_iters": outer,
        "eigen.solves_per_outer": counts["eigen.solves"] / outer if outer else 0.0,
        "eigen.warm_solve_s": total["eigen.warm_solve"],
        "report.write_s": total["report.write"],
        "grid.to_csv_s": total["grid.to_csv"],
        "cli.io_s": total["report.write"] + total["grid.to_csv"] + total["cli.write_json"],
        "cli.io_bytes": sum(o.io_bytes for o in outcomes),
    })
    return m


def _unit(name: str) -> str:
    if name.endswith((".calls", "_iters", "_stages")):
        return "count"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_node"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio"


def normalised_pass(passes) -> float:
    """Median over passes of the pass's wall time normalised to the host's speed."""
    return statistics.median(sum(o.wall_s * o.speed for o in p) for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "radelliptic", "cli.py")):
        print(f"error: no radelliptic sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.environ.pop("RDL_SEED", None)  # the CLI would let it override the workload seed
    # on SIGTERM, unwind so that the work directory and any child are cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    setup_s = measure_setup() if not args.trace else None
    sys.path.insert(0, SRC)
    import scipy

    import radelliptic

    if not radelliptic.__file__.startswith(SRC + os.sep):
        print(f"error: radelliptic was imported from {radelliptic.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    reqs = workloads.build(args.workload, ROOT, args.seed)
    print(f"workload {args.workload}: {len(reqs)} requests; {workloads.WHY[args.workload]}")
    print(f"seed {args.seed}; backend {radelliptic.KERNEL_BACKEND}; python "
          f"{platform.python_version()}; numpy {np.__version__}; scipy "
          f"{scipy.__version__}; nproc {os.cpu_count()}; threads pinned: "
          + ", ".join(f"{k}={v}" for k, v in PINNED_THREADS.items()))

    untraced, traced, layers = [], [], []
    gaps = []
    unexpected = []
    trace_ok = True
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        runner = Runner(reqs, work)
        warm, _ = runner.run_pass()
        unexpected += [o for o in warm if not o.ok and not o.known_defect]
        start = perf_counter()
        while perf_counter() - start < args.seconds or not untraced:
            outcomes, gap = runner.run_pass()
            untraced.append(outcomes)
            gaps.append(gap)
            if args.trace:
                tracer = Tracer()
                with tracer.installed():
                    outcomes, gap = runner.run_pass(tracer)
                traced.append(outcomes)
                gaps.append(gap)
                layers.append(layer_metrics(tracer, outcomes))

    measured = untraced + traced
    attempted = sum(len(p) for p in measured)
    failed = sum(not o.ok for p in measured for o in p)
    for p in measured:
        unexpected += [o for o in p if not o.ok and not o.known_defect]
    reported = set()
    for o in (o for p in [warm] + measured for o in p if not o.ok):
        if o.label not in reported:
            reported.add(o.label)
            kind = "known defect" if o.known_defect else "FAILED"
            print(f"{kind}: {o.label}: {o.reason}")

    raw_pass = [sum(o.wall_s for o in p) for p in untraced]
    pass_s = normalised_pass(untraced)
    print(f"{len(untraced)} untraced passes" + (f", {len(traced)} traced passes" if traced else "")
          + f"; {attempted} requests attempted, {failed} failed")
    errs = [o.err_sup for p in measured for o in p if o.err_sup is not None]
    lam_gaps = [g for g in gaps if g is not None]
    err_sup = max(errs) if errs else None
    lambda_gap = max(lam_gaps) if lam_gaps else None
    ref_err = lambda_gap if args.workload == "eigen" else err_sup

    if args.trace:
        metrics = {name: (statistics.median(m[name] for m in layers), _unit(name))
                   for name in layers[0]}
        metrics["trace.overhead"] = (normalised_pass(traced) / pass_s - 1, "ratio")
        metrics["trace.coverage"] = (sum(o.span["covered_s"] for p in traced for o in p)
                                     / sum(o.wall_s for p in traced for o in p), "ratio")
        # self times of all spans plus the uncovered remainder must give
        # back each request's wall time
        mismatch = max(abs(o.span["self_s"] - o.span["covered_s"]) / o.wall_s
                       for p in traced for o in p)
        trace_ok = mismatch <= ACCOUNTING_LIMIT
        print(f"self times plus uncovered remainder account for each traced request's "
              f"wall time within {mismatch:.2e} (limit {ACCOUNTING_LIMIT:.0%}); traced "
              f"passes take {metrics['trace.overhead'][0]:+.2%} against untraced ones")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (pass_s, "s"),
            "slowest_request_s": (statistics.median(max(o.wall_s * o.speed for o in p)
                                                    for p in untraced), "s"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
            # the workload's accuracy against its reference: closed-form sup
            # error for solve/verify, n=400 against n=1600 eigenvalue for eigen;
            # 1.0 when no request produced one (the run is then incorrect)
            "ref_err": (1.0 if ref_err is None else ref_err, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        for name, value in (("raw_pass_s", statistics.median(raw_pass)),
                            ("host_speed", statistics.median(o.speed for p in untraced
                                                             for o in p)),
                            ("fail_share", failed / attempted),
                            ("err_sup", err_sup), ("lambda_gap", lambda_gap)):
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<36} {shown}")

    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
