"""What the ``BENCH_*.json`` scripts share: the shipped configs at n, 4n
and 16n, the recorder of the calls a run makes, the timing method, the
digests and the entry writer.

How to record an entry pair, and what the timing method measures: README,
"Benchmarks".

Importing this module puts the checkout's ``src`` and ``perfbench``
directories on the path (the ones next to this file's directory, so a copy
of ``benchmarks/`` inside another checkout times that checkout's code) and
imports perfbench's ``run`` before numpy, so that its BLAS/OpenMP thread
pins take effect.
"""

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from run import PROBE_REF_S, probe  # noqa: E402

import numpy as np  # noqa: E402

REPEAT = 5
SAMPLE_SECONDS = 0.05
SCALES = (1, 4, 16)


def arguments(doc, out_name, argv=None):
    """The ``--label`` and ``--out`` arguments of a script whose docstring
    is ``doc`` and whose file is ``out_name`` at the checkout's root."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="entry name, e.g. parent or change")
    parser.add_argument("--out", default=os.path.join(ROOT, out_name))
    return parser.parse_args(argv)


def shipped(commands):
    """(name, scale, doc) for each shipped config whose ``command`` is in
    ``commands``, at each scale of ``SCALES``: the config with its
    ``grid.n`` times the scale."""
    config_dir = os.path.join(ROOT, "configs")
    for name in sorted(os.listdir(config_dir)):
        with open(os.path.join(config_dir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("command") in commands:
            for scale in SCALES:
                yield name[:-5], scale, dict(doc, grid=dict(
                    doc["grid"], n=int(doc["grid"]["n"]) * scale))


Call = collections.namedtuple("Call", "fn args kwargs result")


@contextlib.contextmanager
def recorded(*targets):
    """While the block runs, wrap the functions that ``targets`` name as
    (owner, attribute) pairs: each call that returns appends a ``Call`` to
    the list the block gets.  The attributes are restored on exit."""
    calls = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append(Call(fn, args, kwargs, result))
            return result
        return wrapper

    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]
    try:
        for owner, attr, fn in saved:
            setattr(owner, attr, recording(fn))
        yield calls
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def sample(fn):
    """One sample of ``fn``: process seconds per call over a loop of calls
    that runs for at least ``SAMPLE_SECONDS``, scaled to the probe's
    reference host by the mean of the probe's timings just before and just
    after the loop."""
    before = probe()
    calls = 0
    t0 = time.process_time()
    while True:
        fn()
        calls += 1
        elapsed = time.process_time() - t0
        if elapsed >= SAMPLE_SECONDS:
            return elapsed / calls * PROBE_REF_S / (0.5 * (before + probe()))


def best_times(fns):
    """The best of ``REPEAT`` samples of each of ``fns``.  The samples are
    taken in rounds, each of which samples every call once, so the samples
    of one call lie apart in time."""
    best = [float("inf")] * len(fns)
    for _ in range(REPEAT):
        best = [min(t, sample(fn)) for t, fn in zip(best, fns)]
    return best


def digest(value):
    """sha256 of bytes, of an array's float64 bytes, or of any other value
    in JSON with sorted keys."""
    if isinstance(value, bytes):
        data = value
    elif isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value, dtype=float).tobytes()
    else:
        data = json.dumps(value, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _leaves(digests, prefix=""):
    for key, value in digests.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key} ")
        else:
            yield prefix + key, value


def differing(digests, other):
    """The digests that differ between two entries' ``digests`` (a run's
    digest, or a run's digest of each check), named by run and check.  A
    digest that only one of them has differs too."""
    mine, theirs = dict(_leaves(digests)), dict(_leaves(other))
    return [key for key in sorted(mine.keys() | theirs.keys())
            if mine.get(key) != theirs.get(key)]


def source_digest(paths):
    """sha256 of the files at ``paths`` in the order of their names: each
    file's name and length, then its bytes.  Where the files lie does not
    enter it."""
    sha = hashlib.sha256()
    for path in sorted(paths, key=os.path.basename):
        with open(path, "rb") as fh:
            data = fh.read()
        sha.update(f"{os.path.basename(path)} {len(data)}\n".encode("utf-8"))
        sha.update(data)
    return sha.hexdigest()


def imported_sources():
    """The files of the ``radelliptic`` modules imported so far."""
    return [module.__file__ for name, module in list(sys.modules.items())
            if name.partition(".")[0] == "radelliptic"
            and getattr(module, "__file__", None)]


def record(path, label, entry):
    """Write ``entry`` under ``label`` in the JSON file at ``path``, with
    the commit, the digest of the package sources the script imported
    (``sources``, which names the timed code also where the script runs
    from a copy that is no git checkout), the host and the timing method
    added, replacing only an entry of the same label.  First print, against
    each of the file's other entries, the digests that differ."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    entry = dict(entry, commit=commit,
                 sources=source_digest(imported_sources()), host={
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__},
        method={"repeat": REPEAT, "sample_seconds": SAMPLE_SECONDS,
                "probe_ref_s": PROBE_REF_S,
                "unit": "process s per call on the probe's reference host, "
                        "best of repeat samples taken in rounds"})
    doc = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    for other_label, other in sorted(doc.items()):
        if other_label != label:
            changed = differing(entry["digests"], other.get("digests", {}))
            print(f"digests vs {other_label}: "
                  + (f"{len(changed)} differ: " + ", ".join(changed)
                     if changed else "every digest matches"))
    doc[label] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
