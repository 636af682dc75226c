"""Closed-loop runner: one caller runs CLI ops back to back and checks each.

An op is one in-process `qtradeoff.cli.main(argv)` call that writes its
artifact to a scratch file, which the runner reads back and checks with an
oracle. A nonzero exit, a raised exception or a failed oracle counts the op as
failed; none of them stops the run.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from qtradeoff import cli

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100
# A section keeps going past its time until it has MIN_OPS ops, up to this
# multiple of its time, so a slow build still finishes within the run limit.
MAX_STRETCH = 4.0
# Ops that fail at once (a broken build) would otherwise pile up results.
MAX_OPS = 20000
# The host is shared: its speed drifts by up to 40 % over tens of seconds.
# A fixed reference kernel, timed after every op, tracks that drift, and the
# gated timings are scaled to the host speed at which it takes
# REFERENCE_NOMINAL_S (its median on the idle 2-core host of README.md).
REFERENCE_REPS = 15
REFERENCE_NOMINAL_S = 3.2e-3
SETUP_REFERENCE_SAMPLES = 30
# Latency percentiles scale each op by the median reference time of the ops
# around it: the drift moves within a section, and a section-wide slowdown
# leaves it in the percentiles.
REFERENCE_WINDOW = 9


@dataclass(frozen=True)
class OpResult:
    """One op: `ok` if it exited 0 and its artifact passed the oracle.

    `wrong` marks an artifact the oracle rejected, as opposed to an op that
    failed without output (nonzero exit, raised exception).
    """

    seconds: float
    ok: bool
    reason: str | None = None
    z: float | None = None
    wrong: bool = False


def run_op(op, out_path):
    """Run one op through `cli.main` and check its artifact."""
    if os.path.exists(out_path):
        os.remove(out_path)
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(list(op.argv) + ["--out", str(out_path)])
    except (Exception, SystemExit) as exc:
        # a crash in one op is a failed op, never the end of the run
        return OpResult(time.perf_counter() - start, False,
                        f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if code != 0:
        return OpResult(seconds, False, f"exit code {code}: {stderr.getvalue().strip()}")
    with open(out_path) as fh:
        artifact = json.load(fh)
    reason = oracles.check(op, artifact)
    return OpResult(seconds, reason is None, reason, oracles.origin_z(op, artifact),
                    wrong=reason is not None)


@dataclass(frozen=True)
class Section:
    """The ops of one closed-loop section, with the reference time after each."""

    results: list
    wall: float
    reference: list


def reference_seconds():
    """Time the reference kernel once.

    Small dense linear algebra through numpy, the mix of interpreter and BLAS
    work that every workload's ops do; it calls nothing in the package.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(32, 32))
    h = a + a.T
    start = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        np.linalg.eigh(h)
        np.linalg.solve(h, a @ h)
    return time.perf_counter() - start


def host_slowdown():
    """Mean time of back-to-back reference runs over REFERENCE_NOMINAL_S."""
    runs = [reference_seconds() for _ in range(SETUP_REFERENCE_SAMPLES)]
    return statistics.mean(runs) / REFERENCE_NOMINAL_S


def run_section(ops, seconds, out_path, tracer=None):
    """Run ops in order, cycling, until `seconds` have passed and MIN_OPS ran.

    The reference kernel runs after each op, outside its timing.
    """
    results = []
    reference = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(results) >= MIN_OPS:
            break
        if elapsed >= MAX_STRETCH * seconds or len(results) >= MAX_OPS:
            break
        if tracer is not None:
            tracer.op = i
        results.append(run_op(ops[i % len(ops)], out_path))
        reference.append(reference_seconds())
        i += 1
    return Section(results, time.perf_counter() - start, reference)


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def local_slowdowns(reference):
    """Host slowdown at each op: the median reference time of the
    REFERENCE_WINDOW ops centred on it, over REFERENCE_NOMINAL_S."""
    half = REFERENCE_WINDOW // 2
    return [statistics.median(reference[max(0, i - half):i + half + 1]) / REFERENCE_NOMINAL_S
            for i in range(len(reference))]


def summarize(section):
    """Throughput and latency of a section; latencies include failed ops.

    `raw_*` are as measured; the unprefixed values are scaled to the nominal
    host speed. `ops_per_s` is scaled by the section's host slowdown, the
    reference kernel's time over REFERENCE_NOMINAL_S, each sample weighted
    by the time of the op it follows and its own; each latency is scaled by
    its local slowdown before the percentiles are taken.
    """
    results = section.results
    latencies = [r.seconds for r in results]
    scaled = [x / s for x, s in zip(latencies, local_slowdowns(section.reference))]
    ok = sum(r.ok for r in results)
    p50 = statistics.median(scaled)
    p90 = percentile(scaled, 90)
    weights = [x + ref for x, ref in zip(latencies, section.reference)]
    slowdown = (sum(w * ref for w, ref in zip(weights, section.reference))
                / sum(weights) / REFERENCE_NOMINAL_S)
    ops_per_s = ok / (section.wall - sum(section.reference))
    return {
        "attempted": len(results),
        "failed": len(results) - ok,
        "wrong": sum(r.wrong for r in results),
        "host_slowdown": slowdown,
        "raw_ops_per_s": ops_per_s,
        "raw_op_p50_ms": 1e3 * statistics.median(latencies),
        "raw_op_p90_ms": 1e3 * percentile(latencies, 90),
        "ops_per_s": ops_per_s * slowdown,
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "above_p90": sum(x > p90 for x in scaled),
    }


def failures(results, ops, limit=10):
    """The first failed ops as (argv, reason) pairs."""
    out = []
    for i, r in enumerate(results):
        if not r.ok and len(out) < limit:
            out.append((" ".join(ops[i % len(ops)].argv), r.reason))
    return out


def blas_threads():
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qtradeoff").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
