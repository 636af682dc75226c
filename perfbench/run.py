"""Benchmark of the qtradeoff CLI: one closed-loop caller, BLAS on one thread.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_mle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, timings scaled to a nominal host speed (harness.py); with
--trace 1 it holds the per-layer metrics of a traced run. `--workload all` runs every workload in its own interpreter and prints
them together. perfbench/README.md describes the workloads and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# Modules that import numpy (harness, workloads, oracles, spans) are imported
# inside functions, after main() has pinned the BLAS threads.
ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_mle", "bounds_sdp", "origin_scan")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCRATCH = ROOT / ".perfbench_tmp"
TRACES = ROOT / ".perfbench_traces"
SETUP_PROBES = 6
BLAS_SUBSET = 20
BLAS_PROBE_SECONDS = 10.0
CHILD_TIMEOUT = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer fields reported for each traced layer
LAYER_FIELDS = {
    "cli.main": ("calls", "self_s", "failures"),
    "sdp.solve_lmi": ("calls", "self_s", "iterations_mean", "ok_ratio"),
    "bounds.nh_problem": ("calls", "self_s"),
    "bounds.nhcrb_sdp": ("calls", "self_s", "failures"),
    "estimation.mle_estimator": ("calls", "self_s", "ok_ratio"),
    "estimation.run_experiment": ("calls", "self_s"),
    "tradeoff.surface_scan": ("calls", "self_s"),
    "povm": ("calls", "self_s"),
    "model.model_point": ("calls", "self_s"),
    "linalg.eig_hermitian": ("calls", "self_s"),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "failures": "count",
               "ok_ratio": "ratio", "iterations_mean": "count"}
EXTRA_LAYER_UNITS = {
    "trace.overhead_ratio": "ratio",
    "trace.ops": "count",
    "trace.op_s": "s",
    "trace.self_sum_s": "s",
    "blas_pinned.op_p50_ms": "ms",
    "blas_pinned.op_p90_ms": "ms",
    "blas_default.op_p50_ms": "ms",
    "blas_default.op_p90_ms": "ms",
    "blas_default.p50_ratio": "ratio",
    "blas_default.p90_ratio": "ratio",
    "failure_probe.failed": "count",
}


def per_layer_units():
    units = {f"{layer}.{field}": FIELD_UNITS[field]
             for layer, fields in LAYER_FIELDS.items() for field in fields}
    units.update(EXTRA_LAYER_UNITS)
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal modes, run in a fresh child interpreter
    p.add_argument("--probe", choices=("setup", "blas"), default=None,
                   help=argparse.SUPPRESS)
    p.add_argument("--blas", choices=("pinned", "default"), default="pinned",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def child(args, *extra, env=None):
    """Run this script in a fresh interpreter; return its stdout lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(extra) or args.workload} exited "
                           f"{done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout.splitlines()


def set_up(workload, seed, out):
    """Generate the inputs and run the untimed warm-up op.

    Returns (ops, seconds, host slowdown measured right after). The seconds
    count from the start of this interpreter's script, so they include
    importing the package.
    """
    import harness
    import workloads

    ops = workloads.generate(workload, seed)
    harness.run_op(ops[0], out)
    seconds = time.perf_counter() - _START
    return ops[1:], seconds, harness.host_slowdown()


def probe_blas(args, out):
    """Latencies of the two-copy bounds subset in this interpreter."""
    import harness
    import workloads

    ops = workloads.blas_subset(args.seed, BLAS_SUBSET + 1)
    harness.run_op(ops[0], out)
    latencies = []
    start = time.perf_counter()
    for op in ops[1:]:
        latencies.append(harness.run_op(op, out).seconds)
        if time.perf_counter() - start > BLAS_PROBE_SECONDS:
            break
    return {"latencies": latencies, "threads": harness.blas_threads()}


def blas_diagnostic(args):
    """The two-copy subset pinned to one BLAS thread and at the default count.

    Returns (metrics, BLAS thread count each probe reported).
    """
    results = {}
    for mode in ("pinned", "default"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        lines = child(args, "--probe", "blas", "--blas", mode, env=env)
        results[mode] = json.loads(lines[-1])
    import harness

    out = {}
    for mode, res in results.items():
        out[f"blas_{mode}.op_p50_ms"] = 1e3 * statistics.median(res["latencies"])
        out[f"blas_{mode}.op_p90_ms"] = 1e3 * harness.percentile(res["latencies"], 90)
    for q in ("p50", "p90"):
        out[f"blas_default.{q}_ratio"] = (out[f"blas_default.op_{q}_ms"]
                                          / out[f"blas_pinned.op_{q}_ms"])
    return out, {mode: res["threads"] for mode, res in results.items()}


def report(args, prov, sections, metrics, units, notes):
    """Print the human-readable lines, then the JSON result as the last line."""
    attempted = sum(s["attempted"] for s in sections)
    failed = sum(s["failed"] for s in sections)
    # a failed op without output is counted in `failed`; `correct` is false
    # only when an output fails its oracle or a run-level check fails
    correct = not any(s["wrong"] for s in sections) and not notes.get("run_check_failed")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("load: closed loop, one process, one caller; each op starts when the "
          f"previous returns; BLAS threads in force: {prov['blas_threads']}")
    print("wait: none; no layer waits on another process or thread, so there is "
          "no wait time to report")
    for s in sections:
        print(f"section {s['name']}: {s['attempted']} ops, {s['failed']} failed "
              f"(error rate {s['failed'] / s['attempted']:.4g}), "
              f"{s['above_p90']} samples above p90")
        print(f"section {s['name']}: host slowdown {s['host_slowdown']:.4f}; as measured "
              f"ops_per_s {s['raw_ops_per_s']:.4f} 1/s, op_p50_ms {s['raw_op_p50_ms']:.3f} ms, "
              f"op_p90_ms {s['raw_op_p90_ms']:.3f} ms")
    for line in notes.get("lines", ()):
        print(line)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_workload(args, out):
    import harness
    import oracles

    ops, *setup_own = set_up(args.workload, args.seed, out)
    prov = harness.provenance(args.workload, args.seed)
    notes = {"lines": []}
    # a traced run splits its time between an untraced and a traced section
    seconds = args.seconds / 2 if args.trace else args.seconds
    timed_section = harness.run_section(ops, seconds, out)
    timed = {"name": "timed", **harness.summarize(timed_section)}
    sections = [timed]
    results = timed_section.results
    zs = [r.z for r in results if r.z is not None]
    if zs:
        pooled = oracles.pooled_z(zs)
        notes["lines"].append(f"pooled z of {len(zs)} origin opt2 ops vs single-copy bound: "
                              f"{pooled:.3f} (must exceed {oracles.POOLED_Z_MIN})")
        notes["run_check_failed"] = not pooled > oracles.POOLED_Z_MIN
    for argv, reason in harness.failures(results, ops):
        notes["lines"].append(f"failed op: {argv}: {reason}")

    if not args.trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_own]
        for _ in range(SETUP_PROBES):
            setups.append(json.loads(child(args, "--probe", "setup")[-1]))
        notes["lines"].append("setup_s samples as measured / host slowdown: " + "  ".join(
            f"{seconds:.4f}/{slowdown:.3f}" for seconds, slowdown in setups))
        metrics = {
            "setup_s": statistics.median(seconds / slowdown for seconds, slowdown in setups),
            "ops_per_s": timed["ops_per_s"],
            "op_p50_ms": timed["op_p50_ms"],
            "op_p90_ms": timed["op_p90_ms"],
            "peak_rss_mb": peak_rss_mb,
        }
        report(args, prov, sections, metrics, END_TO_END_UNITS, notes)
        return

    import spans
    import workloads

    tracer = spans.Tracer()
    with tracer.installed():
        traced_section = harness.run_section(ops, seconds, out, tracer)
    traced = {"name": "traced", **harness.summarize(traced_section)}
    traced_results = traced_section.results
    sections.append(traced)
    for argv, reason in harness.failures(traced_results, ops):
        notes["lines"].append(f"failed traced op: {argv}: {reason}")

    layers = tracer.layer_metrics()
    metrics = {f"{layer}.{field}": layers[layer][field]
               for layer, fields in LAYER_FIELDS.items() for field in fields}
    op_s = sum(r.seconds for r in traced_results)
    self_sum = sum(tracer.self_times())
    metrics["trace.overhead_ratio"] = traced["ops_per_s"] / timed["ops_per_s"]
    metrics["trace.ops"] = traced["attempted"]
    metrics["trace.op_s"] = op_s
    metrics["trace.self_sum_s"] = self_sum
    notes["lines"].append(f"self times sum to {self_sum:.6f} s of {op_s:.6f} s traced op time")
    for layer in LAYER_FIELDS:
        share = layers[layer]["self_s"] / self_sum if self_sum else 0.0
        notes["lines"].append(f"self share {layer:28s} {100 * share:6.2f} %")

    probe_ops = workloads.failure_probe(args.seed)
    probe = [harness.run_op(op, out) for op in probe_ops]
    metrics["failure_probe.failed"] = sum(not r.ok for r in probe)
    for op, r in zip(probe_ops, probe):
        if not r.ok:
            notes["lines"].append(f"failure probe failure ({r.seconds:.3f} s): "
                                  f"{' '.join(op.argv)}: {r.reason}")
    notes["lines"].append(f"failure probe: {len(probe)} ops, {metrics['failure_probe.failed']} failed")
    blas, threads = blas_diagnostic(args)
    notes["lines"].append(f"BLAS diagnostic threads: pinned {threads['pinned']}, "
                          f"default {threads['default']}")
    metrics.update(blas)

    TRACES.mkdir(exist_ok=True)
    trace_path = TRACES / f"{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w") as fh:
        json.dump({"provenance": prov, "spans": tracer.to_json()}, fh)
    notes["lines"].append(f"spans written to {trace_path.relative_to(ROOT)}")
    report(args, prov, sections, metrics, per_layer_units(), notes)


def run_all(args):
    """Each workload in its own interpreter, so each pays its own set-up."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        sub = argparse.Namespace(**{**vars(args), "workload": workload})
        lines = child(sub)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return 0
    if not (ROOT / "src" / "qtradeoff" / "cli.py").is_file():
        print(f"error: no qtradeoff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.blas == "pinned":
        # before numpy loads, so OpenBLAS starts with one thread
        os.environ.update({k: "1" for k in BLAS_ENV})
    sys.path[:0] = [str(ROOT / "src")]
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        out = Path(tmp) / "artifact.json"
        if args.probe == "setup":
            _, *setup = set_up(args.workload, args.seed, out)
            print(json.dumps(setup))
        elif args.probe == "blas":
            print(json.dumps(probe_blas(args, out)))
        else:
            run_workload(args, out)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run still holds its directory
    return 0


if __name__ == "__main__":
    sys.exit(main())
