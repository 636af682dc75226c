"""Tests of the benchmark itself: inputs, oracles, failure counting and spans."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qtradeoff import bounds, cli, sdp  # noqa: E402
from qtradeoff.linalg import ConvergenceError  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded(workload):
    first = [op.argv for op in workloads.generate(workload, 7, 60)]
    again = [op.argv for op in workloads.generate(workload, 7, 60)]
    other = [op.argv for op in workloads.generate(workload, 8, 60)]
    assert first == again
    assert first != other
    assert [op.argv for op in workloads.failure_probe(7)] == [
        op.argv for op in workloads.failure_probe(7)]


def test_bounds_sdp_draws_from_the_fixed_pool():
    pool = workloads.bounds_pool()
    assert len(pool) == len(workloads.BOUNDS_COPIES)
    ops = workloads.generate("bounds_sdp", 3, 48)
    for i, op in enumerate(ops):
        slot = i % len(workloads.BOUNDS_COPIES)
        assert op.copies == workloads.BOUNDS_COPIES[slot]
        assert (op.theta, op.weights) in pool[slot]


def test_oracle_catches_perturbed_bound(tmp_path):
    out = tmp_path / "a.json"
    for op in (workloads.bounds_op((0.3, -0.2, 0.5), (0.2, 0.3, 0.5), 1),
               workloads.bounds_op((0.0, 0.0, 0.0), (1e-3, 0.3, 0.7), 2)):
        assert harness.run_op(op, out).ok
        artifact = json.loads(out.read_text())
        assert oracles.check(op, artifact) is None
        for rec in artifact["records"]:
            if rec["name"] == "nhcrb_sdp":
                rec["value"] *= 1.0 + 1e-4
        assert oracles.check(op, artifact) is not None


def test_simulate_and_surface_oracles(tmp_path):
    out = tmp_path / "a.json"
    op = workloads.simulate_op((0.0, 0.0, 0.0), (0.2, 0.3, 0.5), "opt2", "linear",
                               309, 200, 5)
    result = harness.run_op(op, out)
    assert result.ok and result.z is not None
    artifact = json.loads(out.read_text())
    artifact["weighted_trace"] = 0.5 * oracles.qcrb(op.theta, op.weights)
    assert oracles.check(op, artifact) is not None

    op = workloads.surface_op(2)
    assert harness.run_op(op, out).ok
    artifact = json.loads(out.read_text())
    artifact["vertex_residuals"][0] = 1e-3
    assert oracles.check(op, artifact) is not None
    artifact = json.loads(out.read_text())
    artifact["planes"][0]["offset"] *= 1.0 + 1e-4
    assert oracles.check(op, artifact) is not None


def _raise_convergence(*args, **kwargs):
    raise ConvergenceError("no convergence in 200 iterations")


def test_convergence_error_is_a_failed_op(tmp_path, monkeypatch):
    out = tmp_path / "a.json"
    op = workloads.bounds_op((0.1, 0.2, 0.3), (0.2, 0.3, 0.5), 2)
    monkeypatch.setattr(sdp, "solve_lmi", _raise_convergence)
    result = harness.run_op(op, out)
    assert not result.ok and not result.wrong
    assert result.reason == f"exit code {cli.EXIT_SOLVER}: solver error: no convergence in 200 iterations"

    monkeypatch.setattr(cli, "main", _raise_convergence)
    results = harness.run_section([op], 0.2, out).results
    assert len(results) >= harness.MIN_OPS
    assert not any(r.ok for r in results)
    assert results[0].reason.startswith("raised ConvergenceError")


def test_timings_scale_with_the_reference_kernel():
    results = [harness.OpResult(0.05, True), harness.OpResult(0.15, True)]
    reference = [harness.REFERENCE_NOMINAL_S] * 2
    nominal = harness.summarize(harness.Section(results, 0.2 + sum(reference), reference))
    assert nominal["host_slowdown"] == pytest.approx(1.0)
    assert nominal["ops_per_s"] == pytest.approx(10.0)
    assert nominal["op_p50_ms"] == pytest.approx(100.0)

    # the same ops on a host half as fast: twice the time, same scaled values
    slow = [2 * x for x in reference]
    results = [harness.OpResult(2 * r.seconds, True) for r in results]
    halved = harness.summarize(harness.Section(results, 0.4 + sum(slow), slow))
    assert halved["raw_ops_per_s"] == pytest.approx(5.0)
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
        assert halved[name] == pytest.approx(nominal[name])

    # the host slows to half speed halfway through: each op is scaled by its
    # own stretch of the section, so every latency reads 100 ms
    nom = harness.REFERENCE_NOMINAL_S
    results = [harness.OpResult(0.1, True)] * 20 + [harness.OpResult(0.2, True)] * 20
    reference = [nom] * 20 + [2 * nom] * 20
    drift = harness.summarize(harness.Section(results, 6.0 + sum(reference), reference))
    assert drift["op_p50_ms"] == pytest.approx(100.0)
    assert drift["op_p90_ms"] == pytest.approx(100.0)


def test_span_self_times_add_up(tmp_path):
    out = tmp_path / "a.json"
    ops = [workloads.bounds_op((0.1, 0.2, 0.3), (0.2, 0.3, 0.5), 2),
           workloads.simulate_op((0.3, 0.1, -0.4), (0.2, 0.3, 0.5), "opt2", "mle",
                                 150, 5, 3)]
    original = cli.nhcrb_sdp
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.nhcrb_sdp is not original
        for i, op in enumerate(ops):
            tracer.op = i
            assert harness.run_op(op, out).ok
    assert cli.nhcrb_sdp is original and bounds.nhcrb_sdp is original

    selfs = tracer.self_times()
    assert min(selfs) >= -1e-12
    for i in range(len(ops)):
        roots = [s for s in tracer.spans if s.op == i and s.parent is None]
        assert [s.name for s in roots] == ["cli.main"]
        total = sum(x for x, s in zip(selfs, tracer.spans) if s.op == i)
        assert total == pytest.approx(roots[0].duration, rel=1e-9, abs=1e-12)

    layers = tracer.layer_metrics()
    assert layers["sdp.solve_lmi"]["calls"] == 1
    assert layers["bounds.nhcrb_sdp"]["calls"] == 1
    assert layers["estimation.mle_estimator"]["calls"] == 5
    assert layers["tradeoff.surface_scan"]["calls"] == 0
    assert layers["sdp.solve_lmi"]["iterations_mean"] > 0


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
