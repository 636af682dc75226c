import filecmp
import importlib.resources
import json

import numpy as np
import pytest

import qtradeoff.cli as cli
import qtradeoff.povm as povm_mod
from qtradeoff import sdp
from qtradeoff.linalg import ConvergenceError

jsonschema = pytest.importorskip("jsonschema")


@pytest.fixture(scope="module")
def schema():
    path = importlib.resources.files("qtradeoff") / "schemas" / "artifacts.schema.json"
    return json.loads(path.read_text())


def run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out), "--format", "json"])
    assert code == 0
    return json.loads(out.read_text())


def test_exit_codes_for_bad_input(capsys):
    assert cli.main(["bounds", "--theta", "2,0,0"]) == 2
    assert "unphysical state" in capsys.readouterr().err
    assert cli.main(["surface", "--grid", "0"]) == 2
    assert cli.main(["povm", "--povm", "opt2", "--copies", "1"]) == 2
    assert cli.main(["bounds", "--weights", "1,0,0"]) == 2
    assert cli.main(["bounds", "--theta", "1,2"]) == 2
    assert cli.main(["bounds", "--theta", "a,b,c"]) == 2


def test_surface_takes_no_weights(capsys):
    # a scan over one plane is that plane and its tangent point, which bounds
    # gives too
    with pytest.raises(SystemExit) as exc:
        cli.main(["surface", "--weights", "1,1,1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --weights" in capsys.readouterr().err


def test_build_povm_rejects_an_unknown_choice():
    with pytest.raises(ValueError, match="unknown povm 'bogus'"):
        cli.build_povm("bogus", 1, povm_mod.WeightSpec(1, 1, 1))


def test_exit_code_for_solver_failure(monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("solver broke")

    monkeypatch.setattr(cli, "nhcrb_sdp", explode)
    assert cli.main(["bounds"]) == 3


def test_bounds_origin_values(tmp_path, schema):
    doc = run_json(tmp_path, ["bounds", "--copies", "2", "--weights", "1,1,1"])
    jsonschema.validate(doc, schema)
    assert doc["kind"] == "bounds"
    by_key = {(r["name"], r["normalization"]): r["value"] for r in doc["records"]}
    assert abs(by_key[("nhcrb_analytic", "per_measurement")] - 3.0) < 1e-9
    assert abs(by_key[("nhcrb_analytic", "per_qubit")] - 6.0) < 1e-9
    assert abs(by_key[("holevo", "per_qubit")] - 3.0) < 1e-9
    assert abs(by_key[("qcrb", "per_qubit")] - 3.0) < 1e-9
    assert abs(by_key[("nhcrb_sdp", "per_qubit")] - 6.0) < 1e-4


def test_bounds_normalization_filter(tmp_path, schema):
    doc = run_json(tmp_path, ["bounds", "--normalization", "per_qubit"])
    jsonschema.validate(doc, schema)
    assert all(r["normalization"] == "per_qubit" for r in doc["records"])


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    run_json(tmp_path, ["bounds", "--normalization", "per_qubit"], name="one.json")
    doc = run_json(tmp_path, ["bounds"], name="two.json")
    assert {r["normalization"] for r in doc["records"]} == {"per_measurement", "per_qubit"}


def test_bounds_csv_shape(tmp_path):
    out = tmp_path / "bounds.csv"
    assert cli.main(["bounds", "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,normalization,value,method,copies,gap,iterations"
    assert len(lines) > 1


def test_povm_artifact(tmp_path, schema):
    doc = run_json(tmp_path, ["povm", "--povm", "opt2", "--copies", "2",
                              "--weights", "1,4,9"])
    jsonschema.validate(doc, schema)
    assert doc["name"] == "two_copy_optimal"
    assert doc["dim"] == 4
    assert len(doc["elements"]) == 7
    assert doc["labels"][-1] == "singlet"
    assert abs(sum(doc["probabilities"]) - 1.0) < 1e-9
    assert doc["completeness_deviation"] < 1e-10
    assert doc["weighted_trace_inverse_per_qubit"] > 0


@pytest.mark.parametrize("povm, copies", [("opt1", 1), ("opt2", 2), ("sic", 2), ("ref", 2)])
def test_povm_builds_the_quadratic_model_once(tmp_path, monkeypatch, povm, copies):
    # the probabilities and the Fisher information share the Povm's model;
    # from cold caches, whatever ran before in this process, one call
    # builds it once and a second call reuses the cached measurement
    for constructor in (povm_mod.single_copy_optimal, povm_mod.two_copy_optimal,
                        povm_mod.sic_two_copy, povm_mod.reference_povm):
        constructor.cache_clear()
    calls = []
    build = povm_mod.quadratic_probability_model

    def counting(p):
        calls.append(p.name)
        return build(p)

    monkeypatch.setattr(povm_mod, "quadratic_probability_model", counting)
    argv = ["povm", "--povm", povm, "--copies", str(copies), "--theta", "0.1,-0.2,0.3"]
    doc = run_json(tmp_path, argv)
    assert "fisher" in doc
    assert calls == [doc["name"]]
    assert run_json(tmp_path, argv, name="again.json") == doc
    assert calls == [doc["name"]]


def test_povm_reference_artifact(tmp_path, schema):
    doc = run_json(tmp_path, ["povm", "--povm", "ref", "--copies", "2",
                              "--theta", "0.3,0.3,0.3"])
    jsonschema.validate(doc, schema)
    assert len(doc["elements"]) == 6
    assert doc["completeness_deviation"] < 2e-3


def test_povm_at_a_pure_state_leaves_out_the_singular_fisher(tmp_path, schema):
    doc = run_json(tmp_path, ["povm", "--povm", "opt2", "--copies", "2",
                              "--theta", "0,0,1"])
    jsonschema.validate(doc, schema)
    assert doc["probabilities"][-1] == 0.0
    assert "fisher" not in doc


def test_povm_csv_rows(tmp_path):
    out = tmp_path / "povm.csv"
    assert cli.main(["povm", "--povm", "opt1", "--out", str(out),
                     "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "outcome,label,probability"
    assert len(lines) == 7  # header plus six outcomes


def test_surface_artifact_grid_dedup(tmp_path, schema):
    doc = run_json(tmp_path, ["surface", "--grid", "3", "--copies", "1"])
    jsonschema.validate(doc, schema)
    assert len(doc["planes"]) == 25
    assert len(doc["grid"]) == 25
    assert doc["grid"][0] == [1, 1, 1]
    assert len(doc["vertex_residuals"]) == len(doc["vertices"]) == 25
    assert "clipped" not in doc
    # row k is plane k's tangent point, on the curved surface
    assert max(map(abs, doc["vertex_residuals"])) < 1e-9


def _gill_massar(theta, weights):
    """Single-copy bound per qubit, (Tr sqrt(J^-1/2 W J^-1/2))^2."""
    t = np.asarray(theta, dtype=float)
    vals, vecs = np.linalg.eigh(np.eye(3) - np.outer(t, t))
    root = (vecs * np.sqrt(vals)) @ vecs.T
    inner = root @ np.diag(weights) @ root
    return float(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum() ** 2)


def test_single_copy_surface_runs_no_sdp(tmp_path, schema, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("the single-copy scan must not solve an SDP")

    monkeypatch.setattr(sdp, "solve_lmi", explode)
    doc = run_json(tmp_path, ["surface", "--copies", "1", "--theta", "0.2,0.1,0"])
    jsonschema.validate(doc, schema)
    assert len(doc["planes"]) == 25
    for plane in doc["planes"]:
        want = _gill_massar((0.2, 0.1, 0.0), plane["weights"])
        assert abs(plane["offset"] - want) / want < 1e-10


def test_bounds_analytic_record_off_origin(tmp_path, schema):
    argv = ["bounds", "--theta", "0.3,0.3,0.3", "--weights", "1,4,9",
            "--normalization", "per_qubit"]
    one = run_json(tmp_path, argv + ["--copies", "1"], "one.json")
    jsonschema.validate(one, schema)
    by_name = {r["name"]: r for r in one["records"]}
    want = _gill_massar((0.3, 0.3, 0.3), (1, 4, 9))
    assert by_name["nhcrb_analytic"]["method"] == "analytic"
    assert abs(by_name["nhcrb_analytic"]["value"] - want) / want < 1e-10
    assert abs(by_name["nhcrb_sdp"]["value"] - want) / want < 1e-7
    two = run_json(tmp_path, argv + ["--copies", "2"], "two.json")
    assert {r["name"] for r in two["records"]} == {"qcrb", "holevo", "nhcrb_sdp"}
    # Holevo at every point: Tr W - theta.W theta + 2 |v| = 14 - 1.26 + 4.2
    for doc in (one, two):
        holevo = [r for r in doc["records"] if r["name"] == "holevo"]
        assert [r["value"] for r in holevo] == [16.94]
        assert holevo[0]["copies"] == doc["copies"]


@pytest.mark.parametrize("theta,weights", [
    # the solver used to stop short of its dual tolerance here (exit 3)
    ("-0.003,0.008,-0.003", "1.15,1.24,1.02"),
    # the (2,3,3) grid weights on the first sweep state: a certified stop
    ("0.1,0.1,0.1", "4,9,9"),
    # the solver ran all SDP_MAX_ITER iterations here before its stall stop
    ("0.0252,0.0252,0.0252", "2,2,2"),
])
def test_bounds_at_former_solver_stops(tmp_path, schema, theta, weights):
    doc = run_json(tmp_path, ["bounds", f"--theta={theta}", "--weights", weights,
                              "--copies", "2", "--normalization", "per_qubit"])
    jsonschema.validate(doc, schema)
    by_name = {r["name"]: r for r in doc["records"]}
    sdp_record = by_name["nhcrb_sdp"]
    t = [float(v) for v in theta.split(",")]
    w = [float(v) for v in weights.split(",")]
    assert by_name["holevo"]["value"] - sdp_record["gap"] <= sdp_record["value"]
    assert sdp_record["value"] <= _gill_massar(t, w) + sdp_record["gap"]
    assert sdp_record["gap"] < 1e-5 * sdp_record["value"]


def test_surface_csv_header(tmp_path):
    out = tmp_path / "surface.csv"
    assert cli.main(["surface", "--grid", "2", "--out", str(out),
                     "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vx,vy,vz,residual"


def test_simulate_artifact(tmp_path, schema):
    doc = run_json(tmp_path, [
        "simulate", "--povm", "opt2", "--copies", "2",
        "--shots", "100", "--repeats", "30", "--seed", "9",
    ])
    jsonschema.validate(doc, schema)
    assert doc["kind"] == "simulate"
    assert doc["normalization"] == "per_qubit"
    assert doc["metadata"]["plan"]["repeats"] == 30
    assert doc["metadata"]["estimator"] == "linear"
    assert "mle" not in doc["metadata"]
    assert doc["weighted_trace"] > 0


def test_simulate_reports_mle_statistics(tmp_path, schema):
    doc = run_json(tmp_path, [
        "simulate", "--povm", "opt2", "--copies", "2", "--estimator", "mle",
        "--theta", "0.55,0.55,0.55", "--shots", "131", "--repeats", "30", "--seed", "9",
    ])
    jsonschema.validate(doc, schema)
    stats = doc["metadata"]["mle"]
    assert set(stats) == {"iterations_max", "kkt_norm_max", "on_boundary"}
    assert stats["iterations_max"] >= 1
    assert 0 <= stats["kkt_norm_max"] <= 1e-7
    assert 0 <= stats["on_boundary"] <= 30


def test_simulate_reference_povm_smoke(tmp_path, schema):
    doc = run_json(tmp_path, [
        "simulate", "--povm", "ref", "--copies", "1",
        "--shots", "100", "--repeats", "20", "--seed", "1",
    ])
    jsonschema.validate(doc, schema)


def test_simulate_accepts_an_exact_axis_estimate(tmp_path, schema):
    # one shot of one repetition estimates two of the three axes exactly
    doc = run_json(tmp_path, ["simulate", "--shots", "1", "--repeats", "1",
                              "--copies", "2", "--povm", "opt2"])
    jsonschema.validate(doc, schema)
    assert 0.0 in doc["mse"]
    assert all(v >= 0.0 for v in doc["mse"])


def test_simulate_csv_cells_follow_the_json_artifact(tmp_path):
    argv = ["simulate", "--povm", "opt2", "--copies", "2", "--shots", "100",
            "--repeats", "30", "--seed", "9"]
    doc = run_json(tmp_path, argv)
    out = tmp_path / "simulate.csv"
    assert cli.main(argv + ["--out", str(out), "--format", "csv"]) == 0
    header, row, *rest = out.read_text().splitlines()
    assert header == "vx,vy,vz,weighted_trace,standard_error,mean_x,mean_y,mean_z"
    assert not rest
    want = [*doc["mse"], doc["weighted_trace"], doc["standard_error"],
            *doc["estimates_mean"]]
    assert row.split(",") == [cli.fmt(v) for v in want]


def test_render_csv_formats_floats_only():
    text = cli.render_csv(["a", "b", "c", "d", "e", "f"], [
        [1 / 3, np.float64(2 / 3), 7, np.int64(12345678901234), "label", ""],
    ])
    assert text == "a,b,c,d,e,f\n0.333333333333,0.666666666667,7,12345678901234,label,\n"


def test_unwritable_out_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert cli.main(["bounds", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not out.parent.exists()


def test_reproduce_into_an_existing_file_is_a_validation_error(tmp_path, capsys, monkeypatch):
    # the path is checked before any row is computed
    def no_experiment(*args, **kwargs):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr(cli, "run_experiment", no_experiment)
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert cli.main(["reproduce", "--grid", "1", "--repeats", "5", "--shots", "50",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err
    assert out.read_text() == "keep me\n"


def test_reproduce_under_a_file_is_a_validation_error(tmp_path, capsys, monkeypatch):
    def no_experiment(*args, **kwargs):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr(cli, "run_experiment", no_experiment)
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    assert cli.main(["reproduce", "--grid", "1", "--out", str(taken / "sub" / "dir")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err
    assert taken.read_text() == "keep me\n"


def test_command_output_is_deterministic(tmp_path):
    args = ["simulate", "--povm", "opt2", "--copies", "2", "--shots", "80",
            "--repeats", "25", "--seed", "3", "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_writes_deterministic_artifacts(tmp_path, schema):
    base = ["reproduce", "--grid", "1", "--repeats", "5", "--shots", "50",
            "--seed", "21"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(base + ["--out", str(dir_a)]) == 0
    assert cli.main(base + ["--out", str(dir_b)]) == 0
    names = ["trade_off_demo.csv", "sweep.csv", "summary.json"]
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    assert match == names and not mismatch and not errors

    summary = json.loads((dir_a / "summary.json").read_text())
    jsonschema.validate(summary, schema)
    assert summary["trade_off_demo"]["rows"] == 1
    assert summary["sweep"]["rows"] == 5

    demo_lines = (dir_a / "trade_off_demo.csv").read_text().splitlines()
    assert demo_lines[0] == ",".join(cli.ORIGIN_HEADER)
    assert len(demo_lines) == 2
    sweep_lines = (dir_a / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == ",".join(cli.SWEEP_HEADER)
    assert len(sweep_lines) == 6


def test_reproduce_with_one_repeat_is_a_validation_error(tmp_path, capsys):
    # one repetition has zero standard error, so a row's z-score is undefined
    out = tmp_path / "one"
    assert cli.main(["reproduce", "--repeats", "1", "--grid", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "raise --repeats" in err
    assert not out.exists()


def test_reproduce_rows_draw_from_their_own_seeds():
    # at one seed, two rows with the same weights would be copies of each
    # other; with per-row seeds they draw different counts
    u, w = cli.integer_weight_triples(2)[1]
    origin, _ = cli._origin_rows(((u, w), (u, w)), 50, 5, 21)
    assert origin[0][6:11] != origin[1][6:11]
    sweep = cli._sweep_rows(((u, w), (u, w)), 5, 21)
    for first, second in zip(sweep[::2], sweep[1::2]):
        assert first[:8] == second[:8]
        assert first[8:13] != second[8:13]


def test_rendered_floats_are_short():
    text = cli.render_json({"x": 0.1234567890123456789, "n": [np.float64(1 / 3)]})
    doc = json.loads(text)
    assert doc["x"] == float(format(0.1234567890123456789, ".12g"))
    assert doc["n"][0] == float(format(1 / 3, ".12g"))
    assert text.endswith("\n")


def test_render_json_bytes_over_every_leaf_type():
    # np.float64 is a float and takes the float branch; np.float32 is not and
    # takes the np.floating one; bools stay bools ahead of the integers
    payload = {
        "f": 1 / 3, "g": np.float64(2 / 3), "h": np.float32(0.1), "i": np.int64(7),
        "b": True, "nb": np.bool_(False), "s": "text", "n": None,
        "nest": (1.0, (np.float64(1e-20), [np.float32(2.5), 3]), {"z": -0.0, "a": 1e300}),
    }
    assert cli.render_json(payload) == (
        '{\n  "b": true,\n  "f": 0.333333333333,\n  "g": 0.666666666667,\n'
        '  "h": 0.10000000149,\n  "i": 7,\n  "n": null,\n  "nb": false,\n'
        '  "nest": [\n    1.0,\n    [\n      1e-20,\n      [\n        2.5,\n'
        '        3\n      ]\n    ],\n    {\n      "a": 1e+300,\n      "z": -0.0\n'
        '    }\n  ],\n  "s": "text"\n}\n'
    )
