"""Command-line surface for bounds, POVMs, surface scans, and experiments.

Every command is deterministic given its flags and seed: floats are
printed with 12 significant digits, dictionaries are sorted, and no
timestamps enter the artifacts. JSON artifacts follow the schema shipped
in qtradeoff/schemas/artifacts.schema.json.
"""

import argparse
import csv
import functools
import io
import json
import os
import sys

import numpy as np

from .bounds import (
    BoundValue,
    as_weights,
    holevo,
    nhcrb_analytic,
    nhcrb_sdp,
    qcrb,
)
from .constants import DEFAULT_SEED
from .estimation import (
    DEMO_SHOTS,
    DEMO_THETAS,
    ORIGIN_SHOTS,
    MleError,
    ShotPlan,
    run_experiment,
)
from .linalg import ConvergenceError
from .model import BlochVector, model_point
from .povm import (
    SingularFisherError,
    classical_fisher,
    outcome_probabilities,
    reference_povm,
    sic_two_copy,
    single_copy_optimal,
    two_copy_optimal,
)
from .tradeoff import (
    integer_weight_triples,
    single_copy_surface_residual,
    surface_scan,
    two_copy_surface_residual,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


class CliError(ValueError):
    """Flag or input validation failure (exit code 2)."""


def fmt(value) -> str:
    """Fixed 12-significant-digit rendering used in all artifacts."""
    return format(float(value), ".12g")


def _rounded(obj):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, dict):
        return {key: _rounded(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(fmt(obj))
    return obj


def render_json(payload) -> str:
    return json.dumps(_rounded(payload), indent=2, sort_keys=True) + "\n"


def render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _emit(text, out):
    """Write the finished artifact in one shot (no partial files)."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def parse_triple(text, kind):
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"{kind} needs three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise CliError(f"could not parse {kind} {text!r}") from None


def parse_theta(text) -> BlochVector:
    vals = parse_triple(text, "theta")
    try:
        return BlochVector(*vals)
    except ValueError as exc:
        raise CliError(f"unphysical state: {exc}") from None


def parse_weights(text):
    vals = parse_triple(text, "weights")
    try:
        return as_weights(vals)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _grid_triples(n):
    if n < 1:
        raise CliError("grid size must be at least 1")
    return integer_weight_triples(tuple(range(1, n + 1)))


def _complex_matrix_json(mat):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(mat)]


def _bound_record(name, bound: BoundValue, normalization):
    rec = bound.to(normalization)
    out = {
        "name": name,
        "value": rec.value,
        "normalization": rec.normalization,
        "method": rec.method,
        "copies": rec.copies,
    }
    if rec.gap is not None:
        out["gap"] = rec.gap
    if rec.iterations is not None:
        out["iterations"] = rec.iterations
    return out


def cmd_bounds(args) -> int:
    theta = parse_theta(args.theta)
    weights = parse_weights(args.weights)
    copies = args.copies
    normalizations = (
        (args.normalization,)
        if args.normalization
        else ("per_measurement", "per_qubit")
    )
    point = model_point(theta, copies=copies)
    named = [("qcrb", qcrb(point, weights)), ("holevo", holevo(point, weights)),
             ("nhcrb_analytic", nhcrb_analytic(point, weights))]
    weights.require_positive()
    named.append(("nhcrb_sdp", nhcrb_sdp(point, weights)))
    records = [_bound_record(name, bound, norm) for name, bound in named
               if bound is not None for norm in normalizations]
    payload = {
        "kind": "bounds",
        "theta": list(theta.array),
        "copies": copies,
        "weights": list(weights.array),
        "records": records,
    }
    if args.format == "json":
        _emit(render_json(payload), args.out)
    else:
        header = ["name", "normalization", "value", "method", "copies", "gap", "iterations"]
        rows = [
            [
                r["name"],
                r["normalization"],
                fmt(r["value"]),
                r["method"],
                r["copies"],
                fmt(r["gap"]) if "gap" in r else "",
                r.get("iterations", ""),
            ]
            for r in records
        ]
        _emit(render_csv(header, rows), args.out)
    return EXIT_OK


def build_povm(choice, copies, weights):
    """Construct the named measurement, checking the copies flag."""
    expected = {"opt1": 1, "opt2": 2, "sic": 2}.get(choice)
    if expected is not None and copies != expected:
        raise CliError(f"povm {choice!r} measures {expected} copies, got --copies {copies}")
    if choice == "opt1":
        return single_copy_optimal(weights)
    if choice == "opt2":
        return two_copy_optimal(weights)
    if choice == "sic":
        return sic_two_copy()
    if choice == "ref":
        return reference_povm(copies)
    raise CliError(f"unknown povm {choice!r}")


def cmd_povm(args) -> int:
    theta = parse_theta(args.theta)
    weights = parse_weights(args.weights)
    povm = build_povm(args.povm, args.copies, weights)
    probs = outcome_probabilities(theta, povm)
    payload = {
        "kind": "povm",
        "name": povm.name,
        "dim": povm.dim,
        "labels": list(povm.labels),
        "completeness_deviation": povm.completeness_deviation(),
        "elements": [_complex_matrix_json(e) for e in povm.elements],
        "theta": list(theta.array),
        "probabilities": list(probs),
    }
    try:
        fisher = classical_fisher(theta, povm)
    except SingularFisherError:
        fisher = None
    if fisher is not None:
        payload["fisher"] = [list(row) for row in fisher.matrix]
        payload["weights"] = list(weights.array)
        payload["weighted_trace_inverse_per_measurement"] = (
            fisher.weighted_trace_inverse(weights, "per_measurement")
        )
        payload["weighted_trace_inverse_per_qubit"] = (
            fisher.weighted_trace_inverse(weights, "per_qubit")
        )
    if args.format == "json":
        _emit(render_json(payload), args.out)
    else:
        header = ["outcome", "label", "probability"]
        rows = [
            [i, povm.labels[i], fmt(probs[i])]
            for i in range(povm.n_outcomes)
        ]
        _emit(render_csv(header, rows), args.out)
    return EXIT_OK


def cmd_surface(args) -> int:
    theta = parse_theta(args.theta)
    if args.weights is not None:
        grid = ((None, parse_weights(args.weights)),)
    else:
        grid = _grid_triples(args.grid)
    scan = surface_scan(theta, args.copies, tuple(w for _, w in grid))
    residual = (
        single_copy_surface_residual if args.copies == 1 else two_copy_surface_residual
    )
    residuals = [residual(v) for v in scan.vertices] if theta.norm == 0.0 else None
    payload = {"kind": "surface", **scan.to_json_dict()}
    if all(u is not None for u, _ in grid):
        payload["grid"] = [list(u) for u, _ in grid]
    if residuals is not None:
        payload["vertex_residuals"] = residuals
    if args.format == "json":
        _emit(render_json(payload), args.out)
    else:
        header = ["vx", "vy", "vz"] + (["residual"] if residuals is not None else [])
        rows = []
        for i, v in enumerate(scan.vertices):
            row = [fmt(v.vx), fmt(v.vy), fmt(v.vz)]
            if residuals is not None:
                row.append(fmt(residuals[i]))
            rows.append(row)
        _emit(render_csv(header, rows), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    theta = parse_theta(args.theta)
    weights = parse_weights(args.weights)
    weights.require_positive()
    povm = build_povm(args.povm, args.copies, weights)
    plan = ShotPlan(
        theta_true=theta,
        povm=povm,
        shots_per_repeat=args.shots,
        repeats=args.repeats,
        seed=args.seed,
    )
    report = run_experiment(plan, weights, estimator=args.estimator)
    payload = {"kind": "simulate", **report.to_json_dict()}
    if args.format == "json":
        _emit(render_json(payload), args.out)
    else:
        header = [
            "vx", "vy", "vz", "weighted_trace", "standard_error",
            "mean_x", "mean_y", "mean_z",
        ]
        mean = report.estimates_mean
        rows = [[
            fmt(report.mse.vx), fmt(report.mse.vy), fmt(report.mse.vz),
            fmt(report.weighted_trace), fmt(report.standard_error),
            fmt(mean[0]), fmt(mean[1]), fmt(mean[2]),
        ]]
        _emit(render_csv(header, rows), args.out)
    return EXIT_OK


def _row_seed(seed, table, row):
    """Experiment seed of one artifact row, from SeedSequence([seed, table, row]).

    table is 0 for trade_off_demo.csv and 1 for sweep.csv, so no two rows
    of a reproduce run share a random stream and their z-scores pool as
    independent draws.
    """
    return int(np.random.SeedSequence([seed, table, row]).generate_state(1)[0])


def _origin_rows(grid, shots, repeats, seed):
    """Origin trade-off demo: per-weight two-copy and SIC runs.

    Each row draws from its own seed; its SIC twin shares that seed. A row
    whose standard error is 0, as with one repetition, has no z-score and
    raises CliError.
    """
    rows = []
    zs = []
    origin = BlochVector(0.0, 0.0, 0.0)
    sic = sic_two_copy()
    for row, (u, w) in enumerate(grid):
        row_seed = _row_seed(seed, 0, row)
        plan = ShotPlan(origin, two_copy_optimal(w), shots, repeats, row_seed)
        rep = run_experiment(plan, w, estimator="linear")
        if rep.standard_error == 0.0:
            raise CliError(
                f"trade-off demo row {row} has zero standard error over "
                f"{repeats} repetition(s), so its z-score is undefined; raise --repeats"
            )
        sic_plan = ShotPlan(origin, sic, shots, repeats, row_seed)
        sic_rep = run_experiment(sic_plan, w, estimator="linear")
        c1 = rep.metadata["single_copy_bound_per_qubit"]
        c2 = rep.metadata["two_copy_bound_per_qubit"]
        z = rep.metadata["z_vs_single_copy"]
        zs.append(z)
        rows.append([
            u[0], u[1], u[2],
            fmt(w.wx), fmt(w.wy), fmt(w.wz),
            fmt(rep.mse.vx), fmt(rep.mse.vy), fmt(rep.mse.vz),
            fmt(rep.weighted_trace), fmt(rep.standard_error),
            fmt(sic_rep.weighted_trace), fmt(sic_rep.standard_error),
            fmt(c1), fmt(c2), fmt(z),
        ])
    return rows, np.array(zs)


ORIGIN_HEADER = [
    "ux", "uy", "uz", "wx", "wy", "wz",
    "vx", "vy", "vz", "weighted_trace", "standard_error",
    "sic_weighted_trace", "sic_standard_error",
    "single_copy_bound", "two_copy_bound", "z_vs_single_copy",
]

SWEEP_HEADER = [
    "t", "shots", "ux", "uy", "uz", "wx", "wy", "wz",
    "vx", "vy", "vz", "weighted_trace", "standard_error",
    "nhcrb_single_per_qubit", "nhcrb_two_per_qubit",
]


def _sweep_rows(grid, repeats, seed):
    """MLE sweep over mixedness t with matched shot budgets, one seed per row."""
    rows = []
    for t, shots in zip(DEMO_THETAS, DEMO_SHOTS):
        theta = BlochVector(t, t, t)
        for u, w in grid:
            row_seed = _row_seed(seed, 1, len(rows))
            plan = ShotPlan(theta, two_copy_optimal(w), shots, repeats, row_seed)
            rep = run_experiment(plan, w, estimator="mle")
            # the single-copy bound has a closed form at every t; the
            # two-copy bound off the origin comes from the SDP
            b1 = nhcrb_analytic(model_point(theta, copies=1), w).value
            b2 = nhcrb_sdp(model_point(theta, copies=2), w).value
            rows.append([
                fmt(t), shots,
                u[0], u[1], u[2],
                fmt(w.wx), fmt(w.wy), fmt(w.wz),
                fmt(rep.mse.vx), fmt(rep.mse.vy), fmt(rep.mse.vz),
                fmt(rep.weighted_trace), fmt(rep.standard_error),
                fmt(b1), fmt(b2),
            ])
    return rows


def cmd_reproduce(args) -> int:
    grid = _grid_triples(args.grid)
    shots = args.shots if args.shots is not None else ORIGIN_SHOTS
    origin_rows, zs = _origin_rows(grid, shots, args.repeats, args.seed)
    sweep_rows = _sweep_rows(grid, args.repeats, args.seed)
    summary = {
        "kind": "summary",
        "seed": args.seed,
        "trade_off_demo": {
            "rows": len(origin_rows),
            "shots": shots,
            "repeats": args.repeats,
            "mean_z_vs_single_copy": float(zs.mean()),
            "min_z_vs_single_copy": float(zs.min()),
            "pooled_z_vs_single_copy": float(zs.sum() / np.sqrt(len(zs))),
            # z = (bound - weighted trace) / SE with SE > 0
            "all_below_single_copy": bool((zs > 0).all()),
        },
        "sweep": {
            "rows": len(sweep_rows),
            "repeats": args.repeats,
            "thetas": list(DEMO_THETAS),
            "shots": list(DEMO_SHOTS),
        },
    }
    os.makedirs(args.out, exist_ok=True)
    artifacts = {
        os.path.join(args.out, "trade_off_demo.csv"): render_csv(ORIGIN_HEADER, origin_rows),
        os.path.join(args.out, "sweep.csv"): render_csv(SWEEP_HEADER, sweep_rows),
        os.path.join(args.out, "summary.json"): render_json(summary),
    }
    for path, text in artifacts.items():
        with open(path, "w") as fh:
            fh.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qtradeoff argument parser, built once per process.

    Parsing leaves the parser unchanged (every call fills a fresh
    namespace from the defaults), so every `main` call shares this one.
    """
    parser = argparse.ArgumentParser(
        prog="qtradeoff",
        description="Qubit tomography trade-off bounds, POVMs, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weights=True):
        p.add_argument("--theta", default="0,0,0", help="Bloch vector a,b,c")
        if weights:
            p.add_argument("--weights", default="1,1,1", help="weight triple a,b,c")
        p.add_argument("--copies", type=int, choices=(1, 2), default=1)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("bounds", help="precision bounds at a model point")
    common(p)
    p.add_argument(
        "--normalization",
        choices=("per_measurement", "per_qubit"),
        default=None,
        help="restrict records to one normalization (default: both)",
    )
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("povm", help="construct and evaluate a measurement")
    common(p)
    p.add_argument("--povm", choices=("opt1", "opt2", "sic", "ref"), default="opt1")
    p.set_defaults(func=cmd_povm)

    p = sub.add_parser("surface", help="scan a trade-off surface")
    common(p, weights=False)
    p.add_argument("--weights", default=None, help="single weight triple a,b,c")
    p.add_argument("--grid", type=int, default=3, help="integer grid 1..n per axis")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("simulate", help="Monte Carlo estimation experiment")
    common(p)
    p.add_argument("--shots", type=int, default=ORIGIN_SHOTS)
    p.add_argument("--repeats", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--estimator", choices=("linear", "mle"), default="linear")
    p.add_argument("--povm", choices=("opt1", "opt2", "sic", "ref"), default="opt1")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="desk-scale reproduction artifacts")
    p.add_argument("--out", default="artifacts", help="output directory")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--repeats", type=int, default=1000)
    p.add_argument("--grid", type=int, default=3)
    p.add_argument(
        "--shots",
        type=int,
        default=None,
        help="origin-demo shots per repeat (default 309; sweep uses matched budgets)",
    )
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, MleError, SingularFisherError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
