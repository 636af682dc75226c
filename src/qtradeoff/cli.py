"""Command-line surface for bounds, POVMs, surface scans, and experiments.

Every command is deterministic given its flags and seed. It hands its
artifact, as raw values, to one writer, `_write`: floats get 12
significant digits in JSON and CSV alike, dictionaries are sorted, and no
timestamps enter the artifacts. JSON artifacts follow the schema shipped
in qtradeoff/schemas/artifacts.schema.json.
"""

import argparse
import csv
import errno
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


def fmt(value) -> str:
    """Fixed 12-significant-digit rendering used in all artifacts."""
    return format(float(value), ".12g")


def _rounded(obj):
    """Round every float in a JSON-ready structure to 12 significant digits.

    Floats come first, as the most common leaf; np.float64 is a float.
    """
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {key: _rounded(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(fmt(obj))
    return obj


def render_json(payload) -> str:
    return json.dumps(_rounded(payload), indent=2, sort_keys=True) + "\n"


def render_csv(header, rows) -> str:
    """CSV text; float cells get `fmt`, every other cell is written as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(c) if isinstance(c, (float, np.floating)) else c for c in row])
    return buf.getvalue()


def _emit(text, out):
    """Write the finished artifact to stdout or to out. A regular or new file is
    written beside its symlink-resolved target and moved into place, so a failed
    write leaves the old file as it was; /dev/null or a FIFO is written in place."""
    if out is None:
        sys.stdout.write(text)
    elif os.path.exists(out) and not os.path.isfile(out):
        with open(out, "w") as fh:
            fh.write(text)
    else:
        target = os.path.realpath(out) if os.path.islink(out) else out
        tmp = f"{target}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise


def _write(args, payload, header, rows) -> int:
    """Emit a command's artifact: payload as JSON, or header and rows as CSV."""
    text = render_json(payload) if args.format == "json" else render_csv(header, rows)
    _emit(text, args.out)
    return EXIT_OK


def parse_triple(text, kind):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{kind} needs three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"could not parse {kind} {text!r}") from None


def parse_theta(text) -> BlochVector:
    vals = parse_triple(text, "theta")
    try:
        return BlochVector(*vals)
    except ValueError as exc:
        raise ValueError(f"unphysical state: {exc}") from None


def parse_weights(text):
    return as_weights(parse_triple(text, "weights"))


def _complex_matrix_json(mat):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(mat)]


def _divisor(normalization, copies):
    """Per measurement is per qubit over the qubits one measurement consumes."""
    return copies if normalization == "per_measurement" else 1


def _bound_record(name, bound: BoundValue, normalization):
    divisor = _divisor(normalization, bound.copies)
    out = {
        "name": name,
        "value": bound.value / divisor,
        "normalization": normalization,
        "method": bound.method,
        "copies": bound.copies,
    }
    if bound.gap is not None:
        out["gap"] = bound.gap / divisor
    if bound.iterations is not None:
        out["iterations"] = bound.iterations
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
    point = model_point(theta, copies)
    named = [("qcrb", qcrb(point, weights)), ("holevo", holevo(point, weights)),
             ("nhcrb_analytic", nhcrb_analytic(point, weights)),
             ("nhcrb_sdp", nhcrb_sdp(point, weights))]
    records = [_bound_record(name, bound, norm) for name, bound in named
               if bound is not None for norm in normalizations]
    payload = {
        "kind": "bounds",
        "theta": list(theta.array),
        "copies": copies,
        "weights": list(weights.array),
        "records": records,
    }
    header = ["name", "normalization", "value", "method", "copies", "gap", "iterations"]
    rows = [[r.get(key, "") for key in header] for r in records]
    return _write(args, payload, header, rows)


def build_povm(choice, copies, weights):
    """Construct the named measurement, checking the copies flag."""
    expected = {"opt1": 1, "opt2": 2, "sic": 2}.get(choice)
    if expected is not None and copies != expected:
        raise ValueError(f"povm {choice!r} measures {expected} copies, got --copies {copies}")
    if choice == "opt1":
        return single_copy_optimal(weights)
    if choice == "opt2":
        return two_copy_optimal(weights)
    if choice == "sic":
        return sic_two_copy()
    if choice == "ref":
        return reference_povm(copies)
    raise ValueError(f"unknown povm {choice!r}")


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
        floor = fisher.weighted_trace_inverse(weights)
        for norm in ("per_measurement", "per_qubit"):
            payload[f"weighted_trace_inverse_{norm}"] = floor / _divisor(norm, fisher.copies)
    rows = [[i, label, p] for i, (label, p) in enumerate(zip(povm.labels, probs))]
    return _write(args, payload, ["outcome", "label", "probability"], rows)


def cmd_surface(args) -> int:
    theta = parse_theta(args.theta)
    grid = integer_weight_triples(args.grid)
    scan = surface_scan(theta, args.copies, [w for _, w in grid])
    payload = {"kind": "surface", **scan.to_json_dict(),
               "grid": [list(u) for u, _ in grid]}
    header = ["vx", "vy", "vz"]
    rows = scan.vertices.tolist()
    if theta.norm == 0.0:
        residual = (
            single_copy_surface_residual if args.copies == 1 else two_copy_surface_residual
        )
        payload["vertex_residuals"] = residual(scan.vertices).tolist()
        header.append("residual")
        for row, r in zip(rows, payload["vertex_residuals"]):
            row.append(r)
    return _write(args, payload, header, rows)


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
    header = ["vx", "vy", "vz", "weighted_trace", "standard_error",
              "mean_x", "mean_y", "mean_z"]
    row = [*report.mse, report.weighted_trace, report.standard_error,
           *report.estimates_mean]
    return _write(args, payload, header, [row])


def _row_seed(seed, table, row):
    """Experiment seed of one artifact row, from SeedSequence([seed, table, row]).

    table is 0 for trade_off_demo.csv and 1 for sweep.csv, so no two rows
    of a reproduce run share a random stream and their z-scores pool as
    independent draws.
    """
    return int(np.random.SeedSequence([seed, table, row]).generate_state(1)[0])


def _origin_rows(grid, shots, repeats, seed):
    """Origin trade-off demo: per-weight two-copy and SIC runs.

    Rows hold raw values in ORIGIN_HEADER order. Each row draws from its
    own seed; its SIC twin shares that seed. A row whose standard error is
    0, as with one repetition, has no z-score and raises ValueError.
    """
    rows = []
    zs = []
    origin = BlochVector(0.0, 0.0, 0.0)
    for row, (u, w) in enumerate(grid):
        row_seed = _row_seed(seed, 0, row)
        plan = ShotPlan(origin, two_copy_optimal(w), shots, repeats, row_seed)
        rep = run_experiment(plan, w, estimator="linear")
        if rep.standard_error == 0.0:
            raise ValueError(
                f"trade-off demo row {row} has zero standard error over "
                f"{repeats} repetition(s), so its z-score is undefined; raise --repeats"
            )
        sic_plan = ShotPlan(origin, sic_two_copy(), shots, repeats, row_seed)
        sic_rep = run_experiment(sic_plan, w, estimator="linear")
        z = rep.metadata["z_vs_single_copy"]
        zs.append(z)
        rows.append([
            *u, w.wx, w.wy, w.wz, *rep.mse, rep.weighted_trace, rep.standard_error,
            sic_rep.weighted_trace, sic_rep.standard_error,
            rep.metadata["single_copy_bound_per_qubit"],
            rep.metadata["two_copy_bound_per_qubit"], z,
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
    """MLE sweep over mixedness t with matched shot budgets, one seed per row.

    Rows hold raw values in SWEEP_HEADER order. The single-copy bound has a
    closed form at every t, which run_experiment stores; the two-copy bound
    off the origin comes from the SDP.
    """
    rows = []
    for t, shots in zip(DEMO_THETAS, DEMO_SHOTS):
        theta = BlochVector(t, t, t)
        for u, w in grid:
            row_seed = _row_seed(seed, 1, len(rows))
            plan = ShotPlan(theta, two_copy_optimal(w), shots, repeats, row_seed)
            rep = run_experiment(plan, w, estimator="mle")
            rows.append([
                t, shots, *u, w.wx, w.wy, w.wz,
                *rep.mse, rep.weighted_trace, rep.standard_error,
                rep.metadata["single_copy_bound_per_qubit"],
                nhcrb_sdp(model_point(theta, 2), w).value,
            ])
    return rows


def cmd_reproduce(args) -> int:
    # an --out at or under a file fails before any row is computed, with
    # the error os.makedirs would raise; the directory itself is made only
    # once the rows are
    out = existing = os.path.abspath(args.out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        code = errno.EEXIST if existing == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), args.out)
    grid = integer_weight_triples(args.grid)
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
    _emit(render_csv(ORIGIN_HEADER, origin_rows), os.path.join(args.out, "trade_off_demo.csv"))
    _emit(render_csv(SWEEP_HEADER, sweep_rows), os.path.join(args.out, "sweep.csv"))
    _emit(render_json(summary), os.path.join(args.out, "summary.json"))
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, MleError, SingularFisherError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
