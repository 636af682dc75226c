"""Seeded operation lists for the benchmark workloads.

An op is the argv of one `qtradeoff` CLI call (without `--out`) together with
the inputs the oracles need. Every list follows a fixed slot pattern and draws
only the values inside each slot from the seed, so any prefix of a list holds
the same mix of op kinds whatever the seed. That keeps the timed mix, and with
it the medians and percentiles, comparable across seeds.

The demo constants are copied from the paper set-up rather than imported from
the package, so a change to the package cannot silently change the inputs.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("sweep_mle", "bounds_sdp", "origin_scan")

DEMO_THETAS = (0.1, 0.2, 0.3, 0.4, 0.5)
DEMO_SHOTS = (309, 238, 196, 156, 131)
ORIGIN_SHOTS = 309

SWEEP_REPEATS = 40
SWEEP_MAX_NORM = 0.95
ORIGIN_REPEATS = 1000
# The near-sphere shell, where most two-copy solves fail and each failure
# takes up to a second, is the separate failure probe, not part of the
# timed mix.
BOUNDS_MAX_NORM = 0.98
WEIGHT_RATIO_DECADES = 6.0
SHELL_NORMS = (0.999, 0.9999)
SHELL_POINTS_PER_NORM = 4

# Two-copy inputs the solver has failed on: the near-sphere cases first
# reported (placed on the (1,1,1) axis), then points of bounds_sdp lists
# drawn fresh per seed, before the fixed pool, where it loses positive
# definiteness with one BLAS thread.
_AXIS = 1.0 / math.sqrt(3.0)
KNOWN_FAILURES = (
    ((0.999 * _AXIS,) * 3, (1e-6, 1.0, 1.0)),
    ((0.9999 * _AXIS,) * 3, (1.0, 1.0, 1.0)),
    ((0.9999 * _AXIS,) * 3, (1.0, 1e-3, 1e3)),
    ((0.9999 * _AXIS,) * 3, (1e-6, 1.0, 1.0)),
    ((-0.02141671339944108, 0.12205221691722412, 0.016886875291735177),
     (0.8176444287622038, 0.18212724390317878, 0.00022832733461752985)),
    ((0.45818702495775865, -0.4035589905560469, -0.7245244621032304),
     (0.33278369705141464, 0.326210561485985, 0.3410057414626003)),
    ((0.0698952878797295, 0.0021910788616002494, -0.054460820725617996),
     (0.46852001821591044, 0.299295815539016, 0.23218416624507365)),
    ((0.0, 0.0, 0.0),
     (2.341816333302039e-05, 1.3391890542685399e-05, 0.9999631899461243)),
    ((0.0, 0.0, 0.0),
     (1.4067185055771392e-05, 2.45088660005989e-05, 0.9999614239489436)),
    ((0.9350374218746726, -0.27683428225290974, -0.09482183463381409),
     (0.010570743002505696, 0.22127705578979975, 0.7681522012076946)),
)

OPS_PER_LIST = 1200


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv and the inputs its oracle checks against."""

    argv: tuple
    theta: tuple
    weights: tuple
    copies: int

    @property
    def command(self):
        return self.argv[0]


def _triple(values):
    return ",".join(repr(float(v)) for v in values)


def grid_weights():
    """The 25 distinct weights u^2 / |u|^2 for u in {1,2,3}^3 (`--grid 3`)."""
    out = []
    for u in itertools.product((1, 2, 3), repeat=3):
        if math.gcd(*u) == 1:
            sq = np.array(u, dtype=float) ** 2
            out.append(tuple(float(v) for v in sq / sq.sum()))
    return tuple(out)


def _direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _log_uniform_weights(rng):
    w = 10.0 ** rng.uniform(0.0, WEIGHT_RATIO_DECADES, size=3)
    return tuple(float(x) for x in w / w.sum())


def bounds_op(theta, weights, copies):
    argv = ("bounds", f"--theta={_triple(theta)}", f"--weights={_triple(weights)}",
            "--copies", str(copies))
    return Op(argv, tuple(float(t) for t in theta), tuple(weights), copies)


def simulate_op(theta, weights, povm, estimator, shots, repeats, seed):
    argv = ("simulate", f"--theta={_triple(theta)}", f"--weights={_triple(weights)}",
            "--copies", "2", "--povm", povm, "--estimator", estimator,
            "--shots", str(shots), "--repeats", str(repeats), "--seed", str(seed))
    return Op(argv, tuple(float(t) for t in theta), tuple(weights), 2)


def surface_op(copies):
    argv = ("surface", "--theta=0,0,0", "--copies", str(copies), "--grid", "3")
    return Op(argv, (0.0, 0.0, 0.0), (), copies)


def _sweep_mle(rng, n):
    """Alternate the five demo states with generic interior points.

    Demo states (t, t, t) use eigenstate-mixture sampling with the matched
    shot budgets; the generic points use direct sampling, one radius stratum
    per slot up to |theta| = 0.95, where the MLE's ball constraint binds.
    """
    grid = grid_weights()
    ops = []
    while len(ops) < n:
        for k in range(len(DEMO_THETAS)):
            t = DEMO_THETAS[k]
            w = grid[rng.integers(len(grid))]
            ops.append(simulate_op((t, t, t), w, "opt2", "mle", DEMO_SHOTS[k],
                                   SWEEP_REPEATS, int(rng.integers(2 ** 31))))
            radius = 0.1 + (SWEEP_MAX_NORM - 0.1) * (k + rng.uniform()) / len(DEMO_THETAS)
            w = grid[rng.integers(len(grid))]
            shots = int(rng.integers(DEMO_SHOTS[-1], DEMO_SHOTS[0] + 1))
            ops.append(simulate_op(radius * _direction(rng), w, "opt2", "mle", shots,
                                   SWEEP_REPEATS, int(rng.integers(2 ** 31))))
    return ops[:n]


# One block of bounds_sdp: a third single-copy, so both the median and the
# 90th percentile fall inside the two-copy latency band, not between bands.
BOUNDS_COPIES = (2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2)


# The timed bounds_sdp ops are drawn from a fixed pool of inputs rather than
# fresh for each seed: the two-copy solver also stops on about one interior
# input in three thousand (KNOWN_FAILURES), and the timed mix has to run
# without failures. Every pool input was solved at the seed code; the seed
# picks the order in which each slot goes through its inputs. The inputs it
# fails on stay visible in the failure probe.
BOUNDS_POOL_SEED = 20260
BOUNDS_POOL_PER_SLOT = 40


@functools.lru_cache(maxsize=None)
def bounds_pool():
    """For each slot of BOUNDS_COPIES, BOUNDS_POOL_PER_SLOT (theta, weights).

    Slot 0 is the origin, the others radius strata up to BOUNDS_MAX_NORM in
    random directions; weights are log-uniform.
    """
    rng = np.random.default_rng(BOUNDS_POOL_SEED)
    interior = len(BOUNDS_COPIES) - 1
    pool = []
    for slot in range(len(BOUNDS_COPIES)):
        entries = []
        for _ in range(BOUNDS_POOL_PER_SLOT):
            w = _log_uniform_weights(rng)
            if slot == 0:
                theta = (0.0, 0.0, 0.0)
            else:
                radius = BOUNDS_MAX_NORM * (slot - 1 + rng.uniform()) / interior
                theta = tuple(float(t) for t in radius * _direction(rng))
            entries.append((theta, w))
        pool.append(tuple(entries))
    return tuple(pool)


def _bounds_sdp(rng, n):
    """Each block runs the slots in order. Each slot goes through its pool
    inputs in a seeded order, so a run of a few hundred ops uses nearly the
    same inputs whatever the seed, and the seed moves the percentiles less.
    """
    pool = bounds_pool()
    ops = []
    block = 0
    while len(ops) < n:
        if block % BOUNDS_POOL_PER_SLOT == 0:
            orders = [rng.permutation(BOUNDS_POOL_PER_SLOT) for _ in BOUNDS_COPIES]
        for slot, copies in enumerate(BOUNDS_COPIES):
            theta, w = pool[slot][orders[slot][block % BOUNDS_POOL_PER_SLOT]]
            ops.append(bounds_op(theta, w, copies))
        block += 1
    return ops[:n]


# One block of origin_scan: surface scans are a fifth of the ops, so the 90th
# percentile is the middle of the surface band and the median sits in the
# simulate band.
ORIGIN_PATTERN = ("opt2", "sic", "opt2", "surface1", "sic",
                  "opt2", "sic", "surface2", "opt2", "sic")


def _origin_scan(rng, n):
    grid = grid_weights()
    origin = (0.0, 0.0, 0.0)
    ops = []
    while len(ops) < n:
        for kind in ORIGIN_PATTERN:
            if kind.startswith("surface"):
                ops.append(surface_op(int(kind[-1])))
                continue
            w = grid[rng.integers(len(grid))]
            ops.append(simulate_op(origin, w, kind, "linear", ORIGIN_SHOTS,
                                   ORIGIN_REPEATS, int(rng.integers(2 ** 31))))
    return ops[:n]


_GENERATORS = {"sweep_mle": _sweep_mle, "bounds_sdp": _bounds_sdp,
               "origin_scan": _origin_scan}


def _rng(seed, stream):
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.default_rng([seed, stream])


def generate(workload, seed, n=OPS_PER_LIST):
    """The seeded op list of a workload; op 0 is the untimed warm-up."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    return _GENERATORS[workload](_rng(seed, WORKLOADS.index(workload)), n)


def blas_subset(seed, n):
    """The first n two-copy ops of bounds_sdp, for the BLAS-threads diagnostic."""
    ops = generate("bounds_sdp", seed, 2 * n)
    return [op for op in ops if op.copies == 2][:n]


def failure_probe(seed):
    """Two-copy bounds the solver fails on: KNOWN_FAILURES plus seeded
    near-sphere points, each on one of SHELL_NORMS with log-uniform weights.
    """
    ops = [bounds_op(theta, w, 2) for theta, w in KNOWN_FAILURES]
    rng = _rng(seed, len(WORKLOADS))
    for r in SHELL_NORMS:
        for _ in range(SHELL_POINTS_PER_NORM):
            ops.append(bounds_op(r * _direction(rng), _log_uniform_weights(rng), 2))
    return ops
