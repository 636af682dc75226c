"""Trade-off surfaces for the per-parameter mean squared errors.

Analytic membership predicates for the single-copy and two-copy attainable
regions, the integer weight grid, and a halfspace-intersection scan that
reconstructs the surface numerically from weighted bounds at arbitrary
interior parameter values. The surfaces' tangent points are the per-qubit
diag(F^-1) of the weight-adapted optimal measurements (povm.classical_fisher
of single_copy_optimal and two_copy_optimal).

All quantities here are per-qubit normalized. At the origin every
attainable point has V_i >= 1 (the per-parameter bound); away from the
origin the per-parameter floor is 1 - theta_i^2, which is what the scan uses
as its coordinate cut.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .constants import (
    PARALLEL_NORMAL_TOL,
    SCAN_BATCH_ENTRIES,
    SCREEN_WIDTH,
    SURFACE_FEAS_TOL,
    VERTEX_BOX_LIMIT,
    VERTEX_MERGE_TOL,
)
from .model import BlochVector, model_point
from .povm import WeightSpec

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MsePoint:
    """Per-qubit normalized mean squared errors (Vx, Vy, Vz).

    A coordinate may be 0: a finite experiment can estimate an axis exactly.
    """

    vx: float
    vy: float
    vz: float

    def __post_init__(self):
        # one comparison per coordinate: NaN and inf fail it, as does a
        # negative value
        if not (0.0 <= self.vx < math.inf and 0.0 <= self.vy < math.inf
                and 0.0 <= self.vz < math.inf):
            raise ValueError(f"MSE coordinates must be finite and >= 0, got {tuple(self.array)}")

    @property
    def array(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.vz], dtype=float)


@dataclass(frozen=True)
class SupportingPlane:
    """Halfspace w . V >= offset excluded by a weighted bound."""

    weights: WeightSpec
    offset: float

    def __post_init__(self):
        if not 0.0 < self.offset < math.inf:
            raise ValueError(f"plane offset must be positive, got {self.offset}")


@dataclass(frozen=True)
class SurfaceScan:
    """Planes and their polyhedral intersection vertices at one model point."""

    theta: BlochVector
    copies: int
    planes: tuple
    vertices: tuple
    clipped: int

    def to_json_dict(self) -> dict:
        return {
            "theta": [self.theta.x, self.theta.y, self.theta.z],
            "copies": self.copies,
            "planes": [
                {"weights": list(p.weights.array), "offset": p.offset}
                for p in self.planes
            ],
            "vertices": [[v.vx, v.vy, v.vz] for v in self.vertices],
            "clipped": self.clipped,
        }


def single_copy_surface_residual(p: MsePoint) -> float:
    """VxVyVz - VxVy - VxVz - VyVz; >= 0 is attainable with single-copy
    measurements, 0 on the boundary."""
    vx, vy, vz = p.vx, p.vy, p.vz
    return vx * vy * vz - vx * vy - vx * vz - vy * vz


def two_copy_surface_residual(p: MsePoint) -> float:
    """VxVyVz - VxVy - VxVz - VyVz + 3(Vx+Vy+Vz)/4 - 1/2; >= 0 is attainable
    with two-copy collective measurements."""
    vx, vy, vz = p.vx, p.vy, p.vz
    return (
        vx * vy * vz
        - vx * vy
        - vx * vz
        - vy * vz
        + 0.75 * (vx + vy + vz)
        - 0.5
    )


@functools.cache
def integer_weight_triples(n: int = 3) -> tuple:
    """Pairs (u, weights) with weights = Diag(u^2)/sum(u^2) for the triples
    u in {1..n}^3 with gcd(u) = 1, in product order: one per ray, as the
    first triple of a ray in that order is its primitive one, so n = 3 gives
    25 of 27. Built once per n and shared, as WeightSpecs are frozen.
    """
    if n < 1:
        raise ValueError(f"grid size must be at least 1, got {n}")
    return tuple((u, WeightSpec.from_integers(u))
                 for u in itertools.product(range(1, n + 1), repeat=3)
                 if math.gcd(*u) == 1)


def _merge_vertices(points: np.ndarray) -> np.ndarray:
    """The rows of `points` in lexicographic order, each dropped when it lies
    within VERTEX_MERGE_TOL of an earlier row that was kept.

    Only earlier rows whose x lies within twice the tolerance can be that
    close, so the distances are taken over those pairs alone, in one call,
    each with the bits of np.linalg.norm(v - u). A row is kept when none of
    its close earlier rows is, which the pass over the close pairs decides
    in sorted order.
    """
    points = points[np.lexsort(points.T[::-1])]
    x = points[:, 0]
    window = np.arange(len(x)) - np.searchsorted(x, x - 2.0 * VERTEX_MERGE_TOL)
    later = np.repeat(np.arange(len(x)), window)
    earlier = later - (np.cumsum(window)[later] - np.arange(len(later)))
    diff = points[later] - points[earlier]
    # a stacked (1, 3) @ (3, 1) product is the dot product np.linalg.norm takes
    close = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0]) < VERTEX_MERGE_TOL
    keep = np.ones(len(points), dtype=bool)
    for a, b in zip(later[close], earlier[close]):
        if keep[b]:
            keep[a] = False
    return points[keep]


def surface_scan(theta, copies: int, weight_grid) -> SurfaceScan:
    """Reconstruct the trade-off surface from weighted bounds.

    For each weight triple the per-qubit collective bound defines the
    halfspace w . V >= C(w), from its closed form where one exists and from
    the SDP otherwise. The model point depends on theta alone, so one is
    built per scan and shared by every plane. Candidate vertices are the
    intersections of all plane triples with independent normals, taken in
    batches of at most SCAN_BATCH_ENTRIES screen tests: the triple product
    n_i . (n_j x n_k), from the pairs' cross products, is at least
    PARALLEL_NORMAL_TOL |n_i||n_j||n_k|, which no triple with two parallel
    normals meets, as |n_c . (n_a x n_b)| <= |n_c||n_a x n_b|. Each is
    screened by its Cramer's-rule point, and only those the screen cannot
    reject get LAPACK's solve; the solved points feasible for every plane
    (w . V >= C(w) - SURFACE_FEAS_TOL |w|_1), above the per-parameter floor
    1 - theta_i^2 (within SURFACE_FEAS_TOL), and inside the bounding box are
    kept, raised to at least 0, deduplicated by `_merge_vertices`, and
    returned sorted.
    Vertices discarded by the box alone are counted in `clipped`. Every test
    on a normal is relative to its size, so the scan depends only on the
    weights' ratios.
    The screen widens the floor and plane tests by a bound on the distance
    between the Cramer point and LAPACK's, so it rejects only triples whose
    solved point would fail them too: the vertices and `clipped` are those
    of solving every triple.
    Raising to 0 matters at a pure state on an axis, where the floor is 0
    and rounding in the intersection can put a kept coordinate just below it.
    """
    theta = bounds_mod.as_bloch(theta)
    grid = [bounds_mod.as_weights(w) for w in weight_grid]
    if not grid:
        raise ValueError("weight grid is empty")
    point = model_point(theta, copies)
    normals = np.array([(w.wx, w.wy, w.wz) for w in grid], dtype=float)
    # the closed forms in one stacked pass where they exist, else the SDP
    # one weight at a time
    bounds = bounds_mod._closed_forms(point, normals)
    if bounds is None:
        bounds = [bounds_mod.nhcrb_sdp(point, w).value for w in grid]
    planes = tuple(SupportingPlane(weights=w, offset=b) for w, b in zip(grid, bounds))

    floor = 1.0 - theta.array ** 2
    offsets = np.array(bounds)
    n_planes = len(planes)
    # the pairs (a, b), a < b, in the order of triu_indices: those of first
    # plane a start at pair_start[a], so (a, b) is pair_start[a] + b - a - 1
    pair_a, pair_b = np.triu_indices(n_planes, 1)
    pair_start = np.searchsorted(pair_a, np.arange(n_planes + 1))
    # the pairs' cross products, one row per component, build the triple
    # products and the Cramer points
    lengths = np.linalg.norm(normals, axis=1)
    pair_lengths = lengths[pair_a] * lengths[pair_b]
    cross = np.ascontiguousarray(np.cross(normals[pair_a], normals[pair_b]).T)
    columns = np.ascontiguousarray(normals.T)
    # the screen's width is SCREEN_WIDTH eps kappa (1 + |x|_inf), with kappa
    # from the three normals' 1-norms and the products of their lengths
    taxicab = np.abs(normals).sum(axis=1)
    # the screen's tests, the floor's three and the planes', are the rows
    # u . x >= c of one matrix, each in units of its 1-norm so that one width
    # serves them all
    tests = np.vstack([np.eye(3), normals / taxicab[:, None]])
    thresholds = np.concatenate(
        [floor - SURFACE_FEAS_TOL, offsets / taxicab - SURFACE_FEAS_TOL]
    )[:, None]
    # the triples (i, j, k), i < j < k, in lexicographic order: first plane i
    # takes the pairs (j, k) with j > i, from tail[i], and its triples start
    # at first[i]
    tail = pair_start[1:]
    count = len(pair_a) - tail
    first = np.cumsum(count) - count
    # batches of consecutive triples whose slack matrix (tests x triples),
    # held in turn by one buffer, has at most SCAN_BATCH_ENTRIES entries: a
    # grid-3 scan (25 planes) takes one batch and a grid-4 scan (55) three
    batch = max(1, SCAN_BATCH_ENTRIES // len(tests))
    total = int(count.sum())
    survivors = [np.empty((0, 3), dtype=np.intp)]
    buffer = np.empty(len(tests) * batch)
    for start in range(0, total, batch):
        t = np.arange(start, min(start + batch, total))
        i = np.searchsorted(first, t, side="right") - 1
        jk = tail[i] + t - first[i]
        j, k = pair_a[jk], pair_b[jk]
        ij = pair_start[i] + j - i - 1
        ik = pair_start[i] + k - i - 1
        # the triple product n_i . (n_j x n_k) is the determinant of the
        # rows; a triple is singular when it is below PARALLEL_NORMAL_TOL
        # |n_i||n_j||n_k|
        det = (columns[0, i] * cross[0, jk] + columns[1, i] * cross[1, jk]
               + columns[2, i] * cross[2, jk])
        keep = np.abs(det) >= PARALLEL_NORMAL_TOL * lengths[i] * pair_lengths[jk]
        i, j, k, jk, ij, ik, det = (a[keep] for a in (i, j, k, jk, ij, ik, det))
        # Cramer's rule, b_i n_j x n_k + b_j n_k x n_i + b_k n_i x n_j over
        # det (take keeps the gathered rows contiguous, where cross[:, jk]
        # would not), and the width that bounds its distance from LAPACK's
        # point in the max norm (SCREEN_WIDTH); a triple fails the screen
        # when its smallest slack is below minus its width, and a NaN point,
        # whose smallest slack is NaN, goes through, as an infinite width does
        cramer = (
            offsets[i] * cross.take(jk, axis=1)
            - offsets[j] * cross.take(ik, axis=1)
            + offsets[k] * cross.take(ij, axis=1)
        ) / det
        li, lj, lk = lengths[i], lengths[j], lengths[k]
        kappa = (taxicab[i] + taxicab[j] + taxicab[k]) * (
            lj * lk + li * lk + li * lj
        ) / np.abs(det)
        scale = SCREEN_WIDTH * _EPS * kappa
        delta = np.where(scale <= 0.5, scale * (1.0 + np.abs(cramer).max(axis=0)), np.inf)
        slack = buffer[:len(tests) * len(det)].reshape(len(tests), len(det))
        np.matmul(tests, cramer, out=slack)
        slack -= thresholds
        passed = ~(slack.min(axis=0) < -delta)
        survivors.append(np.column_stack([i, j, k])[passed])
    # the exact tests, on LAPACK's points of the triples the screen let through
    triples = np.concatenate(survivors)
    points = np.linalg.solve(normals[triples], offsets[triples][..., None])[..., 0]
    feasible = (
        np.all(points >= floor - SURFACE_FEAS_TOL, axis=1)
        & np.all(points @ normals.T >= offsets - SURFACE_FEAS_TOL * taxicab, axis=1)
    )
    boxed = np.all(points <= VERTEX_BOX_LIMIT, axis=1)
    clipped = int(np.sum(feasible & ~boxed))
    merged = _merge_vertices(np.maximum(points[feasible & boxed], 0.0))
    vertices = tuple(MsePoint(*v) for v in merged.tolist())
    return SurfaceScan(theta=theta, copies=copies, planes=planes,
                       vertices=vertices, clipped=clipped)
