"""Trade-off surfaces for the per-parameter mean squared errors.

Analytic membership predicates for the single-copy and two-copy attainable
regions, the pairwise two-parameter relation, boundary points reached by the
weight-adapted optimal measurements, inversion from a boundary point back to
weights, and a halfspace-intersection scan that reconstructs the surface
numerically from weighted bounds at arbitrary interior parameter values.

All quantities here are per-qubit normalized. At the origin every
attainable point has V_i >= 1 (the per-parameter bound); away from the
origin the per-parameter floor is 1 - theta_i^2, which is what the scan uses
as its coordinate cut.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .constants import (
    BOUNDARY_RESIDUAL_TOL,
    PARALLEL_NORMAL_TOL,
    SURFACE_FEAS_TOL,
    VERTEX_BOX_LIMIT,
    VERTEX_MERGE_TOL,
)
from .model import AXIS_LABELS, BlochVector, ModelPoint, model_point
from .povm import WeightSpec


@dataclass(frozen=True)
class MsePoint:
    """Per-qubit normalized mean squared errors (Vx, Vy, Vz).

    A coordinate may be 0: a finite experiment can estimate an axis exactly.
    """

    vx: float
    vy: float
    vz: float

    def __post_init__(self):
        arr = self.array
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError(f"MSE coordinates must be finite and >= 0, got {tuple(arr)}")

    @property
    def array(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.vz], dtype=float)


@dataclass(frozen=True)
class SupportingPlane:
    """Halfspace w . V >= offset excluded by a weighted bound."""

    weights: WeightSpec
    offset: float

    def __post_init__(self):
        if not np.isfinite(self.offset) or self.offset <= 0.0:
            raise ValueError(f"plane offset must be positive, got {self.offset}")


@dataclass(frozen=True)
class SurfaceScan:
    """Planes and their polyhedral intersection vertices at one model point."""

    theta: BlochVector
    copies: int
    planes: tuple
    vertices: tuple
    clipped: int = 0

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


def _axis_index(i) -> int:
    if isinstance(i, str):
        if i in AXIS_LABELS:
            return AXIS_LABELS.index(i)
        raise ValueError(f"unknown axis '{i}'")
    i = int(i)
    if i not in (0, 1, 2):
        raise ValueError(f"axis index must be 0, 1 or 2, got {i}")
    return i


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


def pairwise_residual(p: MsePoint, i, j) -> float:
    """(V_i - 1)(V_j - 1) - 1 for two distinct axes; >= 0 for single-copy
    measurements at the origin."""
    ia, ja = _axis_index(i), _axis_index(j)
    if ia == ja:
        raise ValueError("pairwise residual needs two distinct axes")
    v = p.array
    return float((v[ia] - 1.0) * (v[ja] - 1.0) - 1.0)


def boundary_point_from_weights(weights, copies: int = 1) -> MsePoint:
    """Per-qubit MSE point reached by the weight-adapted optimal measurement.

    copies=1: V_i = (sum_j sqrt(w_j)) / sqrt(w_i).
    copies=2: V_i = (2 sqrt(w_i) + sum_{j != i} sqrt(w_j)) / (2 sqrt(w_i)).
    Both lie exactly on the matching surface and saturate the corresponding
    weighted bound (tangency).
    """
    w = bounds_mod.as_weights(weights).require_positive()
    rw = np.sqrt(w.array)
    total = rw.sum()
    if copies == 1:
        v = total / rw
    elif copies == 2:
        v = (rw + total) / (2.0 * rw)
    else:
        raise ValueError(f"copies must be 1 or 2, got {copies}")
    return MsePoint(*v)


def weights_from_boundary_point(p: MsePoint) -> WeightSpec:
    """Invert a single-copy boundary point to its generating weights.

    With s = VyVz / (VxVy + VxVz + VyVz) and t the cyclic analogue, the
    weights are (s^2, t^2, (1-s-t)^2), normalized so the square roots sum to
    one. Rejects points whose single-copy residual exceeds the boundary
    tolerance, since the inversion is only meaningful on the surface.
    """
    resid = single_copy_surface_residual(p)
    scale = max(1.0, abs(p.vx * p.vy * p.vz))
    if abs(resid) > BOUNDARY_RESIDUAL_TOL * scale:
        raise ValueError(
            f"point is off the single-copy boundary (residual {resid:.3e})"
        )
    denom = p.vx * p.vy + p.vx * p.vz + p.vy * p.vz
    s = p.vy * p.vz / denom
    t = p.vx * p.vz / denom
    return WeightSpec(s * s, t * t, (1.0 - s - t) ** 2)


def integer_weight_triples(values=(1, 2, 3)) -> tuple:
    """Pairs (u, weights) with weights = Diag(u^2)/sum(u^2), deduplicated.

    Proportional triples give the same normalized weights; the first
    representative in lexicographic cube order is kept, so the default
    (1,2,3) cube yields 25 distinct entries out of 27 raw triples.
    """
    seen = {}
    for u in itertools.product(values, repeat=3):
        w = WeightSpec.from_integers(u)
        seen.setdefault(tuple(np.round(w.array, 12)), (tuple(int(v) for v in u), w))
    return tuple(seen.values())


def _plane_bound(point: ModelPoint, weights: WeightSpec) -> float:
    """Per-qubit collective bound at `point` for one weight triple: the
    closed form where one exists, the SDP otherwise."""
    bound = bounds_mod.nhcrb_analytic(point, weights)
    if bound is None:
        bound = bounds_mod.nhcrb_sdp(point, weights)
    return bound.value


def surface_scan(theta, copies: int, weight_grid) -> SurfaceScan:
    """Reconstruct the trade-off surface from weighted bounds.

    For each weight triple the per-qubit collective bound defines the
    halfspace w . V >= C(w), from its closed form where one exists and from
    the SDP otherwise. The model point depends on theta alone, so one is
    built per scan and shared by every plane. Candidate vertices are the
    intersections of all plane triples with independent normals, solved as
    one batch per first plane; those feasible for every plane (within
    tolerance), above the per-parameter floor 1 - theta_i^2, and inside the
    bounding box are kept, deduplicated, and returned sorted. Vertices
    discarded by the box alone are counted in `clipped`.
    """
    theta = bounds_mod.as_bloch(theta)
    grid = [bounds_mod.as_weights(w) for w in weight_grid]
    if not grid:
        raise ValueError("weight grid is empty")
    point = model_point(theta, copies)
    planes = tuple(
        SupportingPlane(weights=w, offset=_plane_bound(point, w)) for w in grid
    )

    floor = 1.0 - theta.array ** 2
    normals = np.array([p.weights.array for p in planes])
    offsets = np.array([p.offset for p in planes])
    # pairs of planes whose normals are not parallel
    apart = np.linalg.norm(np.cross(normals[:, None], normals[None, :]), axis=-1) >= PARALLEL_NORMAL_TOL
    # the triples (i, j, k), i < j < k, one first plane i at a time, so
    # memory grows as the cube of the plane count, not its fourth power
    pair_j, pair_k = np.triu_indices(len(planes), 1)
    chunks = []
    clipped = 0
    for i in range(len(planes) - 2):
        # the pairs j < k are in lexicographic order, so those with j > i are a tail
        start = np.searchsorted(pair_j, i + 1)
        j, k = pair_j[start:], pair_k[start:]
        triples = np.column_stack([np.full(len(j), i), j, k])
        n = normals[triples]
        independent = apart[i, j] & apart[i, k] & apart[j, k] & (
            np.abs(np.linalg.det(n)) >= PARALLEL_NORMAL_TOL
        )
        triples = triples[independent]
        points = np.linalg.solve(n[independent], offsets[triples][..., None])[..., 0]
        feasible = (
            np.all(points >= floor - SURFACE_FEAS_TOL, axis=1)
            & np.all(points @ normals.T >= offsets - SURFACE_FEAS_TOL, axis=1)
        )
        boxed = np.all(points <= VERTEX_BOX_LIMIT, axis=1)
        clipped += int(np.sum(feasible & ~boxed))
        chunks.append(points[feasible & boxed])
    candidates = np.concatenate(chunks) if chunks else np.empty((0, 3))

    merged = []
    for v in sorted(candidates, key=tuple):
        if not any(np.linalg.norm(v - u) < VERTEX_MERGE_TOL for u in merged):
            merged.append(v)
    vertices = tuple(MsePoint(*v) for v in merged)
    return SurfaceScan(theta=theta, copies=copies, planes=planes,
                       vertices=vertices, clipped=clipped)
