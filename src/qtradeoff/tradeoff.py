"""Trade-off surfaces for the per-parameter mean squared errors.

Analytic membership predicates for the single-copy and two-copy attainable
regions at the origin, the integer weight grid, and a scan that gives, at any
interior parameter value, each weight's supporting plane and the point where
it touches the surface: the gradient of the weighted bound in the weights. At
the origin those tangent points are the per-qubit diag(F^-1) of the
weight-adapted optimal measurements (povm.classical_fisher of
single_copy_optimal and two_copy_optimal).

All quantities here are per-qubit normalized. At the origin every
attainable point has V_i >= 1 (the per-parameter bound); away from the
origin the per-parameter floor is 1 - theta_i^2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .model import BlochVector, model_point
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
    """Supporting planes and their tangent points at one model point.

    vertices[k] is the point where planes[k] touches the attainable region,
    an attained error triple. The tangent points are the vertices of the
    inner polytope, their convex hull plus the positive orthant, as the
    planes bound the outer one.
    """

    theta: BlochVector
    copies: int
    planes: tuple
    vertices: tuple

    def to_json_dict(self) -> dict:
        return {
            "theta": [self.theta.x, self.theta.y, self.theta.z],
            "copies": self.copies,
            "planes": [
                {"weights": list(p.weights.array), "offset": p.offset}
                for p in self.planes
            ],
            "vertices": [[v.vx, v.vy, v.vz] for v in self.vertices],
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


def surface_scan(theta, copies: int, weight_grid) -> SurfaceScan:
    """The trade-off surface at theta, one plane and its tangent point per
    weight, in grid order.

    For each weight triple the per-qubit collective bound C(w) defines the
    halfspace w . V >= C(w) that every attainable V satisfies, from its
    closed form where one exists and from the SDP otherwise. The plane
    touches the attainable region at V*(w) = grad_w C(w) (the envelope
    theorem), which the bound's tangent point gives; it is raised to at
    least 0 against rounding. The model point depends on theta alone, so one
    is built per scan and shared by every plane. The gradient is degree-0
    homogeneous, so the scan depends only on the weights' ratios.
    Every weight must be positive: a zero weight's plane touches the region
    only at infinity.
    """
    theta = bounds_mod.as_bloch(theta)
    grid = [bounds_mod.as_weights(w).require_positive() for w in weight_grid]
    if not grid:
        raise ValueError("weight grid is empty")
    point = model_point(theta, copies)
    # the closed forms in one stacked pass where they exist, else the SDP
    # one weight at a time
    forms = bounds_mod._closed_forms(point, np.array([w.array for w in grid]))
    if forms is None:
        solved = [bounds_mod.nhcrb_sdp(point, w) for w in grid]
        forms = [b.value for b in solved], [b.tangent for b in solved]
    offsets, tangents = forms
    planes = tuple(SupportingPlane(weights=w, offset=b) for w, b in zip(grid, offsets))
    vertices = tuple(MsePoint(*v) for v in np.maximum(tangents, 0.0).tolist())
    return SurfaceScan(theta=theta, copies=copies, planes=planes, vertices=vertices)
