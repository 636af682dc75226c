"""Trade-off surfaces for the per-parameter mean squared errors.

An error triple (Vx, Vy, Vz) is a numpy array of shape (3,), and k of them
a (k, 3) stack. The module holds the analytic membership predicates for the
single-copy and two-copy attainable regions at the origin, which take a
triple or a stack, the integer weight grid, and a scan that gives, at any
interior parameter value, each weight's supporting plane and the point where
it touches the surface: the gradient of the weighted bound in the weights.
A SurfaceScan holds them as three read-only arrays, one row per weight:
the weights, the plane offsets and the tangent points. At the origin those
tangent points are the per-qubit diag(F^-1) of the weight-adapted optimal
measurements (povm.classical_fisher of single_copy_optimal and
two_copy_optimal).

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
class SurfaceScan:
    """Supporting planes and their tangent points at one model point.

    Row k of the read-only arrays is one plane, weights[k] . V >= offsets[k]
    with weights (k, 3) and offsets (k,), and vertices[k], the error triple
    (Vx, Vy, Vz) where it touches the attainable region. The tangent points
    are the vertices of the inner polytope, their convex hull plus the
    positive orthant, as the planes bound the outer one.
    """

    theta: BlochVector
    copies: int
    weights: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "theta": [self.theta.x, self.theta.y, self.theta.z],
            "copies": self.copies,
            "planes": [{"weights": w, "offset": b}
                       for w, b in zip(self.weights.tolist(), self.offsets.tolist())],
            "vertices": self.vertices.tolist(),
        }


def single_copy_surface_residual(v):
    """VxVyVz - VxVy - VxVz - VyVz of an error triple, or of each triple
    along the last axis of a (..., 3) stack; >= 0 is attainable with
    single-copy measurements, 0 on the boundary."""
    vx, vy, vz = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    return vx * vy * vz - vx * vy - vx * vz - vy * vz


def two_copy_surface_residual(v):
    """VxVyVz - VxVy - VxVz - VyVz + 3(Vx+Vy+Vz)/4 - 1/2 of an error triple,
    or of each triple along the last axis of a (..., 3) stack; >= 0 is
    attainable with two-copy collective measurements."""
    vx, vy, vz = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
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
    only at infinity. An offset that is not finite and positive, or a
    tangent point that is not finite, raises ValueError.
    """
    theta = bounds_mod.as_bloch(theta)
    grid = [bounds_mod.as_weights(w).require_positive() for w in weight_grid]
    if not grid:
        raise ValueError("weight grid is empty")
    point = model_point(theta, copies)
    weights = np.array([w.array for w in grid])
    # the closed forms in one stacked pass where they exist, else the SDP
    # one weight at a time
    forms = bounds_mod._closed_forms(point, weights)
    if forms is None:
        solved = [bounds_mod.nhcrb_sdp(point, w) for w in grid]
        forms = [b.value for b in solved], [b.tangent for b in solved]
    offsets, tangents = (np.asarray(f, dtype=float) for f in forms)
    if not np.all((offsets > 0.0) & (offsets < math.inf)):
        raise ValueError(f"plane offsets must be finite and positive, got {offsets}")
    if not np.isfinite(tangents).all():
        raise ValueError(f"tangent points must be finite, got {tangents}")
    vertices = np.maximum(tangents, 0.0)
    for arr in (weights, offsets, vertices):
        arr.setflags(write=False)
    return SurfaceScan(theta=theta, copies=copies, weights=weights, offsets=offsets,
                       vertices=vertices)
