import itertools

import numpy as np
import pytest

from qtradeoff import tradeoff
from qtradeoff.bounds import nhcrb_sdp
from qtradeoff.constants import (
    PARALLEL_NORMAL_TOL,
    SURFACE_FEAS_TOL,
    VERTEX_BOX_LIMIT,
    VERTEX_MERGE_TOL,
)
from qtradeoff.model import BlochVector, model_point
from qtradeoff.povm import WeightSpec
from qtradeoff.tradeoff import (
    MsePoint,
    SupportingPlane,
    boundary_point_from_weights,
    integer_weight_triples,
    pairwise_residual,
    single_copy_surface_residual,
    surface_scan,
    two_copy_surface_residual,
    weights_from_boundary_point,
)


def test_residual_landmarks():
    assert abs(single_copy_surface_residual(MsePoint(3, 3, 3))) < 1e-12
    assert abs(single_copy_surface_residual(MsePoint(2, 4, 4))) < 1e-12
    assert abs(two_copy_surface_residual(MsePoint(2, 2, 2))) < 1e-12
    assert abs(single_copy_surface_residual(MsePoint(1, 1, 1)) + 2.0) < 1e-12
    assert abs(two_copy_surface_residual(MsePoint(1, 1, 1)) + 0.25) < 1e-12


def test_pairwise_residual():
    # V_i = V_j = 2 saturates the two-axis trade-off
    assert abs(pairwise_residual(MsePoint(2, 2, 100), 0, 1)) < 1e-12
    assert pairwise_residual(MsePoint(1.5, 1.5, 100), "x", "y") < 0
    assert pairwise_residual(MsePoint(3, 3, 100), 0, 1) > 0
    with pytest.raises(ValueError):
        pairwise_residual(MsePoint(2, 2, 2), 0, 3)
    with pytest.raises(ValueError):
        pairwise_residual(MsePoint(2, 2, 2), "x", "w")


def test_boundary_points_sit_on_surfaces():
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = WeightSpec(*rng.uniform(0.05, 1.0, size=3))
        p1 = boundary_point_from_weights(w, copies=1)
        assert abs(single_copy_surface_residual(p1)) < 1e-9
        p2 = boundary_point_from_weights(w, copies=2)
        assert abs(two_copy_surface_residual(p2)) < 1e-9


def test_boundary_weights_round_trip():
    p = boundary_point_from_weights(WeightSpec(4, 1, 1), copies=1)
    assert np.abs(p.array - np.array([2.0, 4.0, 4.0])).max() < 1e-12
    w = weights_from_boundary_point(p)
    ratio = w.array / w.array[1]
    assert np.abs(ratio - np.array([4.0, 1.0, 1.0])).max() < 1e-9

    rng = np.random.default_rng(2)
    for _ in range(20):
        raw = rng.uniform(0.05, 1.0, size=3)
        w0 = WeightSpec(*(raw / raw.sum()))
        p = boundary_point_from_weights(w0, copies=1)
        back = weights_from_boundary_point(p).array
        assert np.abs(back / back.sum() - w0.array / w0.array.sum()).max() < 1e-6


def test_weights_rejected_off_boundary():
    with pytest.raises(ValueError):
        weights_from_boundary_point(MsePoint(1, 1, 1))


def test_origin_tangent_points():
    grid = [w for _, w in integer_weight_triples()]
    for copies, resid in ((1, single_copy_surface_residual), (2, two_copy_surface_residual)):
        pts = [boundary_point_from_weights(w, copies) for w in grid]
        assert len(pts) == len(grid)
        for p in pts:
            assert abs(resid(p)) < 1e-9


def test_integer_weight_triples_dedup():
    triples = integer_weight_triples()
    assert len(triples) == 25
    assert triples[0][0] == (1, 1, 1)
    # proportional triples collapse onto their first representative
    us = [u for u, _ in triples]
    assert (2, 2, 2) not in us and (3, 3, 3) not in us
    for u, w in triples:
        sq = np.array(u, dtype=float) ** 2
        assert np.abs(w.array - sq / sq.sum()).max() < 1e-12


def test_surface_scan_origin():
    grid = [w for _, w in integer_weight_triples()]
    for copies, resid in ((1, single_copy_surface_residual), (2, two_copy_surface_residual)):
        scan = surface_scan((0.0, 0.0, 0.0), copies, grid)
        assert len(scan.planes) == 25
        assert len(scan.vertices) == 36
        assert scan.clipped == 0
        for plane, w in zip(scan.planes, grid):
            tangent = boundary_point_from_weights(w, copies)
            assert abs(plane.weights.array @ tangent.array - plane.offset) < 1e-9
        for v in scan.vertices:
            # feasible for every sampled plane
            for plane in scan.planes:
                assert plane.weights.array @ v.array - plane.offset >= -1e-7
            # but on the forbidden side of the true curved surface
            assert resid(v) < 1e-9


def test_surface_scan_degenerate_weights():
    # crushing two weights pushes the tangent point toward V_x = 1
    p = boundary_point_from_weights(WeightSpec(1.0, 1e-8, 1e-8), copies=1)
    assert p.vx < 1.001
    assert p.vy > 1e3


def test_surface_scan_empty_grid():
    with pytest.raises(ValueError):
        surface_scan((0.0, 0.0, 0.0), 1, ())


def test_surface_scan_interior_point():
    # off the origin, one copy takes its planes from the closed form and two
    # copies from the SDP
    grid = [w for _, w in integer_weight_triples(values=(1, 2))]
    floor = 1.0 - np.array([0.2, 0.0, 0.0]) ** 2
    for copies in (1, 2):
        scan = surface_scan((0.2, 0.0, 0.0), copies, grid)
        assert len(scan.planes) == len(grid)
        for v in scan.vertices:
            assert np.all(v.array >= floor - 1e-7)
        doc = scan.to_json_dict()
        assert doc["copies"] == copies
        assert len(doc["planes"]) == len(grid)
    point = model_point(BlochVector(0.2, 0.0, 0.0), copies=2)
    for plane, w in zip(scan.planes, grid):
        want = nhcrb_sdp(point, w).value
        assert abs(plane.offset - want) <= 1e-12 * want


@pytest.mark.parametrize("copies", [1, 2])
def test_surface_scan_builds_one_model_point(monkeypatch, copies):
    calls = []

    def counting(theta, copies):
        calls.append(copies)
        return model_point(theta, copies)

    monkeypatch.setattr(tradeoff, "model_point", counting)
    grid = [w for _, w in integer_weight_triples(values=(1, 2))]
    scan = surface_scan((0.2, 0.0, 0.0), copies, grid)
    assert len(scan.planes) == len(grid) > 1
    assert calls == [copies]


def _scan_one_triple_at_a_time(theta, planes):
    """The scan's vertex search as a loop over plane triples, counting the
    triples each branch discards."""
    floor = 1.0 - np.asarray(theta) ** 2
    normals = np.array([p.weights.array for p in planes])
    offsets = np.array([p.offset for p in planes])
    fired = dict(parallel=0, singular=0, floor=0, plane=0, box=0)
    candidates = []
    for i, j, k in itertools.combinations(range(len(planes)), 3):
        n = normals[[i, j, k]]
        if min(np.linalg.norm(np.cross(n[a], n[b])) for a, b in ((0, 1), (0, 2), (1, 2))) < PARALLEL_NORMAL_TOL:
            fired["parallel"] += 1
            continue
        if abs(np.linalg.det(n)) < PARALLEL_NORMAL_TOL:
            fired["singular"] += 1
            continue
        v = np.linalg.solve(n, offsets[[i, j, k]])
        if np.any(v < floor - SURFACE_FEAS_TOL):
            fired["floor"] += 1
            continue
        if np.any(normals @ v < offsets - SURFACE_FEAS_TOL):
            fired["plane"] += 1
            continue
        if np.any(v > VERTEX_BOX_LIMIT):
            fired["box"] += 1
            continue
        candidates.append(v)
    merged = []
    for v in sorted(candidates, key=tuple):
        if not any(np.linalg.norm(v - u) < VERTEX_MERGE_TOL for u in merged):
            merged.append(v)
    return np.array(merged), fired


@pytest.mark.parametrize("theta", [(0.0, 0.0, 0.0), (0.2, 0.1, 0.0)])
@pytest.mark.parametrize("copies", [1, 2])
def test_batched_scan_matches_triple_loop(theta, copies):
    # a repeated triple (parallel normals), three coplanar normals (zero
    # determinant), a near-degenerate triple, and three nearly flat in V_z
    # whose common vertex lies beyond the box
    grid = [WeightSpec(1, 1, 1), WeightSpec(1, 1, 1), WeightSpec(2, 3, 4),
            WeightSpec(1, 2, 3), WeightSpec(1, 1e-8, 1e-8), WeightSpec(1, 1, 1e-4),
            WeightSpec(1, 4, 1e-4), WeightSpec(4, 1, 1e-4)]
    scan = surface_scan(theta, copies, grid)
    vertices, fired = _scan_one_triple_at_a_time(theta, scan.planes)
    assert all(fired.values()), fired
    assert scan.clipped == fired["box"]
    assert np.array_equal(np.array([v.array for v in scan.vertices]), vertices)


def test_mse_point_validation():
    # a finite experiment can estimate an axis exactly
    assert MsePoint(0.0, 1, 1).vx == 0.0
    with pytest.raises(ValueError):
        MsePoint(1, -2, 1)
    with pytest.raises(ValueError):
        MsePoint(1, np.inf, 1)


def test_supporting_plane_validation():
    with pytest.raises(ValueError):
        SupportingPlane(weights=WeightSpec(1, 1, 1), offset=0.0)
    assert SupportingPlane(weights=WeightSpec(1, 1, 1), offset=3.0).offset == 3.0
