import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtradeoff import tradeoff
from qtradeoff.bounds import nhcrb_analytic, nhcrb_sdp
from qtradeoff.constants import (
    PARALLEL_NORMAL_TOL,
    SCAN_BATCH_ENTRIES,
    SURFACE_FEAS_TOL,
    VERTEX_BOX_LIMIT,
    VERTEX_MERGE_TOL,
)
from qtradeoff.model import BlochVector, convert_normalization, model_point
from qtradeoff.povm import WeightSpec, classical_fisher, single_copy_optimal, two_copy_optimal
from qtradeoff.tradeoff import (
    MsePoint,
    SupportingPlane,
    integer_weight_triples,
    single_copy_surface_residual,
    surface_scan,
    two_copy_surface_residual,
)


def tangent_point(weights, copies):
    """The per-qubit diag(F^-1) at the origin of the weight-adapted optimal
    measurement, single_copy_optimal or two_copy_optimal: the point where it
    touches the trade-off surface."""
    povm = (single_copy_optimal, two_copy_optimal)[copies - 1](weights)
    fisher = classical_fisher(BlochVector(0, 0, 0), povm)
    return MsePoint(*convert_normalization(np.diag(fisher.inverse()), copies,
                                           "per_measurement", "per_qubit"))


def test_residual_landmarks():
    assert abs(single_copy_surface_residual(MsePoint(3, 3, 3))) < 1e-12
    assert abs(single_copy_surface_residual(MsePoint(2, 4, 4))) < 1e-12
    assert abs(two_copy_surface_residual(MsePoint(2, 2, 2))) < 1e-12
    assert abs(single_copy_surface_residual(MsePoint(1, 1, 1)) + 2.0) < 1e-12
    assert abs(two_copy_surface_residual(MsePoint(1, 1, 1)) + 0.25) < 1e-12


def test_boundary_points_sit_on_surfaces():
    # the weight-adapted optimal measurements attain the surfaces
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = WeightSpec(*rng.uniform(0.05, 1.0, size=3))
        assert abs(single_copy_surface_residual(tangent_point(w, 1))) < 1e-9
        assert abs(two_copy_surface_residual(tangent_point(w, 2))) < 1e-9


def test_origin_tangent_points():
    grid = [w for _, w in integer_weight_triples()]
    for copies, resid in ((1, single_copy_surface_residual), (2, two_copy_surface_residual)):
        pts = [tangent_point(w, copies) for w in grid]
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


def _rounding_key_grid(n):
    """The grid 1..n deduplicated by a 12-decimal rounding key of the
    weights: the first triple of each key in product order."""
    seen = {}
    for u in itertools.product(range(1, n + 1), repeat=3):
        w = WeightSpec.from_integers(u)
        seen.setdefault(tuple(np.round(w.array, 12)), (u, w))
    return tuple(seen.values())


@pytest.mark.parametrize("n", range(1, 9))
def test_primitive_triples_are_the_rounding_key_grid(n):
    triples = integer_weight_triples(n)
    assert triples == _rounding_key_grid(n)
    assert integer_weight_triples(n) is triples


def test_grid_3_is_the_benchmark_grid():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert [tuple(w.array) for _, w in integer_weight_triples(3)] == list(workloads.grid_weights())


def test_surface_scan_origin():
    grid = [w for _, w in integer_weight_triples()]
    for copies, resid in ((1, single_copy_surface_residual), (2, two_copy_surface_residual)):
        scan = surface_scan((0.0, 0.0, 0.0), copies, grid)
        assert len(scan.planes) == 25
        assert len(scan.vertices) == 36
        assert scan.clipped == 0
        for plane, w in zip(scan.planes, grid):
            # each plane touches the surface where its optimal measurement's
            # error floor lies
            tangent = tangent_point(w, copies)
            assert abs(plane.weights.array @ tangent.array - plane.offset) < 1e-9
        for v in scan.vertices:
            # feasible for every sampled plane
            for plane in scan.planes:
                assert plane.weights.array @ v.array - plane.offset >= -1e-7
            # but on the forbidden side of the true curved surface
            assert resid(v) < 1e-9


def test_surface_scan_degenerate_weights():
    # crushing two weights pushes the tangent point toward V_x = 1
    p = tangent_point(WeightSpec(1.0, 1e-8, 1e-8), copies=1)
    assert p.vx < 1.001
    assert p.vy > 1e3


def test_surface_scan_empty_grid():
    with pytest.raises(ValueError):
        surface_scan((0.0, 0.0, 0.0), 1, ())


def test_surface_scan_interior_point():
    # off the origin, one copy takes its planes from the closed form and two
    # copies from the SDP
    grid = [w for _, w in integer_weight_triples(2)]
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


@pytest.mark.parametrize("theta", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
@pytest.mark.parametrize("n", [2, 3])
def test_single_copy_scan_at_an_axis_pure_state(theta, n):
    # the floor 1 - theta_i^2 is 0 on the pure axis, where rounding in the
    # plane intersection can put a vertex coordinate just below it
    grid = [w for _, w in integer_weight_triples(n)]
    scan = surface_scan(theta, 1, grid)
    assert scan.vertices
    axis = theta.index(1.0)
    for v in scan.vertices:
        assert np.all(v.array >= 0.0)
        assert np.all(v.array >= 1.0 - np.asarray(theta) ** 2 - SURFACE_FEAS_TOL)
        for plane in scan.planes:
            assert plane.weights.array @ v.array - plane.offset >= -1e-7
    # the scan reaches the floor 0 of the pure axis
    assert min(v.array[axis] for v in scan.vertices) < 1e-12


def test_single_copy_scan_at_a_pure_axis_state_has_exact_planes():
    # at theta = (0, 0, 1), W - u u^T = diag(wx, wy, 0), so each offset is
    # (sqrt(wx) + sqrt(wy))^2; an offset off by the square root of a
    # rounding error splits each vertex into a cluster of near copies
    grid = [w for _, w in integer_weight_triples(4)]
    scan = surface_scan((0.0, 0.0, 1.0), 1, grid)
    for plane in scan.planes:
        wx, wy, _ = plane.weights.array
        want = (np.sqrt(wx) + np.sqrt(wy)) ** 2
        assert abs(plane.offset - want) <= 1e-15 * want
    v = np.array([v.array for v in scan.vertices])
    apart = np.linalg.norm(v[:, None] - v[None, :], axis=-1)[np.triu_indices(len(v), 1)]
    assert apart.min() > 1e-3


@pytest.mark.parametrize("copies", [1, 2])
def test_surface_scan_builds_one_model_point(monkeypatch, copies):
    calls = []

    def counting(theta, copies):
        calls.append(copies)
        return model_point(theta, copies)

    monkeypatch.setattr(tradeoff, "model_point", counting)
    grid = [w for _, w in integer_weight_triples(2)]
    scan = surface_scan((0.2, 0.0, 0.0), copies, grid)
    assert len(scan.planes) == len(grid) > 1
    assert calls == [copies]


def _scan_one_triple_at_a_time(theta, planes):
    """The scan's vertex search as a loop over plane triples, counting the
    triples each branch discards. The tolerances are relative to the normals'
    sizes: a sine for parallel pairs, a normalized volume for singular
    triples, and the plane tests in units of each normal's 1-norm."""
    floor = 1.0 - np.asarray(theta) ** 2
    normals = np.array([p.weights.array for p in planes])
    offsets = np.array([p.offset for p in planes])
    lengths = np.linalg.norm(normals, axis=1)
    fired = dict(parallel=0, singular=0, floor=0, plane=0, box=0)
    candidates = []
    for i, j, k in itertools.combinations(range(len(planes)), 3):
        n = normals[[i, j, k]]
        if any(np.linalg.norm(np.cross(normals[a], normals[b])) < PARALLEL_NORMAL_TOL * lengths[a] * lengths[b]
               for a, b in ((i, j), (i, k), (j, k))):
            fired["parallel"] += 1
            continue
        if abs(np.linalg.det(n)) < PARALLEL_NORMAL_TOL * lengths[i] * lengths[j] * lengths[k]:
            fired["singular"] += 1
            continue
        v = np.linalg.solve(n, offsets[[i, j, k]])
        if np.any(v < floor - SURFACE_FEAS_TOL):
            fired["floor"] += 1
            continue
        if np.any(normals @ v < offsets - SURFACE_FEAS_TOL * np.abs(normals).sum(axis=1)):
            fired["plane"] += 1
            continue
        if np.any(v > VERTEX_BOX_LIMIT):
            fired["box"] += 1
            continue
        candidates.append(v)
    return _merge_one_at_a_time(np.maximum(candidates, 0.0)), fired


def _merge_one_at_a_time(points):
    """The greedy merge as a loop: in sorted order, keep a point unless it
    lies within the merge tolerance of one already kept."""
    merged = []
    for v in sorted(points, key=tuple):
        if not any(np.linalg.norm(v - u) < VERTEX_MERGE_TOL for u in merged):
            merged.append(v)
    return np.array(merged).reshape(-1, 3)


# a repeated triple (parallel normals), three coplanar normals (zero
# determinant), a near-degenerate triple, and three nearly flat in V_z whose
# common vertex lies beyond the box
EVERY_BRANCH_GRID = [WeightSpec(1, 1, 1), WeightSpec(1, 1, 1), WeightSpec(2, 3, 4),
                     WeightSpec(1, 2, 3), WeightSpec(1, 1e-8, 1e-8), WeightSpec(1, 1, 1e-4),
                     WeightSpec(1, 4, 1e-4), WeightSpec(4, 1, 1e-4)]
GRID_3 = [w for _, w in integer_weight_triples()]


@pytest.mark.parametrize("theta, grid", [
    pytest.param((0.0, 0.0, 0.0), EVERY_BRANCH_GRID, id="theta0"),
    pytest.param((0.2, 0.1, 0.0), EVERY_BRANCH_GRID, id="theta1"),
    pytest.param((0.0, 0.0, 0.0), GRID_3, id="grid3-origin"),
])
@pytest.mark.parametrize("copies", [1, 2])
def test_batched_scan_matches_triple_loop(theta, grid, copies):
    scan = surface_scan(theta, copies, grid)
    vertices, fired = _scan_one_triple_at_a_time(theta, scan.planes)
    if grid is EVERY_BRANCH_GRID:
        assert all(fired.values()), fired
    assert scan.clipped == fired["box"]
    assert np.array_equal(np.array([v.array for v in scan.vertices]), vertices)


def _near_degenerate_grid(seed, n):
    """n positive weight rows, each free, a near-parallel copy of an earlier
    row, or near the plane of two earlier rows, nudged by 1e-9 to 1e-3 of
    their size, and then scaled by 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.01, 1.0, size=(n, 3))
    for r in range(1, n):
        kind = rng.integers(3)
        nudge = 10.0 ** rng.uniform(-9.0, -3.0)
        if kind == 1:
            rows[r] = rows[rng.integers(r)] * (1.0 + nudge * rng.uniform(-1.0, 1.0, size=3))
        elif kind == 2 and r >= 2:
            a, b = rng.choice(r, size=2, replace=False)
            s, t = rng.uniform(0.1, 1.0, size=2)
            rows[r] = s * rows[a] + t * rows[b] + nudge * rng.uniform(0.0, 1.0, size=3)
    rows *= 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    return [WeightSpec(*row) for row in rows]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 12),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3), radius=st.floats(0.0, 1.0))
def test_screened_scan_matches_triple_loop(seed, n, direction, radius):
    # the screen rejects only triples whose solved point fails a test: the
    # scan keeps the vertices, in order and to the bit, and the clipped count
    # of solving every triple, whatever the scale and conditioning of the rows
    norm = np.linalg.norm(direction)
    theta = tuple(radius * np.asarray(direction) / norm) if norm > 1e-3 else (0.0, 0.0, 0.0)
    scan = surface_scan(theta, 1, _near_degenerate_grid(seed, n))
    vertices, fired = _scan_one_triple_at_a_time(theta, scan.planes)
    assert scan.clipped == fired["box"]
    assert np.array_equal(np.array([v.array for v in scan.vertices]).reshape(-1, 3), vertices)


@pytest.mark.parametrize("theta, copies", [((0.0, 0.0, 0.0), 1), ((0.0, 0.0, 0.0), 2),
                                           ((0.2, 0.1, 0.0), 1), ((0.0, 0.0, 1.0), 1)])
def test_scan_offsets_are_the_closed_form_values(theta, copies):
    # the grid's offsets come from one stacked pass, bit for bit the value
    # of nhcrb_analytic for each weight on its own
    grid = [w for _, w in integer_weight_triples(4)]
    scan = surface_scan(theta, copies, grid)
    point = model_point(BlochVector(*theta), copies)
    assert [p.offset for p in scan.planes] == [nhcrb_analytic(point, w).value for w in grid]


def test_batched_scan_matches_triple_loop_over_many_batches():
    # the grid-4 weights: 55 planes and 26,235 triples, three batches
    grid = [w for _, w in integer_weight_triples(4)]
    theta = (0.2, 0.1, 0.0)
    scan = surface_scan(theta, 1, grid)
    vertices, fired = _scan_one_triple_at_a_time(theta, scan.planes)
    assert len(scan.planes) == 55
    assert scan.clipped == fired["box"]
    assert np.array_equal(np.array([v.array for v in scan.vertices]), vertices)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-20, 20).map(lambda m: 2 * m), n=st.integers(2, 4),
       theta_copies=st.sampled_from([((0.0, 0.0, 0.0), 1), ((0.0, 0.0, 0.0), 2),
                                     ((0.2, 0.1, 0.0), 1), ((-0.3, 0.2, 0.4), 1)]))
def test_scan_depends_only_on_weight_ratios(k, n, theta_copies):
    # every tolerance is relative to the normals' sizes, so scaling the grid
    # by 4^m keeps the vertices and the clipped count; an even power keeps
    # the closed forms' square roots exact
    theta, copies = theta_copies
    grid = [w for _, w in integer_weight_triples(n)]
    scan = surface_scan(theta, copies, grid)
    scaled = surface_scan(theta, copies, [WeightSpec(*np.ldexp(w.array, k)) for w in grid])
    assert scaled.clipped == scan.clipped
    assert len(scaled.vertices) == len(scan.vertices) > 0
    assert np.allclose([v.array for v in scaled.vertices], [v.array for v in scan.vertices],
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, planes, batches", [(2, 7, 1), (3, 25, 1), (4, 55, 3), (5, 115, 56)])
def test_vertex_search_batches(monkeypatch, n, planes, batches):
    # at most SCAN_BATCH_ENTRIES screen tests (triples x (planes + 3)) a batch
    # (each batch decodes its triple indices with one right-sided searchsorted)
    sizes = []
    searchsorted = np.searchsorted

    def recording(a, v, side="left", sorter=None):
        if side == "right":
            sizes.append(len(v))
        return searchsorted(a, v, side=side, sorter=sorter)

    monkeypatch.setattr(np, "searchsorted", recording)
    grid = [w for _, w in integer_weight_triples(n)]
    scan = surface_scan((0.0, 0.0, 0.0), 1, grid)
    assert len(scan.planes) == planes and scan.vertices
    assert len(sizes) == batches
    assert max(sizes) <= SCAN_BATCH_ENTRIES // (planes + 3)
    assert sum(sizes) == planes * (planes - 1) * (planes - 2) // 6


def test_merge_matches_the_greedy_loop():
    tol = VERTEX_MERGE_TOL
    a = np.array([1.0, 2.0, 3.0])
    step = np.array([0.6 * tol, 0.0, 0.0])
    cases = {
        # a ~ b ~ c but a is not close to c: b goes, so c stays
        "chain": np.array([a, a + step, a + 2 * step]),
        "chain shuffled": np.array([a + 2 * step, a, a + step]),
        # close in x, far apart in y or z: all stay
        "x only": np.array([a, a + [0.1 * tol, 1.0, 0.0], a + [0.2 * tol, 0.0, 1.0],
                            a + [0.3 * tol, 1.0, 0.0]]),
        # equal x, y within the tolerance
        "y chain": np.array([a, a + [0.0, 0.6 * tol, 0.0], a + [0.0, 1.2 * tol, 0.0]]),
        # an exact duplicate and a point just beyond the tolerance in x
        "edges": np.array([a, a, a + [1.0001 * tol, 0.0, 0.0], a + [2.1 * tol, 0.0, 0.0]]),
        "one": a[None, :],
        "none": np.empty((0, 3)),
    }
    rng = np.random.default_rng(16)
    for k in range(20):
        centres = rng.uniform(0.0, 5.0, size=(rng.integers(1, 8), 3))
        picks = centres[rng.integers(0, len(centres), size=60)]
        spread = tol * rng.uniform(0.1, 3.0)
        cases[f"cloud {k}"] = picks + rng.normal(scale=spread, size=picks.shape)
    for name, points in cases.items():
        got = tradeoff._merge_vertices(points)
        assert np.array_equal(got, _merge_one_at_a_time(points)), name
    assert len(tradeoff._merge_vertices(cases["chain"])) == 2


def test_mse_point_validation():
    # a finite experiment can estimate an axis exactly
    assert MsePoint(0.0, 1, 1).vx == 0.0
    with pytest.raises(ValueError):
        MsePoint(1, -2, 1)
    with pytest.raises(ValueError):
        MsePoint(1, np.inf, 1)
    with pytest.raises(ValueError):
        MsePoint(1, 1, np.nan)
    with pytest.raises(ValueError):
        MsePoint(np.float64(np.nan), 1, 1)


def test_supporting_plane_validation():
    with pytest.raises(ValueError):
        SupportingPlane(weights=WeightSpec(1, 1, 1), offset=0.0)
    with pytest.raises(ValueError):
        SupportingPlane(weights=WeightSpec(1, 1, 1), offset=np.nan)
    with pytest.raises(ValueError):
        SupportingPlane(weights=WeightSpec(1, 1, 1), offset=np.inf)
    assert SupportingPlane(weights=WeightSpec(1, 1, 1), offset=3.0).offset == 3.0
