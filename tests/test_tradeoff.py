import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtradeoff import tradeoff
from qtradeoff.bounds import nhcrb_analytic, nhcrb_sdp
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


def _assert_tangent_oracles(scan, gaps):
    """Each tangent point V*(w) lies on its own plane, w . V*(w) = C(w), and
    on the attainable side of every other, w' . V*(w) >= C(w'), whose
    optimum lies in [offset - gap, offset]."""
    normals = np.array([p.weights.array for p in scan.planes])
    offsets = np.array([p.offset for p in scan.planes])
    points = np.array([v.array for v in scan.vertices])
    assert points.shape == normals.shape
    # row k of `through` is plane k evaluated at every tangent point
    through = normals @ points.T
    assert np.all(np.abs(np.diag(through) - offsets) <= 1e-14 * offsets)
    assert np.all(through >= ((offsets - np.asarray(gaps)) * (1.0 - 1e-14))[:, None])


def test_surface_scan_origin():
    grid = [w for _, w in integer_weight_triples()]
    for copies, resid in ((1, single_copy_surface_residual), (2, two_copy_surface_residual)):
        scan = surface_scan((0.0, 0.0, 0.0), copies, grid)
        assert len(scan.planes) == len(scan.vertices) == 25
        _assert_tangent_oracles(scan, np.zeros(25))
        for v, w in zip(scan.vertices, grid):
            # each plane touches the surface where its optimal measurement's
            # error floor lies
            assert np.allclose(v.array, tangent_point(w, copies).array, rtol=4e-15, atol=0.0)
            assert abs(resid(v)) <= 1e-13 * v.vx * v.vy * v.vz


def test_surface_scan_degenerate_weights():
    # crushing two weights pushes the tangent point toward V_x = 1
    w = WeightSpec(1.0, 1e-8, 1e-8)
    p = tangent_point(w, copies=1)
    assert p.vx < 1.001
    assert p.vy > 1e3
    v, = surface_scan((0.0, 0.0, 0.0), 1, [w]).vertices
    assert np.allclose(v.array, p.array, rtol=1e-12, atol=0.0)


def test_surface_scan_empty_grid():
    with pytest.raises(ValueError):
        surface_scan((0.0, 0.0, 0.0), 1, ())


@pytest.mark.parametrize("copies", [1, 2])
def test_surface_scan_rejects_a_zero_weight(copies):
    # a zero weight's plane touches the region only at infinity
    grid = [WeightSpec(1, 1, 1), WeightSpec(1, 0, 1)]
    with pytest.raises(ValueError, match="degenerate weights"):
        surface_scan((0.2, 0.0, 0.0), copies, grid)


def test_surface_scan_interior_point():
    # off the origin, one copy takes its planes from the closed form and two
    # copies from the SDP
    grid = [w for _, w in integer_weight_triples(2)]
    floor = 1.0 - np.array([0.2, 0.0, 0.0]) ** 2
    for copies in (1, 2):
        scan = surface_scan((0.2, 0.0, 0.0), copies, grid)
        assert len(scan.planes) == len(scan.vertices) == len(grid)
        for v in scan.vertices:
            assert np.all(v.array >= floor)
        doc = scan.to_json_dict()
        assert doc["copies"] == copies
        assert len(doc["planes"]) == len(doc["vertices"]) == len(grid)
    point = model_point(BlochVector(0.2, 0.0, 0.0), copies=2)
    for plane, v, w in zip(scan.planes, scan.vertices, grid):
        want = nhcrb_sdp(point, w)
        assert abs(plane.offset - want.value) <= 1e-12 * want.value
        assert np.allclose(v.array, want.tangent, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("theta", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
@pytest.mark.parametrize("n", [2, 3])
def test_single_copy_scan_at_an_axis_pure_state(theta, n):
    # the floor 1 - theta_i^2 is 0 on the pure axis, and every plane's
    # bound is independent of that axis' weight, so each tangent point's
    # coordinate there is exactly 0
    grid = [w for _, w in integer_weight_triples(n)]
    scan = surface_scan(theta, 1, grid)
    axis = theta.index(1.0)
    _assert_tangent_oracles(scan, np.zeros(len(grid)))
    for v in scan.vertices:
        assert v.array[axis] == 0.0
        assert np.all(np.delete(v.array, axis) >= 1.0)


def test_single_copy_scan_at_a_pure_axis_state_has_exact_planes():
    # at theta = (0, 0, 1), W - u u^T = diag(wx, wy, 0), so each offset is
    # (sqrt(wx) + sqrt(wy))^2 and its gradient is
    # (1 + sqrt(wy / wx), 1 + sqrt(wx / wy), 0)
    grid = [w for _, w in integer_weight_triples(4)]
    scan = surface_scan((0.0, 0.0, 1.0), 1, grid)
    for plane, v in zip(scan.planes, scan.vertices):
        wx, wy, _ = plane.weights.array
        want = (np.sqrt(wx) + np.sqrt(wy)) ** 2
        assert abs(plane.offset - want) <= 1e-15 * want
        tangent = np.array([1.0 + np.sqrt(wy / wx), 1.0 + np.sqrt(wx / wy), 0.0])
        assert np.allclose(v.array, tangent, rtol=1e-15, atol=0.0)


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


# a repeated weight, three coplanar normals, a near-degenerate triple, and
# three nearly flat in V_z
STRESS_GRID = [WeightSpec(1, 1, 1), WeightSpec(1, 1, 1), WeightSpec(2, 3, 4),
               WeightSpec(1, 2, 3), WeightSpec(1, 1e-8, 1e-8), WeightSpec(1, 1, 1e-4),
               WeightSpec(1, 4, 1e-4), WeightSpec(4, 1, 1e-4)]
GRID_3 = [w for _, w in integer_weight_triples()]


@pytest.mark.parametrize("theta, grid", [
    pytest.param((0.0, 0.0, 0.0), STRESS_GRID, id="theta0"),
    pytest.param((0.2, 0.1, 0.0), STRESS_GRID, id="theta1"),
    pytest.param((0.0, 0.0, 0.0), GRID_3, id="grid3-origin"),
])
@pytest.mark.parametrize("copies", [1, 2])
def test_tangent_points_touch_their_planes(theta, grid, copies):
    # two copies off the origin take the SDP's tangent points: each is the
    # error of a feasible point, so it satisfies every other plane down to
    # that plane's certified optimum, value - gap
    scan = surface_scan(theta, copies, grid)
    point = model_point(BlochVector(*theta), copies)
    gaps = [nhcrb_sdp(point, w).gap if copies == 2 and any(theta) else 0.0 for w in grid]
    _assert_tangent_oracles(scan, gaps)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3), radius=st.floats(0.0, 1.0))
def test_tangent_points_satisfy_every_plane(seed, n, direction, radius):
    # the closed forms' gradients over the whole ball, pure states included,
    # whatever the scale and conditioning of the weight rows
    norm = np.linalg.norm(direction)
    theta = tuple(radius * np.asarray(direction) / norm) if norm > 1e-3 else (0.0, 0.0, 0.0)
    scan = surface_scan(theta, 1, _near_degenerate_grid(seed, n))
    _assert_tangent_oracles(scan, np.zeros(n))


def _matrix_form_tangent(theta, w):
    """The one-copy tangent point diag(F*^-1) = Tr A diag(J^-1/2 A^-1 J^-1/2),
    A = (J^-1/2 W J^-1/2)^1/2 and J^-1 = I - theta theta^T, by eigh, and the
    condition number of J^-1/2 W J^-1/2."""
    vals, vecs = np.linalg.eigh(np.eye(3) - np.outer(theta, theta))
    root = (vecs * np.sqrt(vals)) @ vecs.T
    a_vals, a_vecs = np.linalg.eigh(root @ np.diag(w) @ root)
    a_roots = np.sqrt(a_vals)
    a_inverse = (a_vecs / a_roots) @ a_vecs.T
    return a_roots.sum() * np.diag(root @ a_inverse @ root), a_vals[-1] / a_vals[0]


@settings(max_examples=200, deadline=None)
@given(direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3), radius=st.floats(0.0, 0.999),
       log_w=st.tuples(*[st.floats(-4.0, 4.0)] * 3))
def test_one_copy_tangent_is_the_matrix_form(direction, radius, log_w):
    norm = np.linalg.norm(direction)
    theta = radius * np.asarray(direction) / norm if norm > 1e-3 else np.zeros(3)
    w = 10.0 ** np.array(log_w)
    got = nhcrb_analytic(model_point(BlochVector(*theta)), WeightSpec(*w)).tangent
    want, cond = _matrix_form_tangent(theta, w)
    assert np.allclose(got, want, rtol=16.0 * np.finfo(float).eps * cond, atol=0.0)


@pytest.mark.parametrize("theta, copies", [((0.0, 0.0, 0.0), 1), ((0.3, -0.2, 0.4), 1),
                                           ((0.0, 0.0, 0.0), 2)])
@pytest.mark.parametrize("weights", [(1.0, 4.0, 9.0), (1.0, 1.0, 1.0), (2.0, 1e-3, 1.0)])
def test_sdp_tangent_is_the_closed_form_gradient(theta, copies, weights):
    # a near-optimal feasible point's errors are within about
    # sqrt(gap / value) of the optimum's, relative to their size
    point = model_point(BlochVector(*theta), copies)
    sdp = nhcrb_sdp(point, weights)
    exact = nhcrb_analytic(point, weights).tangent
    tol = 4.0 * math.sqrt(sdp.gap / sdp.value) * max(exact)
    assert np.abs(np.array(sdp.tangent) - exact).max() <= tol


@pytest.mark.parametrize("theta, copies", [((0.0, 0.0, 0.0), 1), ((0.0, 0.0, 0.0), 2),
                                           ((0.2, 0.1, 0.0), 1), ((0.0, 0.0, 1.0), 1)])
def test_scan_offsets_are_the_closed_form_values(theta, copies):
    # the grid's offsets come from one stacked pass, bit for bit the value
    # of nhcrb_analytic for each weight on its own
    grid = [w for _, w in integer_weight_triples(4)]
    scan = surface_scan(theta, copies, grid)
    point = model_point(BlochVector(*theta), copies)
    assert [p.offset for p in scan.planes] == [nhcrb_analytic(point, w).value for w in grid]
    assert [tuple(v.array) for v in scan.vertices] == [nhcrb_analytic(point, w).tangent
                                                        for w in grid]


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-20, 20).map(lambda m: 2 * m), n=st.integers(2, 4),
       theta_copies=st.sampled_from([((0.0, 0.0, 0.0), 1), ((0.0, 0.0, 0.0), 2),
                                     ((0.2, 0.1, 0.0), 1), ((-0.3, 0.2, 0.4), 1)]))
def test_scan_depends_only_on_weight_ratios(k, n, theta_copies):
    # scaling the grid by 4^m scales the offsets and keeps the tangent
    # points, bit for bit: an even power keeps the closed forms' square
    # roots exact, and the gradient is degree-0 homogeneous
    theta, copies = theta_copies
    grid = [w for _, w in integer_weight_triples(n)]
    scan = surface_scan(theta, copies, grid)
    scaled = surface_scan(theta, copies, [WeightSpec(*np.ldexp(w.array, k)) for w in grid])
    assert scaled.vertices == scan.vertices
    assert [p.offset for p in scaled.planes] == [np.ldexp(p.offset, k) for p in scan.planes]


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
