import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtradeoff import bounds, cli, sdp
from qtradeoff.bounds import (
    BoundValue,
    holevo,
    nh_problem,
    nh_solution,
    nhcrb_analytic,
    nhcrb_sdp,
    qcrb,
)
from qtradeoff.estimation import DEMO_THETAS
from qtradeoff.linalg import ConvergenceError
from qtradeoff.model import PAULIS, BlochVector, model_point
from qtradeoff.povm import (
    WeightSpec,
    quadratic_probability_model,
    single_copy_optimal,
    two_copy_optimal,
)
from qtradeoff.tradeoff import integer_weight_triples

# Interior-point values cross-checked once against an independent convex
# solver (SCS at eps 1e-9) and frozen; all per measurement.
FROZEN_SDP = [
    ((0.3, 0.3, 0.3), (1 / 14, 4 / 14, 9 / 14), 2.3294800165, 0.8034677502),
    ((0.3, 0.3, 0.3), (1.0, 1.0, 1.0), 8.1476014981, 2.7196008910),
    ((0.1, -0.2, 0.4), (1.0, 4.0, 9.0), 32.4749349865, 11.1499581941),
    ((0.2, 0.0, 0.0), (0.2, 0.5, 0.3), 2.8662740046, 0.9643242383),
]

ORIGIN = BlochVector(0, 0, 0)


def test_qcrb_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = rng.normal(size=3)
        t *= rng.uniform(0, 0.9) / np.linalg.norm(t)
        w = rng.uniform(0.1, 1.0, size=3)
        point = model_point(BlochVector(*t))
        got = qcrb(point, WeightSpec(*w))
        assert abs(got.value - (w.sum() - t @ (w * t))) < 1e-12


def test_qcrb_copy_invariance_per_qubit():
    w = WeightSpec(1, 2, 3)
    theta = BlochVector(0.2, 0.1, -0.3)
    one = qcrb(model_point(theta, copies=1), w)
    two = qcrb(model_point(theta, copies=2), w)
    assert abs(one.value - two.value) < 1e-12


def test_holevo_origin_is_weight_trace():
    for copies in (1, 2):
        got = holevo(model_point(ORIGIN, copies=copies), WeightSpec(1, 1, 1))
        assert got.value == 3.0
        assert got.method == "holevo"
        assert got.copies == copies


def test_holevo_hand_value():
    # Tr W = 14, theta.W theta = 1.26, v = 0.3 (6, 3, 2), |v| = 2.1
    theta, w = BlochVector(0.3, 0.3, 0.3), WeightSpec(1, 4, 9)
    assert abs(holevo(model_point(theta), w).value - 16.94) < 1e-12
    two = holevo(model_point(theta, copies=2), w)
    assert abs(two.value - 16.94) < 1e-12


# Interior points up to |theta| = 0.999999 and weights over six decades
# either side of 1, for the solver-independent Holevo properties.
_interior_theta = st.tuples(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
    st.floats(0.0, 0.999999),
).map(lambda vr: vr[1] * np.array(vr[0]) / np.linalg.norm(vr[0]))
_log_weights = st.tuples(*[st.floats(-7.0, 7.0)] * 3).map(np.exp)


def _holevo(theta, weights):
    return holevo(model_point(BlochVector(*theta)), WeightSpec(*weights)).value


@settings(max_examples=200, deadline=None)
@given(_interior_theta, _log_weights)
# LAPACK's eigvalsh returns +-0.7071 for the +-0.75 of this Im Z
@example(np.array([0.75, 2.8627795e-162, 0.0]), np.ones(3))
def test_holevo_between_qcrb_and_gill_massar(theta, w):
    point = model_point(BlochVector(*theta))
    got = holevo(point, WeightSpec(*w)).value
    assert qcrb(point, WeightSpec(*w)).value <= got * (1 + 1e-12)
    assert got <= nhcrb_analytic(point, WeightSpec(*w)).value * (1 + 1e-12)
    # its definition: Tr[W Re Z] + Tr|W^1/2 Im Z W^1/2| with the unique
    # locally unbiased observables X_i = sigma_i - theta_i I
    xs = [PAULIS[i] - theta[i] * np.eye(2) for i in range(3)]
    z = np.einsum("ab,ibc,jca->ij", point.rho, np.array(xs), np.array(xs))
    rw = np.sqrt(w)
    im = rw[:, None] * z.imag * rw[None, :]
    # the trace norm of the real antisymmetric im is its singular-value sum
    want = np.sum(w * np.diag(z.real)) + np.linalg.svd(im, compute_uv=False).sum()
    assert abs(got - want) <= 1e-12 * want


@settings(max_examples=100, deadline=None)
@given(_log_weights)
def test_holevo_equals_qcrb_at_origin(w):
    point = model_point(ORIGIN)
    assert holevo(point, WeightSpec(*w)).value == qcrb(point, WeightSpec(*w)).value == w.sum()


@settings(max_examples=100, deadline=None)
@given(_interior_theta, _log_weights, st.permutations([0, 1, 2]))
def test_holevo_axis_permutation_covariance(theta, w, perm):
    want = _holevo(theta, w)
    assert abs(_holevo(theta[perm], w[perm]) - want) <= 1e-12 * want


@settings(max_examples=100, deadline=None)
@given(_interior_theta, _log_weights, st.floats(-5.0, 5.0).map(np.exp))
def test_holevo_scale_covariance(theta, w, c):
    want = c * _holevo(theta, w)
    assert abs(_holevo(theta, c * w) - want) <= 1e-12 * want


@settings(max_examples=100, deadline=None)
@given(_interior_theta, st.floats(-7.0, 7.0).map(np.exp),
       st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 1e-3))
def test_holevo_rotation_invariance_for_isotropic_weights(theta, c, quaternion):
    a, b, s, d = np.array(quaternion) / np.linalg.norm(quaternion)
    rotation = np.array([
        [a * a + b * b - s * s - d * d, 2 * (b * s - a * d), 2 * (b * d + a * s)],
        [2 * (b * s + a * d), a * a - b * b + s * s - d * d, 2 * (s * d - a * b)],
        [2 * (b * d - a * s), 2 * (s * d + a * b), a * a - b * b - s * s + d * d],
    ])
    w = np.full(3, c)
    want = _holevo(theta, w)
    assert abs(_holevo(rotation @ theta, w) - want) <= 1e-12 * want


def test_holevo_below_two_copy_collective_bound():
    # the frozen values are per measurement; two copies take two qubits each
    for theta, weights, _, c2 in FROZEN_SDP:
        point = model_point(BlochVector(*theta), copies=2)
        w = WeightSpec(*weights)
        got = holevo(point, w).value
        assert got <= 2.0 * c2
        nh = nhcrb_sdp(point, w)
        assert got <= nh.value + nh.gap


def test_analytic_origin_values():
    w = WeightSpec(1, 1, 1)
    one, two = model_point(ORIGIN, copies=1), model_point(ORIGIN, copies=2)
    assert abs(nhcrb_analytic(one, w).value - 9.0) < 1e-12
    assert abs(nhcrb_analytic(two, w).value - 6.0) < 1e-12
    with pytest.raises(ValueError):
        nhcrb_analytic(model_point(ORIGIN, copies=3), w)


def test_analytic_origin_general_weights():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.uniform(0.05, 1.0, size=3)
        rw = np.sqrt(w)
        c1 = nhcrb_analytic(model_point(ORIGIN, copies=1), WeightSpec(*w))
        assert abs(c1.value - rw.sum() ** 2) < 1e-12
        c2 = nhcrb_analytic(model_point(ORIGIN, copies=2), WeightSpec(*w))
        cross = rw[0] * rw[1] + rw[0] * rw[2] + rw[1] * rw[2]
        assert abs(c2.value - (w.sum() + cross)) < 2e-12


def test_sdp_matches_frozen_oracles():
    # the frozen values are per measurement: copies times each is per qubit
    for theta, weights, c1, c2 in FROZEN_SDP:
        w = WeightSpec(*weights)
        got1 = nhcrb_sdp(model_point(BlochVector(*theta), copies=1), w)
        got2 = nhcrb_sdp(model_point(BlochVector(*theta), copies=2), w)
        assert abs(got1.value - c1) / c1 < 2e-6
        assert abs(got2.value - 2 * c2) / (2 * c2) < 2e-6
        assert got1.gap < 1e-6 and got2.gap < 2e-6
        assert got1.method == "sdp"
        assert got1.iterations > 0


def test_sdp_matches_analytic_at_origin():
    rng = np.random.default_rng(4)
    for _ in range(5):
        w = WeightSpec(*rng.uniform(0.05, 1.0, size=3))
        for copies in (1, 2):
            point = model_point(ORIGIN, copies=copies)
            want = nhcrb_analytic(point, w).value
            got = nhcrb_sdp(point, w)
            assert abs(got.value - want) / want < 1e-5


def _gill_massar(theta, weights):
    """Single-copy bound per qubit, (Tr sqrt(J^-1/2 W J^-1/2))^2."""
    t = np.asarray(theta, dtype=float)
    vals, vecs = np.linalg.eigh(np.eye(3) - np.outer(t, t))
    root = (vecs * np.sqrt(vals)) @ vecs.T
    inner = root @ np.diag(weights) @ root
    return float(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum() ** 2)


def _gill_massar_inputs():
    """40 seeded interior points, |theta| <= 0.95, with log-uniform weights
    over six decades."""
    rng = np.random.default_rng(40)
    for _ in range(40):
        v = rng.normal(size=3)
        theta = rng.uniform(0.0, 0.95) * v / np.linalg.norm(v)
        w = 10.0 ** rng.uniform(0.0, 6.0, size=3)
        w /= w.sum()
        yield theta, w


def test_single_copy_sdp_matches_gill_massar():
    # solver-independent oracle: the single-copy bound has a closed form
    for theta, w in _gill_massar_inputs():
        got = nhcrb_sdp(model_point(BlochVector(*theta), copies=1), WeightSpec(*w))
        want = _gill_massar(theta, w)
        assert abs(got.value - want) / want < 1e-7


def test_analytic_matches_gill_massar():
    for theta, w in _gill_massar_inputs():
        got = nhcrb_analytic(model_point(BlochVector(*theta), copies=1), WeightSpec(*w))
        assert got.method == "analytic" and got.copies == 1
        want = _gill_massar(theta, w)
        assert abs(got.value - want) / want < 1e-12
        # two copies have a closed form at the origin only
        assert nhcrb_analytic(model_point(BlochVector(*theta), copies=2), WeightSpec(*w)) is None


def _mp_closed_form(theta, w, copies):
    """The closed form per qubit at 60 digits from mpmath's eigenvalues
    lambda of W - u u^T, u = W^1/2 theta: sum_k lambda_k + (3 - copies) q with
    q = sum_{i<j} sqrt(lambda_i lambda_j), which is (sum_k sqrt(lambda_k))^2
    for one copy and sum_i w_i + sum_{i<j} sqrt(w_i w_j) for two at the origin."""
    with mpmath.workdps(60):
        t = [mpmath.mpf(float(x)) for x in theta]
        u = [mpmath.sqrt(mpmath.mpf(float(x))) * y for x, y in zip(w, t)]
        m = mpmath.matrix([[(float(w[i]) if i == j else 0) - u[i] * u[j] for j in range(3)]
                           for i in range(3)])
        lam = [max(x, 0) for x in mpmath.eigsy(m, eigvals_only=True)]
        s = [mpmath.sqrt(x) for x in lam]
        return sum(lam) + (3 - copies) * (s[0] * s[1] + s[0] * s[2] + s[1] * s[2])


def _mp_qcrb(theta, w):
    """The QCRB per qubit at 60 digits, sum_i w_i (1 - theta_i^2)."""
    with mpmath.workdps(60):
        return sum(mpmath.mpf(float(x)) * (1 - mpmath.mpf(float(y)) ** 2)
                   for x, y in zip(w, theta))


def _mp_holevo(theta, w):
    """The Holevo bound per qubit at 60 digits, the QCRB plus
    2 (sum_k w_i w_j theta_k^2)^1/2 over cyclic (i, j, k)."""
    with mpmath.workdps(60):
        t = [mpmath.mpf(float(x)) for x in theta]
        v = [mpmath.mpf(float(x)) for x in w]
        return _mp_qcrb(theta, w) + 2 * mpmath.sqrt(
            sum(v[(k + 1) % 3] * v[(k + 2) % 3] * t[k] ** 2 for k in range(3)))


def _relative_error(got, want):
    return float(abs(got - want) / want) if want else abs(got)


def test_stacked_closed_forms_equal_the_scalar_formula_bitwise():
    # 48 points with 50 weight rows each: one copy anywhere in the closed
    # ball, a third of them at the origin; two copies at the origin and, at
    # four points, off it, where there is no closed form. Weights are
    # log-uniform over six decades, and every fifth row has a zero weight.
    # The stack is bit for bit nhcrb_analytic row by row, and within 2e-15
    # of 60-digit mpmath.
    rng = np.random.default_rng(18)
    compared = 0
    for n in range(48):
        copies = 1 + n % 2
        v = rng.normal(size=3)
        radius = 0.0 if copies == 2 or n % 6 == 0 else rng.uniform(0.0, 1.0)
        theta = BlochVector(*(radius * v / np.linalg.norm(v)))
        if copies == 2 and n % 12 == 3:
            theta = BlochVector(0.1, -0.2, 0.3)
        point = model_point(theta, copies=copies)
        w = 10.0 ** rng.uniform(-3.0, 3.0, size=(50, 3))
        w[::5, n % 3] = 0.0
        forms = bounds._closed_forms(point, w)
        if copies == 2 and theta.norm > 0.0:
            assert forms is None
            assert all(nhcrb_analytic(point, WeightSpec(*row)) is None for row in w)
            continue
        got, _ = forms
        assert got == [nhcrb_analytic(point, WeightSpec(*row)).value for row in w]
        for value, row in zip(got, w):
            assert _relative_error(value, _mp_closed_form(theta.array, row, copies)) <= 2e-15
        compared += len(w)
    assert compared >= 2000


def _mpmath_oracle_inputs():
    """1000 seeded points with |theta| <= 0.999, 200 of them within 0.01 of
    the sphere near an axis, with log-uniform weights over 16 decades, then
    the input on which an eigvalsh-based closed form was off by 1.5e-8."""
    rng = np.random.default_rng(22)
    for n in range(1000):
        v = rng.normal(size=3)
        radius = rng.uniform(0.0, 0.999)
        if n % 5 == 0:
            v[rng.permutation(3)[:2]] *= 10.0 ** rng.uniform(-6.0, 0.0, size=2)
            radius = rng.uniform(0.99, 0.999)
        yield radius * v / np.linalg.norm(v), 10.0 ** rng.uniform(-8.0, 8.0, size=3)
    yield np.array([-0.2705, -0.4537, -0.3660]), np.array([3.46e-6, 1e-16, 1.0])


def test_closed_forms_holevo_and_qcrb_match_60_digit_mpmath():
    for n, (theta, w) in enumerate(_mpmath_oracle_inputs()):
        point = model_point(BlochVector(*theta))
        got = nhcrb_analytic(point, WeightSpec(*w)).value
        assert _relative_error(got, _mp_closed_form(theta, w, 1)) <= 2e-15
        assert _relative_error(holevo(point, WeightSpec(*w)).value, _mp_holevo(theta, w)) <= 2e-15
        assert _relative_error(qcrb(point, WeightSpec(*w)).value, _mp_qcrb(theta, w)) <= 2e-15
        if n % 10 == 0:
            for copies in (1, 2):
                got = nhcrb_analytic(model_point(ORIGIN, copies), WeightSpec(*w)).value
                assert _relative_error(got, _mp_closed_form(np.zeros(3), w, copies)) <= 2e-15


@pytest.mark.parametrize("theta, copies", [((0.0, 0.0, 0.0), 1), ((0.0, 0.0, 0.0), 2),
                                           ((0.3, -0.2, 0.1), 1), ((-0.2705, -0.4537, -0.366), 1),
                                           ((0.0, 0.0, 1.0), 1), ((0.6, 0.0, -0.79), 1)])
@pytest.mark.parametrize("weights", [(1.0, 4.0, 9.0), (3.46e-6, 1e-16, 1.0), (0.3, 0.3, 0.4),
                                     (1e8, 1.0, 1e-8)])
def test_closed_forms_and_holevo_scale_bitwise_by_powers_of_four(theta, copies, weights):
    # c(theta, 4^j W) = 4^j c(theta, W) to the bit for j in [-250, 250], and
    # the tangent point does not move: every bound is evaluated at the
    # weights scaled to sum to within [1/2, 2)
    point = model_point(BlochVector(*theta), copies)
    w = np.array(weights)
    j = np.arange(-250, 251)
    rows = np.ldexp(w, 2 * j[:, None])
    (base,), (tangent,) = bounds._closed_forms(point, w[None, :])
    values, tangents = bounds._closed_forms(point, rows)
    assert values == np.ldexp(base, 2 * j).tolist()
    assert np.array_equal(tangents, np.broadcast_to(tangent, tangents.shape))
    base = holevo(point, WeightSpec(*w)).value
    scaled = [holevo(point, WeightSpec(*row)).value for row in rows]
    assert scaled == np.ldexp(base, 2 * j).tolist()


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("theta", [(0.0, 0.0, 0.0), (0.1, 0.2, 0.1)])
def test_every_bound_is_finite_at_weights_near_the_largest_float(theta, copies):
    # products of the weights would overflow; the scaled ones do not
    point = model_point(BlochVector(*theta), copies)
    w = WeightSpec(1e300, 1e300, 1e300)
    got = nhcrb_sdp(point, w)
    assert np.isfinite([qcrb(point, w).value, holevo(point, w).value, got.value, got.gap]).all()
    assert 0.0 <= got.gap <= 1e-6 * got.value
    closed = nhcrb_analytic(point, w)
    if closed is not None:
        assert got.value - got.gap <= closed.value <= got.value


# Two-copy inputs on which the interior-point solver used to stop with "lost
# positive definiteness": six interior points, two of them at the origin with
# one dominant weight, and a point at |theta| = 0.999 with a 1e-6 weight.
_AXIS = 1.0 / np.sqrt(3.0)
HARD_TWO_COPY = [
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
    ((0.999 * _AXIS,) * 3, (1e-6, 1.0, 1.0)),
]


@pytest.mark.parametrize("theta,weights", HARD_TWO_COPY)
def test_two_copy_sdp_converges_on_hard_inputs(theta, weights):
    point = model_point(BlochVector(*theta), copies=2)
    w = WeightSpec(*weights)
    got = nhcrb_sdp(point, w)
    lower = qcrb(point, w).value
    upper = _gill_massar(theta, np.asarray(weights))
    assert lower <= got.value + got.gap
    assert got.value <= upper + got.gap
    if not any(theta):
        want = nhcrb_analytic(point, w).value
        assert abs(got.value - want) / want < 1e-6


def test_sdp_scale_covariance():
    theta = BlochVector(0.3, 0.3, 0.3)
    w = np.array([1.0, 4.0, 9.0])
    point = model_point(theta)
    a = nhcrb_sdp(point, WeightSpec(*w)).value
    b = nhcrb_sdp(point, WeightSpec(*(w / 14.0))).value
    assert abs(a - 14.0 * b) / a < 1e-6


@pytest.mark.parametrize("copies", [1, 2])
@settings(max_examples=15, deadline=None)
@given(theta=_interior_theta.filter(lambda t: np.linalg.norm(t) <= 0.95),
       w=st.tuples(*[st.floats(-3.0, 3.0)] * 3).map(np.exp), k=st.integers(-40, 40))
def test_sdp_depends_only_on_weight_ratios(copies, theta, w, k):
    # c(theta, 2^k W) = 2^k c(theta, W) within the summed gaps, and the
    # bracket stays as tight at weights far from one as near it
    point = model_point(BlochVector(*theta), copies=copies)
    base = nhcrb_sdp(point, WeightSpec(*w))
    scaled = nhcrb_sdp(point, WeightSpec(*np.ldexp(w, k)))
    assert abs(scaled.value - np.ldexp(base.value, k)) <= scaled.gap + np.ldexp(base.gap, k)
    assert 0.0 <= scaled.gap <= 1e-6 * scaled.value


def test_sdp_ordering_qcrb_below_collective():
    theta = BlochVector(0.3, 0.3, 0.3)
    w = WeightSpec.from_integers((1, 2, 3))
    q = qcrb(model_point(theta), w).value
    nh2 = nhcrb_sdp(model_point(theta, copies=2), w).value
    nh1 = nhcrb_sdp(model_point(theta, copies=1), w).value
    assert q <= nh2 + 1e-8
    assert nh2 <= nh1 + 1e-8


def test_sdp_input_validation():
    w = WeightSpec(1, 1, 1)
    with pytest.raises(ValueError):
        nhcrb_sdp(model_point(BlochVector(1 - 1e-8, 0, 0)), w)
    with pytest.raises(ValueError):
        nhcrb_sdp(model_point(BlochVector(0, 0, 0)), WeightSpec(1, 0, 0))


SWAP = np.eye(4)[[0, 2, 1, 3]]


@pytest.mark.parametrize("copies", [1, 2])
def test_sdp_solution_is_feasible(copies):
    w = WeightSpec.from_integers((1, 2, 3))
    point = model_point(BlochVector(0.2, -0.1, 0.3), copies)
    problem = nh_problem(point, w)
    res = sdp.solve_lmi(problem.c, problem.F0, problem.Fs, problem.y0, problem.Z0)
    L, xs = nh_solution(problem, res.y, centered=True)
    assert np.abs(L - L.conj().T).max() < 1e-10
    # L and X read off the lift give back the solver's objective and a PSD lift
    d = point.dim
    objective = np.einsum("j,ab,jbja->", w.array, point.rho, L.reshape(3, d, 3, d)).real
    assert abs(objective - problem.c @ res.y) < 1e-9 * objective
    stack = np.vstack(xs)
    lifted = np.block([[L, stack], [stack.conj().T, np.eye(d)]])
    assert np.linalg.eigvalsh(lifted)[0] > -1e-9
    for i in range(3):
        assert abs(np.trace(point.rho @ xs[i]).real) < 1e-9
        for j in range(3):
            want = 1.0 if i == j else 0.0
            assert abs(np.trace(point.drho[j] @ xs[i]).real - want) < 1e-9
    _, raised = nh_solution(problem, res.y)
    t = point.theta.array
    for i in range(3):
        assert abs(np.trace(point.rho @ raised[i]).real - t[i]) < 1e-9
    if copies == 2:
        # the reduced problem only spans SWAP-invariant L_jk and X_i
        assert len(problem.Fs) == 78
        swap3 = np.kron(np.eye(3), SWAP)
        assert np.abs(swap3 @ L - L @ swap3).max() < 1e-12 * np.abs(L).max()
        for x in xs:
            assert np.abs(SWAP @ x - x @ SWAP).max() < 1e-12 * np.abs(x).max()


# Two-copy values per qubit and their duality gaps (rounded up), frozen
# from the full 16-element operator basis (132 variables) before the SWAP
# reduction; inputs seeded, |theta| in [0.05, 0.9], weights e^U(-2, 2).
FROZEN_FULL_BASIS = [
    ((-0.3074, 0.093, -0.6342), (2.373, 5.267, 4.227), 19.014102494, 3e-08),
    ((0.1182, -0.1858, -0.4064), (0.176, 0.138, 3.753), 4.92696784913, 2.9e-08),
    ((0.4915, 0.1653, -0.3911), (0.448, 2.62, 0.414), 5.34645864813, 3.5e-08),
    ((0.0531, -0.4352, 0.6697), (5.213, 2.3, 1.244), 13.9535738768, 7.8e-08),
    ((0.2886, -0.4404, 0.205), (0.915, 3.227, 0.295), 6.44704243334, 5.3e-08),
    ((0.1198, 0.0047, 0.1103), (0.334, 0.612, 1.638), 4.73103289044, 2.6e-08),
    ((-0.1026, -0.4268, -0.5432), (0.489, 0.289, 1.468), 3.24701338534, 7.8e-09),
    ((-0.5843, -0.1653, 0.3512), (1.995, 3.323, 0.326), 8.27409838924, 1.6e-07),
    ((0.1426, -0.1432, -0.0134), (3.09, 1.174, 1.595), 11.1855965397, 6e-09),
    ((0.646, 0.0513, -0.1378), (0.144, 0.612, 0.168), 1.50997469896, 5.7e-09),
    ((0.0024, 0.2079, -0.6917), (1.526, 1.333, 3.254), 8.92427089557, 1.4e-07),
    ((-0.4757, -0.0545, 0.2354), (0.532, 1.956, 0.689), 5.51399267263, 1.5e-08),
]


@pytest.mark.parametrize("theta,weights,value,gap", FROZEN_FULL_BASIS)
def test_reduced_two_copy_sdp_matches_the_full_basis(theta, weights, value, gap):
    got = nhcrb_sdp(model_point(BlochVector(*theta), copies=2), WeightSpec(*weights))
    assert abs(got.value - value) <= gap + got.gap + 1e-10 * value


def _stalled_at(y, Z):
    """A solve_lmi that stops short at the pair (y, Z)."""
    def solve(*args):
        return sdp.SdpResult(y, Z, None)
    return solve


# Weights that sum to about one, which nhcrb_sdp solves as given, so that an
# iterate of nh_problem(point, w) is one of the problem it solves.
_UNIT_SUM_WEIGHTS = WeightSpec(1 / 16, 4 / 16, 9 / 16)


def test_certified_bracket_contains_the_optimum(monkeypatch):
    point = model_point(BlochVector(0.1, -0.2, 0.4), copies=2)
    w = _UNIT_SUM_WEIGHTS
    converged = nhcrb_sdp(point, w)
    problem = nh_problem(point, w)
    res = sdp.solve_lmi(problem.c, problem.F0, problem.Fs, problem.y0, problem.Z0)
    # a primal iterate pushed inside the cone by raising every L'_ii, and a
    # dual iterate knocked off its affine set and slightly out of the cone
    rng = np.random.default_rng(8)
    y = res.y + 1e-6 * (problem.c > 0)
    noise = rng.normal(size=res.Z.shape) + 1j * rng.normal(size=res.Z.shape)
    Z = res.Z + 1e-7 * (noise + noise.conj().T)
    monkeypatch.setattr(sdp, "solve_lmi", _stalled_at(y, Z))
    got = nhcrb_sdp(point, w)
    assert got.iterations is None and got.method == "sdp"
    assert got.value - got.gap <= converged.value <= got.value
    assert 0.0 < got.gap < 1e-4 * got.value


def test_certified_upper_end_holds_at_an_infeasible_iterate(monkeypatch):
    # every L'_ii lowered below the converged iterate: S(y) leaves the cone,
    # and c.y alone would fall below the optimum
    point = model_point(BlochVector(0.1, -0.2, 0.4), copies=2)
    w = _UNIT_SUM_WEIGHTS
    converged = nhcrb_sdp(point, w)
    problem = nh_problem(point, w)
    res = sdp.solve_lmi(problem.c, problem.F0, problem.Fs, problem.y0, problem.Z0)
    y = res.y - 1e-6 * (problem.c > 0)
    assert np.linalg.eigvalsh(problem.F0 + np.tensordot(y, problem.Fs, axes=1))[0] < 0.0
    monkeypatch.setattr(sdp, "solve_lmi", _stalled_at(y, res.Z))
    got = nhcrb_sdp(point, w)
    assert got.value >= converged.value - converged.gap
    assert got.value - got.gap <= converged.value


def test_bare_convergence_error_propagates(monkeypatch):
    def no_iterate(*args):
        raise ConvergenceError("primal iterate lost positive definiteness")

    monkeypatch.setattr(sdp, "solve_lmi", no_iterate)
    with pytest.raises(ConvergenceError, match="primal iterate"):
        nhcrb_sdp(model_point(BlochVector(0.1, 0.1, 0.1), copies=2), WeightSpec(1, 2, 3))


def test_stalled_solve_stops_early_with_a_certified_bracket(monkeypatch):
    # the dual residual creeps at about 2.4e-8 here, just above its
    # tolerance; the weights sum to about one, so nhcrb_sdp solves them as
    # given (at W = 2I the scaled solve converges)
    theta, weights = (0.0252, 0.0252, 0.0252), (0.375, 0.375, 0.375)
    iterations = []
    scaling = sdp._nt_scaling

    def counting(S, Z):
        iterations.append(1)
        return scaling(S, Z)

    monkeypatch.setattr(sdp, "_nt_scaling", counting)
    point = model_point(BlochVector(*theta), copies=2)
    w = WeightSpec(*weights)
    problem = nh_problem(point, w)
    stop = sdp.solve_lmi(problem.c, problem.F0, problem.Fs, problem.y0, problem.Z0)
    assert stop.iterations is None
    assert len(iterations) <= 40
    got = nhcrb_sdp(point, w)
    assert got.iterations is None
    assert holevo(point, w).value <= got.value - got.gap
    assert got.value <= _gill_massar(theta, np.asarray(weights))


def _sweep_inputs():
    """The (theta, weights) of every row of the reproduce sweep."""
    for t in DEMO_THETAS:
        for _, w in integer_weight_triples():
            yield (t, t, t), w.array


def _near_origin_inputs():
    """200 seeded points with |theta| <= 0.05 and near-equal weights."""
    rng = np.random.default_rng(200)
    for _ in range(200):
        v = rng.normal(size=3)
        yield rng.uniform(0.0, 0.05) * v / np.linalg.norm(v), np.exp(rng.uniform(-0.5, 0.5, 3))


def _random_interior_inputs():
    """100 seeded points with |theta| <= 0.95 and weights e^U(-3, 3)."""
    rng = np.random.default_rng(100)
    for _ in range(100):
        v = rng.normal(size=3)
        yield rng.uniform(0.0, 0.95) * v / np.linalg.norm(v), np.exp(rng.uniform(-3.0, 3.0, 3))


def _assert_two_copy_between_holevo_and_gill_massar(theta, weights):
    point = model_point(BlochVector(*theta), copies=2)
    w = WeightSpec(*weights)
    got = nhcrb_sdp(point, w)
    assert got.gap is not None and got.gap >= 0.0
    assert holevo(point, w).value - got.gap <= got.value
    assert got.value <= _gill_massar(theta, np.asarray(weights)) + got.gap


@pytest.mark.parametrize("inputs", [_sweep_inputs, _near_origin_inputs,
                                    _random_interior_inputs])
def test_two_copy_scan_never_raises(inputs):
    # inputs on which the solver stalls short of its tolerances return the
    # certified bracket instead of raising
    for theta, weights in inputs():
        _assert_two_copy_between_holevo_and_gill_massar(theta, weights)


@settings(max_examples=30, deadline=None)
@given(_interior_theta.filter(lambda t: np.linalg.norm(t) <= 0.98),
       st.tuples(*[st.floats(-3.0, 3.0)] * 3).map(np.exp))
def test_two_copy_between_holevo_and_gill_massar(theta, w):
    _assert_two_copy_between_holevo_and_gill_massar(theta, w)


def _assert_bracket_contains(got, want, slack):
    assert got.value - got.gap - slack <= want <= got.value + slack


@pytest.mark.parametrize("inputs", [_sweep_inputs, _near_origin_inputs,
                                    _random_interior_inputs])
def test_single_copy_bracket_contains_the_closed_form(inputs):
    for theta, weights in inputs():
        point = model_point(BlochVector(*theta), copies=1)
        w = WeightSpec(*weights)
        want = nhcrb_analytic(point, w).value
        _assert_bracket_contains(nhcrb_sdp(point, w), want, 1e-12 * want)


def test_two_copy_bracket_contains_the_origin_closed_form():
    rng = np.random.default_rng(300)
    point = model_point(ORIGIN, copies=2)
    for _ in range(100):
        w = WeightSpec(*np.exp(rng.uniform(-3.0, 3.0, 3)))
        want = nhcrb_analytic(point, w).value
        _assert_bracket_contains(nhcrb_sdp(point, w), want, 1e-12 * want)


def test_bracket_contains_the_frozen_values():
    for theta, weights, c1, c2 in FROZEN_SDP:
        for copies, want in ((1, c1), (2, c2)):
            point = model_point(BlochVector(*theta), copies=copies)
            got = nhcrb_sdp(point, WeightSpec(*weights))
            # the frozen values are per measurement, rounded to 10 decimals
            _assert_bracket_contains(got, copies * want, copies * (5e-11 + 1e-12 * want))


# One weight 10^-k below the others, in each position: the bracket's lower
# end must scale with the weights, not with sum_i 1/w_i.
_LOPSIDED_WEIGHTS = [tuple(10.0 ** -k if i == small else 1.0 for i in range(3))
                     for k in (4, 8, 12) for small in range(3)]


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("theta", [(0.0, 0.0, 0.0), (0.3, -0.2, 0.1)])
@pytest.mark.parametrize("weights", _LOPSIDED_WEIGHTS,
                         ids=lambda w: "-".join(f"{x:g}" for x in w))
def test_bracket_is_tight_at_lopsided_weights(weights, theta, copies):
    point = model_point(BlochVector(*theta), copies=copies)
    w = WeightSpec(*weights)
    got = nhcrb_sdp(point, w)
    assert 0.0 <= got.gap <= 1e-6 * got.value
    closed = nhcrb_analytic(point, w)
    if closed is not None:
        assert got.value - got.gap <= closed.value <= got.value


def test_sdp_recovers_pauli_observables_at_origin():
    w = WeightSpec(1, 1, 1)
    point = model_point(BlochVector(0, 0, 0))
    problem = nh_problem(point, w)
    res = sdp.solve_lmi(problem.c, problem.F0, problem.Fs, problem.y0, problem.Z0)
    _, xs = nh_solution(problem, res.y)
    from qtradeoff.model import PAULIS

    for i in range(3):
        assert np.abs(xs[i] - PAULIS[i]).max() < 1e-5


def _origin_certificate(povm, w):
    """Primal feasible point of the origin SDP built from a measurement.

    With the coefficients c_i(m) of the measurement's unbiased linear
    estimator, the blocks L_jk = sum_m c_j(m) c_k(m) Pi_m and observables
    X_i = sum_m c_i(m) Pi_m make the lift a sum of outer products, hence
    PSD. Returns (objective per measurement, L, the lift's least
    eigenvalue, the largest residual of Tr[rho X_i] = 0 and
    Tr[d_j rho X_i] = delta_ij).
    """
    coeff = quadratic_probability_model(povm).design.T
    point = model_point(ORIGIN, povm.copies)
    d = point.dim
    els = np.array(povm.elements)
    xs = np.einsum("mi,mab->iab", coeff, els)
    L = np.einsum("mj,mk,mab->jakb", coeff, coeff, els).reshape(3 * d, 3 * d)
    stack = xs.reshape(3 * d, d)
    lifted = np.block([[L, stack], [stack.conj().T, np.eye(d)]])
    centering = np.einsum("ab,iba->i", point.rho, xs).real
    unbiased = np.einsum("jab,iba->ij", np.array(point.drho), xs).real
    resid = max(np.abs(centering).max(), np.abs(unbiased - np.eye(3)).max())
    value = np.einsum("j,ab,jbja->", w.array, point.rho, L.reshape(3, d, 3, d)).real
    return float(value), L, float(np.linalg.eigvalsh(lifted)[0]), float(resid)


def test_certificate_single_copy():
    w = WeightSpec(1.0, 4.0, 9.0)
    value, L, min_eig, resid = _origin_certificate(single_copy_optimal(w), w)
    want = nhcrb_analytic(model_point(ORIGIN, copies=1), w).value
    assert abs(value - want) < 1e-12
    assert min_eig >= -1e-12
    assert resid < 1e-12
    assert np.abs(np.diag(L).real - np.array([6, 6, 3, 3, 2, 2])).max() < 1e-12
    assert abs(value - 36.0) < 1e-12


def test_certificate_two_copy():
    rng = np.random.default_rng(5)
    for _ in range(5):
        raw = rng.uniform(0.05, 1.0, size=3)
        w = WeightSpec(*raw)
        value, L, min_eig, resid = _origin_certificate(two_copy_optimal(w), w)
        # the certificate's value is per measurement
        want = nhcrb_analytic(model_point(ORIGIN, copies=2), w).value
        assert abs(2 * value - want) < 2e-10
        assert min_eig >= -1e-12
        assert resid < 1e-12
        rw = np.sqrt(raw)
        d = 4
        for i in range(3):
            others = [j for j in range(3) if j != i]
            want_tr = 2.0 + (rw[others[0]] + rw[others[1]]) / rw[i]
            block = L[i * d:(i + 1) * d, i * d:(i + 1) * d]
            assert abs(np.trace(block).real - want_tr) < 1e-10


def test_convert_normalization_round_trip():
    # the library is per qubit; the CLI's records divide by the qubits one
    # measurement consumes, and the choice of normalization is checked there
    assert cli._divisor("per_measurement", 2) == 2
    assert cli._divisor("per_qubit", 2) == 1
    assert cli._divisor("per_qubit", 1) == 1
    b = BoundValue(value=6.0, method="analytic", copies=2)
    per_meas = cli._bound_record("nhcrb", b, "per_measurement")["value"]
    assert per_meas == 3.0
    assert per_meas * cli._divisor("per_measurement", 2) == 6.0
    assert cli._bound_record("nhcrb", b, "per_qubit")["value"] == 6.0
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["bounds", "--normalization", "per_shot"])


def test_bound_value_validation_and_to():
    b = BoundValue(value=6.0, method="sdp", copies=2, gap=2e-7, iterations=11,
                   tangent=(2.0, 4.0, 8.0))
    assert (b.value, b.gap, b.iterations, b.tangent) == (6.0, 2e-7, 11, (2.0, 4.0, 8.0))
    # to a per-measurement record: the gap is an error quantity too, divided with the value
    rec = cli._bound_record("nhcrb", b, "per_measurement")
    assert (rec["value"], rec["gap"], rec["iterations"]) == (3.0, 1e-7, 11)
    assert (rec["method"], rec["copies"], rec["normalization"]) == ("sdp", 2, "per_measurement")
    plain = cli._bound_record("qcrb", BoundValue(value=3.0, method="qcrb", copies=1), "per_qubit")
    assert plain["value"] == 3.0 and "gap" not in plain and "iterations" not in plain
    with pytest.raises(ValueError):
        BoundValue(value=-1.0, method="qcrb", copies=1)
    with pytest.raises(ValueError):
        BoundValue(value=1.0, method="qcrb", copies=0)


def _cvxpy_nhcrb(theta, weights, copies):
    cp = pytest.importorskip("cvxpy")
    point = model_point(BlochVector(*theta), copies)
    d = point.dim
    rho, drho = point.rho, point.drho
    blocks = {}
    for j in range(3):
        for k in range(j, 3):
            blocks[j, k] = cp.Variable((d, d), hermitian=True)
    L = cp.bmat([[blocks[min(j, k), max(j, k)] for k in range(3)] for j in range(3)])
    xs = [cp.Variable((d, d), hermitian=True) for _ in range(3)]
    cons = []
    for i in range(3):
        cons.append(cp.trace(rho @ xs[i]) == 0)
        for j in range(3):
            want = 1.0 if i == j else 0.0
            cons.append(cp.trace(drho[j] @ xs[i]) == want)
    stack = cp.vstack(xs)
    lifted = cp.bmat([[L, stack], [stack.H, np.eye(d)]])
    cons.append(lifted >> 0)
    w = np.asarray(weights, dtype=float)
    obj = cp.real(sum(w[j] * cp.trace(rho @ blocks[j, j]) for j in range(3)))
    prob = cp.Problem(cp.Minimize(obj), cons)
    prob.solve(solver=cp.SCS, eps=1e-9, max_iters=200000)
    return float(prob.value)


@pytest.mark.parametrize("copies", [1, 2])
def test_sdp_against_live_convex_solver(copies):
    rng = np.random.default_rng(6)
    t = rng.normal(size=3)
    t *= 0.35 / np.linalg.norm(t)
    w = rng.uniform(0.2, 1.0, size=3)
    oracle = _cvxpy_nhcrb(tuple(t), tuple(w), copies)
    # the oracle is per measurement
    got = nhcrb_sdp(model_point(BlochVector(*t), copies), WeightSpec(*w)).value
    assert abs(got - copies * oracle) / (copies * oracle) < 1e-5
