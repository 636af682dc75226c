import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtradeoff import sdp
from qtradeoff.bounds import (
    BoundValue,
    convert_normalization,
    holevo,
    nh_optimal_certificate_origin,
    nh_problem,
    nh_solution,
    nhcrb_analytic,
    nhcrb_sdp,
    qcrb,
)
from qtradeoff.model import PAULIS, BlochVector, model_point
from qtradeoff.povm import WeightSpec

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
        assert got.normalization == "per_qubit"
        assert abs(got.value - (w.sum() - t @ (w * t))) < 1e-12


def test_qcrb_copy_invariance_per_qubit():
    w = WeightSpec(1, 2, 3)
    theta = BlochVector(0.2, 0.1, -0.3)
    one = qcrb(model_point(theta, copies=1), w)
    two = qcrb(model_point(theta, copies=2), w)
    assert abs(one.value - two.value) < 1e-12
    # each two-copy measurement consumes two qubits
    assert abs(two.to("per_measurement").value - 0.5 * one.value) < 1e-12


def test_holevo_origin_is_weight_trace():
    for copies in (1, 2):
        got = holevo(model_point(ORIGIN, copies=copies), WeightSpec(1, 1, 1))
        assert got.value == 3.0
        assert got.normalization == "per_qubit"
        assert got.method == "holevo"
        assert got.copies == copies


def test_holevo_hand_value():
    # Tr W = 14, theta.W theta = 1.26, v = 0.3 (6, 3, 2), |v| = 2.1
    theta, w = BlochVector(0.3, 0.3, 0.3), WeightSpec(1, 4, 9)
    assert abs(holevo(model_point(theta), w).value - 16.94) < 1e-12
    two = holevo(model_point(theta, copies=2), w)
    assert abs(two.value - 16.94) < 1e-12
    assert abs(two.to("per_measurement").value - 8.47) < 1e-12


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
    want = np.sum(w * np.diag(z.real)) + np.abs(np.linalg.eigvalsh(1j * im)).sum()
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
    assert abs(nhcrb_analytic(one, w).to("per_measurement").value - 9.0) < 1e-12
    assert abs(nhcrb_analytic(two, w).to("per_measurement").value - 3.0) < 1e-12
    assert abs(nhcrb_analytic(two, w).value - 6.0) < 1e-12
    with pytest.raises(ValueError):
        nhcrb_analytic(model_point(ORIGIN, copies=3), w)


def test_analytic_origin_general_weights():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.uniform(0.05, 1.0, size=3)
        rw = np.sqrt(w)
        c1 = nhcrb_analytic(model_point(ORIGIN, copies=1), WeightSpec(*w)).to("per_measurement")
        assert abs(c1.value - rw.sum() ** 2) < 1e-12
        c2 = nhcrb_analytic(model_point(ORIGIN, copies=2), WeightSpec(*w)).to("per_measurement")
        cross = rw[0] * rw[1] + rw[0] * rw[2] + rw[1] * rw[2]
        assert abs(c2.value - 0.5 * (w.sum() + cross)) < 1e-12


def test_sdp_matches_frozen_oracles():
    for theta, weights, c1, c2 in FROZEN_SDP:
        w = WeightSpec(*weights)
        got1 = nhcrb_sdp(model_point(BlochVector(*theta), copies=1), w).to("per_measurement")
        got2 = nhcrb_sdp(model_point(BlochVector(*theta), copies=2), w).to("per_measurement")
        assert abs(got1.value - c1) / c1 < 2e-6
        assert abs(got2.value - c2) / c2 < 2e-6
        assert got1.gap < 1e-6 and got2.gap < 1e-6
        assert got1.method == "sdp"
        assert got1.iterations > 0


def test_sdp_matches_analytic_at_origin():
    rng = np.random.default_rng(4)
    for _ in range(5):
        w = WeightSpec(*rng.uniform(0.05, 1.0, size=3))
        for copies in (1, 2):
            point = model_point(ORIGIN, copies=copies)
            want = nhcrb_analytic(point, w).to("per_measurement").value
            got = nhcrb_sdp(point, w).to("per_measurement")
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
    a = nhcrb_sdp(point, WeightSpec(*w)).to("per_measurement").value
    b = nhcrb_sdp(point, WeightSpec(*(w / 14.0))).to("per_measurement").value
    assert abs(a - 14.0 * b) / a < 1e-6


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


def test_sdp_solution_is_feasible():
    w = WeightSpec.from_integers((1, 2, 3))
    point = model_point(BlochVector(0.2, -0.1, 0.3))
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


def test_sdp_recovers_pauli_observables_at_origin():
    w = WeightSpec(1, 1, 1)
    point = model_point(BlochVector(0, 0, 0))
    problem = nh_problem(point, w)
    res = sdp.solve_lmi(problem.c, problem.F0, problem.Fs, problem.y0, problem.Z0)
    _, xs = nh_solution(problem, res.y)
    from qtradeoff.model import PAULIS

    for i in range(3):
        assert np.abs(xs[i] - PAULIS[i]).max() < 1e-5


def test_certificate_single_copy():
    w = WeightSpec(1.0, 4.0, 9.0)
    cert = nh_optimal_certificate_origin(w, copies=1)
    want = nhcrb_analytic(model_point(ORIGIN, copies=1), w).to("per_measurement").value
    assert abs(cert.value - want) < 1e-12
    assert cert.lifted_min_eig >= -1e-12
    assert cert.constraint_residual < 1e-12
    assert np.abs(np.diag(cert.L).real - np.array([6, 6, 3, 3, 2, 2])).max() < 1e-12
    assert abs(cert.value - 36.0) < 1e-12


def test_certificate_two_copy():
    rng = np.random.default_rng(5)
    for _ in range(5):
        raw = rng.uniform(0.05, 1.0, size=3)
        w = WeightSpec(*raw)
        cert = nh_optimal_certificate_origin(w, copies=2)
        want = nhcrb_analytic(model_point(ORIGIN, copies=2), w).to("per_measurement").value
        assert abs(cert.value - want) < 1e-10
        assert cert.lifted_min_eig >= -1e-12
        assert cert.constraint_residual < 1e-12
        rw = np.sqrt(raw)
        d = 4
        for i in range(3):
            others = [j for j in range(3) if j != i]
            want_tr = 2.0 + (rw[others[0]] + rw[others[1]]) / rw[i]
            block = cert.L[i * d:(i + 1) * d, i * d:(i + 1) * d]
            assert abs(np.trace(block).real - want_tr) < 1e-10


def test_convert_normalization_round_trip():
    assert convert_normalization(3.0, 2, "per_measurement", "per_qubit") == 6.0
    assert convert_normalization(6.0, 2, "per_qubit", "per_measurement") == 3.0
    assert convert_normalization(5.0, 1, "per_qubit", "per_qubit") == 5.0
    with pytest.raises(ValueError):
        convert_normalization(1.0, 2, "per_shot", "per_qubit")


def test_bound_value_validation_and_to():
    b = BoundValue(value=3.0, normalization="per_measurement", method="analytic", copies=2)
    pq = b.to("per_qubit")
    assert pq.value == 6.0
    assert pq.method == "analytic"
    assert pq.to("per_measurement").value == 3.0
    with pytest.raises(ValueError):
        BoundValue(value=-1.0, normalization="per_qubit", method="qcrb", copies=1)
    with pytest.raises(ValueError):
        BoundValue(value=1.0, normalization="per_banana", method="qcrb", copies=1)
    with pytest.raises(ValueError):
        BoundValue(value=1.0, normalization="per_qubit", method="qcrb", copies=0)


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
    got = nhcrb_sdp(model_point(BlochVector(*t), copies), WeightSpec(*w))
    got = got.to("per_measurement").value
    assert abs(got - oracle) / oracle < 1e-5
