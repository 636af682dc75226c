from dataclasses import fields

import numpy as np
import pytest

from qtradeoff import cli, sdp
from qtradeoff.bounds import nh_problem, nhcrb_sdp
from qtradeoff.linalg import ConvergenceError
from qtradeoff.model import BlochVector, model_point
from qtradeoff.povm import WeightSpec
from qtradeoff.sdp import solve_lmi


def lambda_max_problem(a):
    """(c, F0, Fs, y0, Z0) of min t s.t. t I - A >= 0."""
    n = a.shape[0]
    return (np.array([1.0]), -a, np.array([np.eye(n)]),
            np.array([np.abs(a).sum() + 1.0]), np.eye(n) / n)


def solve_lambda_max(a):
    """min t s.t. t I - A >= 0, solved through the LMI interface."""
    return solve_lmi(*lambda_max_problem(a))


def certificate(c, F0, Fs, res):
    """What the pair (y, Z) certifies, computed from y and Z alone: S(y), the
    primal value c.y, the dual value -Re Tr[F0 Z], the gap Re Tr[Z S(y)],
    the primal residual max(0, -lambda_min(S(y))), and the dual residual
    max_j |c_j - Re Tr[F_j Z]| over 1 + max |c|."""
    S = F0 + np.tensordot(res.y, Fs, axes=1)
    primal = float(c @ res.y)
    dual = -float(np.vdot(F0, res.Z).real)
    gap = float(np.vdot(res.Z, S).real)
    primal_residual = max(0.0, -float(np.linalg.eigvalsh(S)[0]))
    traces = np.array([np.vdot(F, res.Z).real for F in Fs])
    dual_residual = float(np.abs(c - traces).max()) / (1.0 + np.abs(c).max())
    return S, primal, dual, gap, primal_residual, dual_residual


def test_result_is_the_pair_and_its_iteration_count():
    res = solve_lambda_max(np.diag([1.0, -2.0, 3.5]))
    assert [f.name for f in fields(res)] == ["y", "Z", "iterations"]
    assert res.iterations > 0


def test_lambda_max_diagonal():
    a = np.diag([1.0, -2.0, 3.5])
    problem = lambda_max_problem(a)
    res = solve_lmi(*problem)
    assert abs(res.y[0] - 3.5) < 1e-7
    _, primal, dual, gap, primal_residual, dual_residual = certificate(*problem[:3], res)
    assert gap < 1e-6
    assert primal >= dual - 1e-7
    assert primal_residual < 1e-8
    assert dual_residual < 1e-8
    assert np.linalg.eigvalsh(res.Z)[0] > 0.0


def test_lambda_max_random():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = rng.normal(size=(5, 5))
        a = (m + m.T) / 2
        res = solve_lambda_max(a)
        assert abs(res.y[0] - np.linalg.eigvalsh(a).max()) < 1e-6
    # complex Hermitian data goes through the same LMI, without embedding
    for _ in range(5):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = (m + m.conj().T) / 2
        problem = lambda_max_problem(a)
        res = solve_lmi(*problem)
        assert abs(res.y[0] - np.linalg.eigvalsh(a).max()) < 1e-6
        S = certificate(*problem[:3], res)[0]
        assert S.dtype == complex and res.Z.dtype == complex


def test_two_by_two_geometric_mean():
    # min y s.t. [[y, a], [a, y]] >= 0 has optimum y = |a|
    a = 0.7
    c = np.array([1.0])
    F0 = np.array([[0.0, a], [a, 0.0]])
    Fs = np.array([np.eye(2)])
    y0 = np.array([2.0])
    Z0 = np.eye(2) / 2
    res = solve_lmi(c, F0, Fs, y0, Z0)
    assert abs(res.y[0] - abs(a)) < 1e-7


def test_weak_duality_and_agreement():
    # random two-variable LMI with a generic optimum; primal >= dual always
    rng = np.random.default_rng(5)
    for _ in range(5):
        m1 = rng.normal(size=(4, 4))
        m2 = rng.normal(size=(4, 4))
        A1 = (m1 + m1.T) / 2
        A2 = (m2 + m2.T) / 2
        c = np.array([1.0, 0.3])
        F0 = -np.eye(4)
        Fs = np.array([np.eye(4) + 0.2 * A1, np.eye(4) * 0.5 + 0.1 * A2])
        y0 = np.array([10.0, 10.0])
        # dual start: z with Tr[F1 z] = c1, Tr[F2 z] = c2 via scaled identity mix
        # identity satisfies Tr[F1 I] ~ 4, adjust by least squares on the two traces
        t1 = np.trace(Fs[0])
        t2 = np.trace(Fs[1])
        basis = np.array([[t1, np.trace(Fs[0] @ A1)], [t2, np.trace(Fs[1] @ A1)]])
        coef = np.linalg.solve(basis, c)
        Z0 = coef[0] * np.eye(4) + coef[1] * A1
        if np.linalg.eigvalsh(Z0).min() <= 1e-6:
            continue
        res = solve_lmi(c, F0, Fs, y0, Z0)
        _, primal, dual, gap, _, _ = certificate(c, F0, Fs, res)
        assert primal >= dual - 1e-7
        assert gap < 1e-6


def test_singular_schur_complement_returns_the_start():
    # two identical constraint matrices make the Schur complement singular
    # at the first step, after the start passed Cholesky
    c = np.array([0.5, 0.5])
    F0 = -np.diag([1.0, 2.0])
    Fs = np.array([np.eye(2), np.eye(2)])
    res = solve_lmi(c, F0, Fs, np.array([3.0, 3.0]), np.eye(2) / 2)
    assert res.iterations is None
    assert np.array_equal(res.y, [3.0, 3.0])
    assert np.array_equal(res.Z, np.eye(2) / 2)


def _stalling_problem():
    """The two-copy collective-bound SDP at an input where the solver stalls:
    its gap creeps at 1.3e-8 and its dual residual at 4e-8, just above their
    tolerances."""
    point = model_point(BlochVector(0.0252, 0.0252, 0.0252), copies=2)
    problem = nh_problem(point, WeightSpec(2.0, 2.0, 2.0))
    return point, (problem.c, problem.F0, problem.Fs, problem.y0, problem.Z0)


def test_stall_returns_the_last_pair_that_passed_cholesky(monkeypatch):
    _, problem = _stalling_problem()
    scaled = []
    scaling = sdp._nt_scaling

    def recording(S, Z):
        out = scaling(S, Z)
        scaled.append((S, Z))
        return out

    monkeypatch.setattr(sdp, "_nt_scaling", recording)
    res = solve_lmi(*problem)
    assert res.iterations is None
    S, Z = scaled[-1]
    assert res.Z is Z
    F0, Fs = problem[1:3]
    # the solver's S tracks S(y) to rounding
    assert np.abs(F0 + np.tensordot(res.y, Fs, axes=1) - S).max() < 1e-12 * np.abs(S).max()


@pytest.fixture
def scaled_pairs(monkeypatch):
    """The (S, Z) of every iterate that passed _nt_scaling, in order."""
    pairs = []
    scaling = sdp._nt_scaling

    def recording(S, Z):
        out = scaling(S, Z)
        pairs.append((S, Z))
        return out

    monkeypatch.setattr(sdp, "_nt_scaling", recording)
    return pairs


def _returns_the_last_trusted_pair(problem, res, pairs):
    assert res.iterations is None
    S, Z = pairs[-1]
    assert res.Z is Z
    F0, Fs = problem[1:3]
    assert np.abs(F0 + np.tensordot(res.y, Fs, axes=1) - S).max() < 1e-12 * np.abs(S).max()


def test_collapsed_steps_return_the_last_trusted_pair(monkeypatch, scaled_pairs):
    # from the third iterate on, both step lengths collapse below 1e-13
    max_steps = sdp._max_steps

    def collapsing(lam, dlamS, dlamZ):
        return np.full(2, 1e-15) if len(scaled_pairs) >= 3 else max_steps(lam, dlamS, dlamZ)

    monkeypatch.setattr(sdp, "_max_steps", collapsing)
    problem = lambda_max_problem(np.diag([1.0, -2.0, 3.5]))
    res = solve_lmi(*problem)
    assert len(scaled_pairs) == 3
    _returns_the_last_trusted_pair(problem, res, scaled_pairs)


def test_a_cholesky_failure_after_the_first_iterate_returns_the_last_trusted_pair(
        monkeypatch, scaled_pairs):
    # from the second iterate on, steps of 1.2 times the largest feasible
    # length, short of a full step, leave the cone, and the third iterate's
    # Cholesky factorization fails
    max_steps = sdp._max_steps

    def overshooting(lam, dlamS, dlamZ):
        return (1.2 if len(scaled_pairs) >= 2 else 1.0) * max_steps(lam, dlamS, dlamZ)

    monkeypatch.setattr(sdp, "_max_steps", overshooting)
    failures = []
    cholesky = sdp._cholesky

    def recording(a, what):
        try:
            return cholesky(a, what)
        except ConvergenceError as exc:
            failures.append(str(exc))
            raise

    monkeypatch.setattr(sdp, "_cholesky", recording)
    problem = lambda_max_problem(np.diag([1.0, -2.0, 3.5]))
    res = solve_lmi(*problem)
    assert failures == ["dual iterate lost positive definiteness"]
    assert len(scaled_pairs) == 2
    _returns_the_last_trusted_pair(problem, res, scaled_pairs)


def test_failure_before_any_trusted_iterate_raises(monkeypatch):
    def no_scaling(S, Z):
        raise ConvergenceError("scaled iterate lost positive definiteness")

    monkeypatch.setattr(sdp, "_nt_scaling", no_scaling)
    point, problem = _stalling_problem()
    with pytest.raises(ConvergenceError, match="scaled iterate"):
        solve_lmi(*problem)
    with pytest.raises(ConvergenceError, match="scaled iterate"):
        nhcrb_sdp(point, WeightSpec(2.0, 2.0, 2.0))
    assert cli.main(["bounds", "--theta", "0.0252,0.0252,0.0252", "--weights", "2,2,2",
                     "--copies", "2"]) == cli.EXIT_SOLVER == 3


def test_rejects_infeasible_start():
    c = np.array([1.0])
    F0 = -np.eye(2)
    Fs = np.array([np.eye(2)])
    with pytest.raises(ValueError):
        solve_lmi(c, F0, Fs, np.array([0.5]), np.eye(2))  # S(y0) not PD
    with pytest.raises(ValueError):
        solve_lmi(c, F0, Fs, np.array([2.0]), -np.eye(2))  # Z0 not PD


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_lmi(
            np.array([1.0, 2.0]),
            np.eye(2),
            np.array([np.eye(2)]),
            np.array([1.0, 2.0]),
            np.eye(2),
        )


def test_cvxpy_cross_check():
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(21)
    m = rng.normal(size=(4, 4))
    a = (m + m.T) / 2
    res = solve_lambda_max(a)
    t = cp.Variable()
    prob = cp.Problem(cp.Minimize(t), [t * np.eye(4) - a >> 0])
    prob.solve(solver=cp.SCS, eps=1e-9)
    assert abs(res.y[0] - prob.value) < 1e-5
