import json
import warnings

import numpy as np
import pytest

from qtradeoff import estimation
from qtradeoff.bounds import nhcrb_analytic, nhcrb_sdp
from qtradeoff.constants import PROB_SUM_TOL
from qtradeoff.estimation import (
    DEMO_SHOTS,
    DEMO_THETAS,
    REPEAT_STREAM,
    MleError,
    ShotPlan,
    _bootstrap_standard_error,
    mle_estimator,
    run_experiment,
    sample_counts,
)
from qtradeoff.model import BlochVector, model_point
from qtradeoff.povm import (
    Povm,
    QuadraticModel,
    WeightSpec,
    outcome_probabilities,
    quadratic_probability_model,
    reference_povm,
    sic_two_copy,
    single_copy_optimal,
    two_copy_optimal,
)

ORIGIN = BlochVector(0, 0, 0)
EQUAL = WeightSpec(1, 1, 1)


def test_shot_plan_validation():
    povm = two_copy_optimal(EQUAL)
    with pytest.raises(ValueError):
        ShotPlan(ORIGIN, povm, 0, 10, 0)
    with pytest.raises(ValueError):
        ShotPlan(ORIGIN, povm, 100, 0, 0)
    with pytest.raises(ValueError):
        ShotPlan(ORIGIN, povm, 100, 10, -1)
    plan = ShotPlan(ORIGIN, povm, 100, 10, 0)
    doc = plan.to_json_dict()
    assert doc["povm"] == "two_copy_optimal"
    assert doc["n_outcomes"] == 7
    assert doc["copies"] == plan.copies == 2


@pytest.mark.parametrize("shots, repeats, seed", [
    (309.5, 10, 0), (309.0, 10, 0), (True, 10, 0),
    (100, 5.0, 0), (100, True, 0), (100, 10, 1.0), (100, 10, False),
], ids=["half-shot", "float-shots", "bool-shots", "float-repeats", "bool-repeats",
        "float-seed", "bool-seed"])
def test_shot_plan_counts_are_integers(shots, repeats, seed):
    # a fractional shot count used to draw 309 shots and scale by 309.5,
    # and a float repeats or seed failed inside numpy with a TypeError
    with pytest.raises(ValueError, match="must be an integer"):
        ShotPlan(ORIGIN, two_copy_optimal(EQUAL), shots, repeats, seed)


def test_shot_plan_takes_numpy_integers():
    plan = ShotPlan(ORIGIN, two_copy_optimal(EQUAL), np.int64(100), np.int32(10), np.uint8(3))
    assert (plan.shots_per_repeat, plan.repeats, plan.seed) == (100, 10, 3)
    assert all(type(v) is int for v in (plan.shots_per_repeat, plan.repeats, plan.seed))
    json.dumps(run_experiment(plan, EQUAL).to_json_dict()["metadata"]["plan"])


def test_a_povm_on_three_qubits_is_rejected():
    # the copy count comes from the POVM's dimension, 2 or 4
    three_qubits = Povm((np.eye(8, dtype=complex),), name="three_qubits", labels=("all",))
    with pytest.raises(ValueError, match="dimension 8"):
        quadratic_probability_model(three_qubits)
    with pytest.raises(ValueError, match="dimension 8"):
        ShotPlan(ORIGIN, three_qubits, 100, 10, 0)


def test_sample_counts():
    rng = np.random.default_rng(0)
    counts = sample_counts(np.full(4, 0.25), 1000, rng)
    assert counts.sum() == 1000


def test_checked_probabilities():
    def constant(q0):
        n = len(q0)
        return QuadraticModel(np.array(q0), np.zeros((n, 3)), np.zeros((n, 3, 3)), PROB_SUM_TOL)

    theta = np.zeros(3)
    with pytest.raises(ValueError, match="sum to"):
        constant([0.5, 0.6]).checked_probabilities(theta)
    with pytest.raises(ValueError, match="negative"):
        constant([1.5, -0.5]).checked_probabilities(theta)
    # a sub-tolerance negative is clipped to zero
    assert np.array_equal(constant([1.0, -1e-13]).checked_probabilities(theta), [1.0, 0.0])
    # the four-decimal reference measurement misses a unit sum by more than
    # PROB_SUM_TOL but within its own budget
    model = quadratic_probability_model(reference_povm(2))
    p = model.checked_probabilities(np.array([0.3, 0.3, 0.3]))
    assert PROB_SUM_TOL < abs(p.sum() - 1.0) <= model.sum_tol


def test_mle_counts_are_checked():
    model = quadratic_probability_model(two_copy_optimal(EQUAL))
    n = len(model.q0)
    with pytest.raises(ValueError, match="shape"):
        mle_estimator(np.ones((2, 2, n)), model)
    # a single count column would broadcast against the outcomes; a wrong
    # length is the same error, not numpy's broadcasting one
    for counts in (np.array([5.0]), np.full((4, 1), 5.0), np.ones(n - 1),
                   np.ones((3, n + 1))):
        with pytest.raises(ValueError, match="shape"):
            mle_estimator(counts, model)
    with pytest.raises(ValueError, match="at least one shot"):
        mle_estimator(np.zeros(n), model)
    with pytest.raises(ValueError, match="at least one shot"):
        mle_estimator(np.array([np.ones(n), np.zeros(n)]), model)
    negative = np.ones(n)
    negative[0] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        mle_estimator(negative, model)
    # a NaN or infinite count would make every start's likelihood non-finite
    # and the start halving endless; a row total that overflows to inf would
    # normalize every frequency to 0; each raises the ValueError even where
    # a RuntimeWarning is an error
    rows = [np.where(np.arange(n) == 1, bad, 1.0) for bad in (np.nan, np.inf, -np.inf)]
    rows.append(np.where(np.arange(n) < 2, 1e308, 0.0))
    rows.append(np.concatenate([[np.inf, -np.inf], np.ones(n - 2)]))
    for row in rows:
        for batch in (row, np.array([np.ones(n), row])):
            with pytest.raises(ValueError, match="finite"), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                mle_estimator(batch, model)
    # an outcome whose element is zero, q0 = 0, cannot be observed
    blind = QuadraticModel(np.append(model.q0, 0.0), np.vstack([model.G, np.zeros(3)]),
                           np.concatenate([model.Q, np.zeros((1, 3, 3))]), model.sum_tol)
    with pytest.raises(ValueError, match="POVM element is zero"):
        mle_estimator(np.ones(n + 1), blind)


def test_mle_start_is_halved_until_every_observed_outcome_is_possible(monkeypatch):
    # six outcomes p = (1 +- theta_i)/6, with -+3 theta_x^2/6 on the x pair:
    # all counts on +x put the linear start at the ball's edge on x, where
    # p_+x = (1 + theta_x - 3 theta_x^2)/6 < 0; halved once, it is positive,
    # and the likelihood p_+x peaks at theta_x = 1/6
    eye = np.eye(3)
    G = np.vstack([eye, -eye]) / 6.0
    Q = np.zeros((6, 3, 3))
    Q[0, 0, 0], Q[3, 0, 0] = -0.5, 0.5
    model = QuadraticModel(np.full(6, 1.0 / 6.0), G, Q, PROB_SUM_TOL)
    counts = np.array([100.0, 0, 0, 0, 0, 0])
    start = estimation._project_ball(model.design @ (counts / 100.0),
                                     0.9 * estimation.MLE_BALL_RADIUS)
    assert model.probabilities(start)[0] <= 0.0 < model.probabilities(start / 2)[0]
    evaluated = []
    likelihood = estimation._likelihood

    def recording(theta, *args):
        out = likelihood(theta, *args)
        evaluated.append((theta.copy(), out[0]))
        return out

    monkeypatch.setattr(estimation, "_likelihood", recording)
    stats = {}
    theta = mle_estimator(counts, model, stats=stats)
    assert np.allclose(theta, [1.0 / 6.0, 0.0, 0.0], atol=1e-7)
    # the Newton loop starts from the halved start
    (first, f_first), (second, f_second) = evaluated[:2]
    assert np.array_equal(first[0], start) and f_first[0] == np.inf
    assert np.array_equal(second[0], start / 2) and np.isfinite(f_second[0])
    assert stats["on_boundary"] == 0


def _philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def test_batched_rows_sum_to_their_shot_counts():
    povm = two_copy_optimal(WeightSpec(1, 2, 3))
    probs = outcome_probabilities(BlochVector(0.1, -0.2, 0.05), povm)
    rng = np.random.default_rng(6)
    for shots in (np.full(500, 309), rng.poisson(309, size=500)):
        counts = sample_counts(probs, shots, rng)
        assert counts.shape == (500, povm.n_outcomes)
        assert counts.min() >= 0
        assert np.array_equal(counts.sum(axis=1), shots)
    assert sample_counts(probs, 309, rng).shape == (povm.n_outcomes,)


@pytest.mark.parametrize("name", ["opt1", "opt2", "sic", "ref1", "ref2"])
def test_scalar_shots_draw_the_rows_of_a_shots_array(name):
    # run_experiment draws with a scalar count and size=R; the rows equal
    # those of the per-row shots array from the same [seed, 0] stream,
    # also where a pure state gives outcomes zero probability
    w = WeightSpec(1, 4, 9)
    povm = {"opt1": single_copy_optimal(w), "opt2": two_copy_optimal(w), "sic": sic_two_copy(),
            "ref1": reference_povm(1), "ref2": reference_povm(2)}[name]
    zero = False
    for theta, shots, repeats in (((0, 0, 0), 309, 1000), ((0.1, -0.2, 0.3), 50, 37),
                                  ((0, 0, 1), 20, 200), ((0.6, 0, -0.8), 1, 5)):
        probs = povm.model.checked_probabilities(np.array(theta, dtype=float))
        scalar = sample_counts(probs, shots, _philox(5, REPEAT_STREAM), size=repeats)
        rows = sample_counts(probs, np.full(repeats, shots), _philox(5, REPEAT_STREAM))
        assert scalar.shape == (repeats, povm.n_outcomes)
        assert np.array_equal(scalar, rows)
        zero |= bool((probs == 0).any())
    # the pure states give these measurements' outcomes zero probability
    assert zero or name.startswith("ref")


def test_same_seed_gives_the_same_counts():
    povm = two_copy_optimal(EQUAL)
    probs = outcome_probabilities(BlochVector(0.2, 0.2, 0.2), povm)
    draws = []
    for seed in (3, 3, 4):
        rng = _philox(seed, REPEAT_STREAM)
        shots = rng.poisson(150, size=200)
        draws.append((shots, sample_counts(probs, shots, rng)))
    assert np.array_equal(draws[0][0], draws[1][0])
    assert np.array_equal(draws[0][1], draws[1][1])
    assert not np.array_equal(draws[0][1], draws[2][1])


@pytest.mark.parametrize(
    "components", [(0, 0, 0), (0.3, 0.3, 0.3), (0.1, -0.2, 0.05)], ids=["origin", "equal", "generic"]
)
def test_run_experiment_counts_come_from_one_stream(components):
    # every state, mixed or not, is sampled directly: the counts are one
    # batched multinomial draw from [seed, 0], and the linear estimates the
    # per-row design @ (c / n) up to the rounding of a 7-term dot product
    w = WeightSpec(1, 2, 3)
    theta = BlochVector(*components)
    povm = two_copy_optimal(w)
    plan = ShotPlan(theta, povm, 200, 300, 9)
    rep = run_experiment(plan, w)
    shots = np.full(300, 200)
    counts = sample_counts(outcome_probabilities(theta, povm), shots, _philox(9, REPEAT_STREAM))
    D = quadratic_probability_model(povm).design
    per_row = np.array([D @ (c / n) for c, n in zip(counts, shots)])
    batched = (counts / shots[:, None]) @ D.T
    scale = (counts / shots[:, None]) @ np.abs(D).T
    assert np.all(np.abs(batched - per_row) <= 1e-15 * scale)
    assert np.array_equal(rep.estimates_mean, batched.mean(axis=0))
    # per qubit: copies * shots * mean squared error
    want = 2 * 200 * ((batched - theta.array) ** 2).mean(axis=0)
    assert np.array_equal(rep.mse.array, want)


def test_bootstrap_equals_the_resample_loop():
    # the closed form is the infinite-resample limit of the bootstrap: a
    # 20 000-resample loop agrees with it within 5 Monte Carlo standard
    # errors. Over B draws with kurtosis k, a sample standard deviation s
    # has standard error about s sqrt((k - 1) / (4 B)) (delta method)
    rng = np.random.default_rng(10)
    weights = np.array([0.2, 0.3, 0.5])
    resamples = 20000
    for repeats in (7, 40, 1000):
        squared = rng.exponential(size=(repeats, 3))
        per_repeat = 2.5 * (squared @ weights)
        draws = np.empty(resamples)
        for b in range(resamples):
            draws[b] = per_repeat[rng.integers(0, repeats, size=repeats)].mean()
        dev = draws - draws.mean()
        kurtosis = (dev ** 4).mean() / (dev ** 2).mean() ** 2
        mc_se = draws.std(ddof=1) * np.sqrt((kurtosis - 1) / (4 * resamples))
        assert abs(draws.std(ddof=1) - _bootstrap_standard_error(squared, weights, 2.5)) <= 5 * mc_se
    # one repetition resamples to itself every time
    assert _bootstrap_standard_error(rng.exponential(size=(1, 3)), weights, 2.5) == 0.0


def test_mixed_sampling_matches_direct_distribution():
    # preparing the eigenstates of rho tensor rho with probability equal to
    # their eigenvalues gives the outcome law that the direct sampler draws
    # from, so equal-component states need no sampler of their own
    for t in (0.0, 0.2, 0.4):
        povm = two_copy_optimal(EQUAL)
        point = model_point(BlochVector(t, t, t), copies=2)
        values, vecs = np.linalg.eigh(point.rho)
        rows = np.array([[(v.conj() @ el @ v).real for el in povm.elements] for v in vecs.T])
        pooled = values @ rows
        direct = outcome_probabilities(point.theta, povm)
        assert np.abs(pooled - direct).sum() < 1e-12


def test_quadratic_model_is_exact():
    rng = np.random.default_rng(2)
    cases = [
        (1, single_copy_optimal(WeightSpec.from_integers((1, 2, 3)))),
        (2, two_copy_optimal(WeightSpec.from_integers((2, 1, 3)))),
        (2, sic_two_copy()),
    ]
    for copies, povm in cases:
        model = quadratic_probability_model(povm)
        for _ in range(5):
            t = rng.normal(size=3)
            t *= rng.uniform(0, 0.8) / np.linalg.norm(t)
            point = model_point(BlochVector(*t), copies=copies)
            born = [np.trace(point.rho @ el).real for el in povm.elements]
            born_jac = [[np.trace(d @ el).real for d in point.drho] for el in povm.elements]
            assert np.abs(model.probabilities(t) - born).max() < 1e-12
            assert np.abs(model.jacobian(t) - born_jac).max() < 1e-12


def test_linear_estimator_unbiased_to_first_order():
    cases = [
        single_copy_optimal(WeightSpec.from_integers((1, 2, 3))),
        two_copy_optimal(WeightSpec.from_integers((1, 1, 3))),
        sic_two_copy(),
    ]
    for povm in cases:
        model = quadratic_probability_model(povm)
        assert np.abs(model.design @ model.G - np.eye(3)).max() < 1e-12
        assert np.abs(model.design @ model.q0).max() < 1e-12


def test_linear_estimator_closed_form_agrees():
    # closed form for the weight-adapted optimal POVMs, counts ordered
    # (+x, -x, +y, -y, +z, -z[, singlet]): the axis-i count difference over
    # shots, divided by the element weight sqrt(w_i) / sum sqrt(w) for one
    # copy, or by sqrt(w_i / D_i) with D_i = (r_i + r_j)(r_i + r_k), r = sqrt(w),
    # for two copies
    rng = np.random.default_rng(3)
    w = WeightSpec.from_integers((1, 2, 3))
    root = np.sqrt(w.array)
    for copies, povm in ((1, single_copy_optimal(w)), (2, two_copy_optimal(w))):
        D = quadratic_probability_model(povm).design
        probs = outcome_probabilities(BlochVector(0.1, 0.05, -0.1), povm)
        counts = sample_counts(probs, 500, rng)
        direct = np.empty(3)
        for i in range(3):
            if copies == 1:
                gain = root[i] / root.sum()
            else:
                j, k = [a for a in range(3) if a != i]
                gain = np.sqrt(w.array[i] / ((root[i] + root[j]) * (root[i] + root[k])))
            direct[i] = (counts[2 * i] - counts[2 * i + 1]) / (500 * gain)
        via_design = D @ (counts / 500)
        assert np.abs(direct - via_design).max() < 1e-12


def test_linear_estimator_origin_validation():
    # z-basis outcomes carry no information on x and y
    z_basis = Povm(
        (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        name="z_basis", labels=("+z", "-z"),
    )
    # which has probabilities but no design
    model = quadratic_probability_model(z_basis)
    assert np.array_equal(model.probabilities(np.zeros(3)), [0.5, 0.5])
    with pytest.raises(ValueError, match="informationally complete"):
        model.design


def test_run_experiment_deterministic():
    plan = ShotPlan(ORIGIN, two_copy_optimal(EQUAL), 100, 50, 5)
    a = run_experiment(plan, EQUAL)
    b = run_experiment(plan, EQUAL)
    assert a.weighted_trace == b.weighted_trace
    assert a.standard_error == b.standard_error
    assert np.array_equal(a.mse.array, b.mse.array)
    assert np.array_equal(a.estimates_mean, b.estimates_mean)


def test_origin_linear_estimator_statistics():
    plan = ShotPlan(ORIGIN, two_copy_optimal(EQUAL), 309, 2000, 11)
    rep = run_experiment(plan, EQUAL)
    # unbiased at the origin
    assert np.abs(rep.estimates_mean).max() < 5e-3
    # attains the two-copy bound V_i = 2 per qubit
    assert np.abs(rep.mse.array - 2.0).max() < 0.25
    assert abs(rep.weighted_trace - 6.0) < 4 * rep.standard_error
    assert rep.metadata["single_copy_bound_per_qubit"] == 9.0
    assert rep.metadata["two_copy_bound_per_qubit"] == 6.0
    assert rep.metadata["z_vs_single_copy"] > 5.0


def test_metadata_bounds_at_the_true_state():
    theta = (0.3, 0.3, 0.3)
    w = WeightSpec(1, 4, 9)
    plan = ShotPlan(BlochVector(*theta), two_copy_optimal(w), 196, 20, 3)
    rep = run_experiment(plan, w)
    # Gill-Massar: (Tr sqrt(J^-1/2 W J^-1/2))^2 with J^-1 = I - theta theta^T
    vals, vecs = np.linalg.eigh(np.eye(3) - np.outer(theta, theta))
    root = (vecs * np.sqrt(vals)) @ vecs.T
    want = np.sqrt(np.linalg.eigvalsh(root @ np.diag(w.array) @ root)).sum() ** 2
    c1 = rep.metadata["single_copy_bound_per_qubit"]
    assert abs(c1 - want) / want < 1e-12
    # the two-copy bound has a closed form only at the origin
    assert "two_copy_bound_per_qubit" not in rep.metadata
    z = (c1 - rep.weighted_trace) / rep.standard_error
    assert rep.metadata["z_vs_single_copy"] == z


def test_per_qubit_mse_independent_of_shots():
    povm = two_copy_optimal(EQUAL)
    r1 = run_experiment(ShotPlan(ORIGIN, povm, 500, 800, 12), EQUAL)
    r2 = run_experiment(ShotPlan(ORIGIN, povm, 2000, 800, 12), EQUAL)
    err = np.hypot(r1.standard_error, r2.standard_error)
    assert abs(r1.weighted_trace - r2.weighted_trace) < 4 * err


def test_mle_self_consistency_on_expected_counts():
    w = WeightSpec.from_integers((1, 2, 3))
    for povm in (single_copy_optimal(w), two_copy_optimal(w), sic_two_copy()):
        model = quadratic_probability_model(povm)
        truth = np.array([0.3, 0.3, 0.3])
        counts = outcome_probabilities(BlochVector(*truth), povm) * 10000
        est = mle_estimator(counts, model)
        assert np.abs(est - truth).max() < 1e-5
        origin_counts = outcome_probabilities(ORIGIN, povm) * 10000
        assert np.abs(mle_estimator(origin_counts, model)).max() < 1e-6


BALL = 1 - 1e-6


def _projected_gradient_norm(counts, est, model):
    """|est - P(est - grad)| for the shot-normalized negative log likelihood."""
    p = model.probabilities(est)
    jac = model.jacobian(est)
    freqs = counts / counts.sum()
    active = freqs > 0
    grad = -(freqs[active] / p[active]) @ jac[active]
    stepped = est - grad
    norm = np.linalg.norm(stepped)
    if norm > BALL:
        stepped = stepped * (BALL / norm)
    return np.linalg.norm(est - stepped)


def _log_likelihood(counts, theta, model):
    p = model.probabilities(theta)
    active = counts > 0
    return counts[active] @ np.log(p[active])


def test_mle_satisfies_first_order_optimality():
    rng = np.random.default_rng(4)
    povm = two_copy_optimal(EQUAL)
    model = quadratic_probability_model(povm)
    probs = outcome_probabilities(BlochVector(0.3, 0.3, 0.3), povm)
    for _ in range(20):
        counts = sample_counts(probs, 196, rng)
        est = mle_estimator(counts, model)
        assert np.linalg.norm(est) <= 1.0
        assert _projected_gradient_norm(counts, est, model) < 1e-6


def _near_sphere_batch():
    # |theta| = 0.95: the singlet outcome has probability 0.024, so some of
    # the 131-shot repeats never see it and their maximum sits on the ball
    povm = two_copy_optimal(EQUAL)
    theta = 0.95 * np.array([1.0, -2.0, 2.0]) / 3.0
    probs = outcome_probabilities(BlochVector(*theta), povm)
    rng = np.random.default_rng(4)
    counts = np.array([sample_counts(probs, 131, rng) for _ in range(40)])
    return povm, theta, counts


def test_mle_near_sphere_batch_is_optimal():
    povm, _, counts = _near_sphere_batch()
    model = quadratic_probability_model(povm)
    stats = {}
    est = mle_estimator(counts, model, stats=stats)
    assert est.shape == (40, 3)
    on_ball = np.abs(np.linalg.norm(est, axis=1) - BALL) < 1e-12
    assert on_ball.sum() >= 1
    assert stats["on_boundary"] == on_ball.sum()
    assert stats["kkt_norm_max"] <= 1e-7
    for c, e in zip(counts, est):
        assert np.linalg.norm(e) <= BALL + 1e-15
        assert _projected_gradient_norm(c, e, model) < 1e-6


def test_mle_rows_do_not_depend_on_their_batch():
    povm, _, counts = _near_sphere_batch()
    model = quadratic_probability_model(povm)
    mixed = np.vstack([counts, np.round(counts[::-1] * 1.5)])
    batched = mle_estimator(mixed, model)
    for c, e in zip(mixed, batched):
        assert np.abs(mle_estimator(c, model) - e).max() <= 1e-12


def test_mle_likelihood_beats_the_truth():
    povm, theta, counts = _near_sphere_batch()
    model = quadratic_probability_model(povm)
    cases = [(counts, theta)]
    probs = outcome_probabilities(BlochVector(0.3, 0.3, 0.3), povm)
    rng = np.random.default_rng(5)
    cases.append((np.array([sample_counts(probs, 196, rng) for _ in range(40)]),
                  np.array([0.3, 0.3, 0.3])))
    for batch, truth in cases:
        for c, e in zip(batch, mle_estimator(batch, model)):
            assert _log_likelihood(c, e, model) >= _log_likelihood(c, truth, model)


def test_mle_failure_carries_state(monkeypatch):
    povm = two_copy_optimal(EQUAL)
    probs = outcome_probabilities(BlochVector(0.3, 0.3, 0.3), povm)
    counts = np.round(probs * 500)
    # a negative tolerance can never be met, forcing the failure path
    monkeypatch.setattr(estimation, "MLE_MAX_ITER", 0)
    monkeypatch.setattr(estimation, "MLE_KKT_TOL", -1.0)
    with pytest.raises(MleError) as err:
        mle_estimator(counts, quadratic_probability_model(povm))
    assert err.value.theta.shape == (3,)
    assert err.value.grad_norm >= 0
    assert np.isfinite(err.value.grad_norm)


def _row_and_its_start():
    """Counts of two_copy_optimal(1, 1, 1) at theta = (0.3, 0.3, 0.3) x 500
    shots, their model and the solve's start, the projected linear estimate."""
    povm = two_copy_optimal(EQUAL)
    counts = np.round(outcome_probabilities(BlochVector(0.3, 0.3, 0.3), povm) * 500)
    model = quadratic_probability_model(povm)
    freqs = counts / counts.sum()
    start = estimation._project_ball((freqs * model.design).sum(axis=-1),
                                     0.9 * estimation.MLE_BALL_RADIUS)
    return counts, model, start


def test_a_row_whose_line_search_finds_no_step_freezes_where_it_stands(monkeypatch):
    # every trial after the start scores +inf, so no trial passes: alpha
    # halves from 1 to eps (53 trials), the row stalls and freezes at its
    # projected linear start, short of the tolerance
    counts, model, start = _row_and_its_start()
    evaluated = []
    likelihood = estimation._likelihood

    def rejecting(theta, *args):
        value, grad, terms = likelihood(theta, *args)
        evaluated.append(theta.copy())
        return (value if len(evaluated) == 1 else np.full_like(value, np.inf)), grad, terms

    monkeypatch.setattr(estimation, "_likelihood", rejecting)
    with pytest.raises(MleError) as err:
        mle_estimator(counts, model)
    assert np.array_equal(err.value.theta, start)
    assert err.value.grad_norm > estimation.MLE_KKT_TOL
    assert len(evaluated) == 1 + 53
    assert np.array_equal(evaluated[0][0], start)


def test_a_line_search_trial_that_does_not_move_fails(monkeypatch):
    # no step meets an Armijo factor of 1e6; once alpha * d is below half an
    # ulp of theta the trial is theta itself, whose zero slope would pass the
    # test and repeat the iteration until MLE_MAX_ITER (4601 evaluations),
    # so a trial that does not move fails and the row stalls after 53 trials
    counts, model, start = _row_and_its_start()
    evaluated = []
    likelihood = estimation._likelihood

    def counting(theta, *args):
        evaluated.append(len(theta))
        return likelihood(theta, *args)

    monkeypatch.setattr(estimation, "_likelihood", counting)
    monkeypatch.setattr(estimation, "MLE_ARMIJO", 1e6)
    with pytest.raises(MleError) as err:
        mle_estimator(counts, model)
    assert np.array_equal(err.value.theta, start)
    assert err.value.grad_norm > estimation.MLE_KKT_TOL
    assert len(evaluated) == 1 + 53


@pytest.mark.parametrize(
    "components, weights, shots, binds",
    [((0.1, -0.2, 0.3), (1, 1, 1), 196, False), ((0.57, 0.57, 0.57), (1, 4, 9), 131, True)],
    ids=["interior", "near_sphere"],
)
def test_per_repetition_mle_calls_match_one_batched_call(monkeypatch, components, weights, shots, binds):
    # run_experiment solves each repetition in its own call and folds the
    # calls' stats (largest iteration count and KKT norm, summed boundary
    # rows); one batched call on the same counts gives the same bits and stats
    w = WeightSpec(*weights)
    theta = BlochVector(*components)
    povm = two_copy_optimal(w)
    per_row = []

    def recording(*args, **kwargs):
        per_row.append(mle_estimator(*args, **kwargs))
        return per_row[-1]

    monkeypatch.setattr(estimation, "mle_estimator", recording)
    rep = run_experiment(ShotPlan(theta, povm, shots, 200, 42), w, estimator="mle")
    counts = sample_counts(povm.model.checked_probabilities(theta.array), np.full(200, shots),
                           _philox(42, REPEAT_STREAM))
    stats = {}
    batched = mle_estimator(counts, povm.model, stats=stats)
    assert len(per_row) == 200
    assert np.array_equal(np.array(per_row), batched)
    assert rep.metadata["mle"] == stats
    # the near-sphere state puts rows on the ball (93 of 200 here)
    assert (stats["on_boundary"] > 0) == binds


def test_cached_metadata_bounds_equal_fresh_closed_forms():
    for theta in (ORIGIN, BlochVector(-0.0, 0.0, 0.0), BlochVector(0.1, -0.2, 0.3)):
        for w in (EQUAL, WeightSpec(1, 4, 9)):
            c1, c2 = estimation._closed_form_bounds(theta, w)
            assert c1 == nhcrb_analytic(model_point(theta, 1), w).value
            fresh = nhcrb_analytic(model_point(theta, 2), w)
            assert c2 == (fresh and fresh.value)
            assert (c2 is None) == bool(theta.array.any())
            meta = run_experiment(ShotPlan(theta, two_copy_optimal(w), 100, 10, 1), w).metadata
            assert meta["single_copy_bound_per_qubit"] == c1
            assert meta.get("two_copy_bound_per_qubit") == c2


def test_run_experiment_rejects_unknown_estimator():
    plan = ShotPlan(ORIGIN, two_copy_optimal(EQUAL), 100, 10, 5)
    with pytest.raises(ValueError):
        run_experiment(plan, EQUAL, estimator="map")


def test_mle_stays_above_collective_bound():
    w = WeightSpec.from_integers((1, 1, 3))
    theta = BlochVector(0.3, 0.3, 0.3)
    plan = ShotPlan(theta, two_copy_optimal(w), 196, 300, 13)
    rep = run_experiment(plan, w, estimator="mle")
    bound = nhcrb_sdp(model_point(theta, 2), w).value
    assert rep.weighted_trace >= bound - 3 * rep.standard_error


def test_adapted_povm_beats_generic_sic():
    w = WeightSpec.from_integers((1, 1, 3))
    adapted = run_experiment(ShotPlan(ORIGIN, two_copy_optimal(w), 309, 2000, 7), w)
    generic = run_experiment(ShotPlan(ORIGIN, sic_two_copy(), 309, 2000, 7), w)
    gap = generic.weighted_trace - adapted.weighted_trace
    err = np.hypot(adapted.standard_error, generic.standard_error)
    assert gap > 3 * err


def test_demo_schedule_pairing():
    assert len(DEMO_THETAS) == len(DEMO_SHOTS) == 5
    assert DEMO_THETAS[0] == 0.1 and DEMO_THETAS[-1] == 0.5
    assert DEMO_SHOTS[0] == 309 and DEMO_SHOTS[-1] == 131
