"""Monte Carlo estimation experiments for the qubit trade-off model.

Simulates repeated finite-shot measurements of a fixed POVM, applies a
linear or maximum-likelihood estimator to each repetition, and reports
per-axis mean squared errors normalized per qubit so they are directly
comparable to the analytic and SDP bounds.
"""

from dataclasses import dataclass, field

import numpy as np

from .bounds import as_weights, nhcrb_analytic_origin
from .constants import (
    BOOTSTRAP_RESAMPLES,
    FISHER_PROB_CUTOFF,
    MLE_ARMIJO,
    MLE_BALL_RADIUS,
    MLE_KKT_TOL,
    MLE_MAX_ITER,
    MLE_POLISH_ITER,
    PROB_NEGATIVE_TOL,
    PROB_SUM_TOL,
)
from .model import BlochVector, convert_normalization, equal_component_eigensystem
from .povm import (
    Povm,
    WeightSpec,
    _model_probabilities,
    quadratic_probability_model,
)
from .tradeoff import MsePoint

REPEAT_STREAM = 0
BOOTSTRAP_STREAM = 1

DEMO_THETAS = (0.1, 0.2, 0.3, 0.4, 0.5)
DEMO_SHOTS = (309, 238, 196, 156, 131)
ORIGIN_SHOTS = 309


class MleError(RuntimeError):
    """Raised when the likelihood maximizer fails to reach its tolerance.

    Carries the last iterate and the projected-gradient norm so callers
    can inspect how close the solve got.
    """

    def __init__(self, message, theta, grad_norm):
        super().__init__(message)
        self.theta = np.asarray(theta, dtype=float)
        self.grad_norm = float(grad_norm)


@dataclass(frozen=True)
class ShotPlan:
    """Specification of one Monte Carlo experiment.

    theta_true: Bloch vector of the prepared state.
    copies: qubits measured jointly per shot (1 or 2).
    povm: measurement applied to each shot.
    shots_per_repeat: measurements per repetition.
    repeats: independent repetitions, each yielding one estimate.
    seed: root seed; repetition r uses the stream [seed, 0, r].
    poisson_shots: draw each repetition's shot count from a Poisson
        distribution with the nominal mean instead of fixing it.
    """

    theta_true: BlochVector
    copies: int
    povm: Povm
    shots_per_repeat: int
    repeats: int
    seed: int
    poisson_shots: bool = False

    def __post_init__(self):
        if self.copies not in (1, 2):
            raise ValueError("copies must be 1 or 2")
        if self.povm.dim != 2 ** self.copies:
            raise ValueError(
                f"POVM dimension {self.povm.dim} does not match "
                f"{self.copies}-copy measurements"
            )
        if self.shots_per_repeat <= 0:
            raise ValueError("shots_per_repeat must be positive")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def to_json_dict(self):
        return {
            "theta_true": list(self.theta_true.array),
            "copies": self.copies,
            "povm": self.povm.name,
            "n_outcomes": self.povm.n_outcomes,
            "shots_per_repeat": self.shots_per_repeat,
            "repeats": self.repeats,
            "seed": self.seed,
            "poisson_shots": self.poisson_shots,
        }


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated result of a Monte Carlo experiment.

    mse holds the per-axis mean squared errors normalized per qubit
    (copies * shots * mean squared error), weighted_trace their
    weight-combined scalar, and standard_error a bootstrap standard
    error of the weighted trace over repetitions.
    """

    mse: MsePoint
    weighted_trace: float
    standard_error: float
    estimates_mean: BlochVector
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "mse": [self.mse.vx, self.mse.vy, self.mse.vz],
            "normalization": self.mse.normalization,
            "weighted_trace": self.weighted_trace,
            "standard_error": self.standard_error,
            "estimates_mean": list(self.estimates_mean.array),
            "metadata": self.metadata,
        }


def sample_counts(probs, shots, rng, sum_tol=PROB_SUM_TOL):
    """Draw multinomial outcome counts for one repetition.

    sum_tol is the accepted deviation of sum(probs) from 1; measurements
    published to few decimals carry a looser budget than the exact
    constructions. Inside the budget the distribution is renormalized.
    """
    p = np.asarray(probs, dtype=float)
    if p.min() < -PROB_NEGATIVE_TOL:
        raise ValueError(f"negative probability {p.min():.3e}")
    if abs(p.sum() - 1.0) > sum_tol:
        raise ValueError(f"probabilities sum to {p.sum():.12f}, not 1")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    return rng.multinomial(int(shots), p)


def largest_remainder_allocation(weights, total):
    """Split an integer total proportionally using largest remainders.

    Returns integer allocations that sum exactly to total, ordered like
    weights. Ties in the fractional parts go to earlier entries.
    """
    w = np.asarray(weights, dtype=float)
    if w.min() < 0 or w.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive sum")
    quota = w / w.sum() * total
    alloc = np.floor(quota).astype(int)
    remainder = quota - alloc
    short = int(total - alloc.sum())
    if short > 0:
        order = np.argsort(-remainder, kind="stable")
        alloc[order[:short]] += 1
    return alloc


def mixed_sampling_plan(t, shots):
    """Eigenstate preparation plan for theta = (t, t, t) on two copies.

    Diagonalizes the two-copy state into its four product/entangled
    eigenstates and allocates the shot budget proportionally to the
    eigenvalues with largest-remainder rounding. Returns a tuple of
    (eigenvalue, eigenstate, allocation) triples whose allocations sum
    to shots. Preparing each eigenstate for its allocated shots and
    pooling the outcome counts reproduces the mixed-state outcome
    frequencies in expectation.
    """
    if not 0 <= t < 1 / np.sqrt(3):
        raise ValueError("equal-component states need 0 <= t < 1/sqrt(3)")
    if shots <= 0:
        raise ValueError("shots must be positive")
    system = equal_component_eigensystem(t)
    values = np.array([value for value, _ in system])
    alloc = largest_remainder_allocation(values, shots)
    return tuple(
        (float(value), state, int(n))
        for (value, state), n in zip(system, alloc)
    )


def _equal_components(theta):
    arr = theta.array
    return arr[0] == arr[1] == arr[2] and 0 <= arr[0] < 1 / np.sqrt(3)


def _eigenstate_probabilities(t, povm):
    """Outcome probability row per eigenstate of the equal-component state."""
    system = equal_component_eigensystem(t)
    values = np.array([value for value, _ in system])
    rows = np.empty((len(system), povm.n_outcomes))
    for k, (_, state) in enumerate(system):
        rho = np.outer(state, state.conj())
        rows[k] = [np.trace(element @ rho).real for element in povm.elements]
    rows = np.clip(rows, 0.0, None)
    rows /= rows.sum(axis=1, keepdims=True)
    return values, rows


def _sample_mixed(values, rows, shots, rng):
    """Sample pooled counts through randomized eigenstate preparation.

    The number of shots spent on each eigenstate is drawn multinomially
    from the eigenvalues, then outcomes are drawn per eigenstate. The
    pooled counts follow exactly the multinomial law of the mixed state,
    matching the physical protocol where arrivals in each preparation
    are independent and only the total budget is fixed.
    """
    alloc = rng.multinomial(int(shots), values / values.sum())
    counts = np.zeros(rows.shape[1], dtype=int)
    for k, n in enumerate(alloc):
        if n > 0:
            counts += rng.multinomial(int(n), rows[k])
    return counts


def linear_estimator_matrix(povm, copies):
    """Coefficient matrix of the best linear unbiased estimator at the origin.

    Returns D with theta_hat = D @ (counts / shots). D inverts the
    origin Fisher information against the outcome Jacobian, so the
    estimator is unbiased at theta = 0 for any informationally complete
    POVM. For the weight-adapted optimal measurements this reduces to
    the familiar difference-of-counts form.
    """
    q0, G, _ = quadratic_probability_model(povm, copies)
    return _linear_design(q0, G)


def _linear_design(q0, G):
    """linear_estimator_matrix from precomputed model coefficients q0 and G."""
    mask = q0 > FISHER_PROB_CUTOFF
    scaled = np.zeros_like(G)
    scaled[mask] = G[mask] / q0[mask, None]
    fisher = G[mask].T @ scaled[mask]
    try:
        inv = np.linalg.inv(fisher)
    except np.linalg.LinAlgError:
        raise ValueError(
            "POVM is not informationally complete at the origin"
        ) from None
    return inv @ scaled.T


def _project_ball(theta, radius=MLE_BALL_RADIUS):
    norm = np.linalg.norm(theta)
    if norm > radius:
        return theta * (radius / norm)
    return theta


def mle_estimator(
    counts,
    copies,
    povm,
    model=None,
    max_iter=MLE_MAX_ITER,
    kkt_tol=MLE_KKT_TOL,
    initial=None,
):
    """Maximum-likelihood Bloch vector from one repetition's counts.

    Maximizes the multinomial log likelihood over the open Bloch ball
    with an accelerated projected-gradient method: momentum steps with
    Armijo backtracking (halving) on the shot-normalized objective and
    restarts whenever the objective rises or the momentum direction
    turns against the gradient. Convergence is declared when the
    unit-step projected gradient mapping has norm at most kkt_tol. If
    the accelerated loop stops short, a fixed-step polish phase keeps
    taking projected-gradient steps as long as the projected-gradient
    norm shrinks, which stays reliable after objective differences
    fall below the floating-point floor.
    Pass a precomputed quadratic_probability_model as model to amortize
    the Pauli traces across repetitions.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("counts must contain at least one shot")
    if counts.min() < 0:
        raise ValueError("counts must be nonnegative")
    if model is None:
        model = quadratic_probability_model(povm, copies)
    q0, G, Q = model
    freqs = counts / total

    active = freqs > 0
    fa = freqs[active]
    qa = q0[active]
    Ga = G[active]
    quad_flat = Q[active].reshape(-1, 9)
    sym_flat = (Q[active] + np.transpose(Q[active], (0, 2, 1))).reshape(-1, 3)

    def value(theta):
        probs = qa + Ga @ theta + quad_flat @ np.outer(theta, theta).ravel()
        if probs.min() <= 0:
            return np.inf, None
        return -(fa @ np.log(probs)), probs

    def value_and_grad(theta):
        val, probs = value(theta)
        if probs is None:
            return val, None
        jac = Ga + (sym_flat @ theta).reshape(-1, 3)
        return val, -(fa / probs) @ jac

    if initial is None:
        mask = q0 > FISHER_PROB_CUTOFF
        scaled = np.zeros_like(G)
        scaled[mask] = G[mask] / q0[mask, None]
        fisher = G[mask].T @ scaled[mask]
        start = np.linalg.lstsq(fisher, scaled.T @ freqs - scaled.T @ q0, rcond=None)[0]
    else:
        start = np.asarray(initial, dtype=float)
    x = _project_ball(start, 0.9 * MLE_BALL_RADIUS)
    fx, gx = value_and_grad(x)
    while gx is None:
        x *= 0.5
        fx, gx = value_and_grad(x)
    y, fy, gy = x, fx, gx
    momentum = 1.0
    step = 1.0
    grad_norm = np.inf
    for _ in range(max_iter):
        accepted = None
        while step >= 1e-18:
            cand = _project_ball(y - step * gy)
            delta = cand - y
            fc, _ = value(cand)
            slope = gy @ delta
            # Armijo plus the descent-lemma bound; the latter keeps the
            # step below the curvature limit instead of letting marginal
            # Armijo passes pin it at the edge of stability.
            if fc <= fy + MLE_ARMIJO * slope and fc <= fy + slope + (delta @ delta) / (2.0 * step):
                accepted = cand
                break
            step *= 0.5
        if accepted is None:
            break
        fc, gc = value_and_grad(accepted)
        if gc is not None:
            grad_norm = np.linalg.norm(accepted - _project_ball(accepted - gc))
            if grad_norm <= kkt_tol:
                return accepted
        moved = np.linalg.norm(accepted - x) > 1e-13 * (1.0 + np.linalg.norm(x))
        if fc > fx or gc is None or (moved and gy @ (accepted - x) > 0):
            if fc <= fx and gc is not None:
                x, fx, gx = accepted, fc, gc
            y, fy, gy = x, fx, gx
            momentum = 1.0
            continue
        next_momentum = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum ** 2))
        y = _project_ball(accepted + ((momentum - 1.0) / next_momentum) * (accepted - x))
        fy, gy = value_and_grad(y)
        if gy is None:
            y, fy, gy = accepted, fc, gc
            next_momentum = 1.0
        x, fx, gx = accepted, fc, gc
        momentum = next_momentum
        step = min(step * 2.0, 1e6)
    grad_norm = np.linalg.norm(x - _project_ball(x - gx))
    if grad_norm <= kkt_tol:
        return x
    # Close to the maximizer the per-step objective change drops below the
    # rounding floor of the log likelihood, where the Armijo comparison is
    # noise. The gradient stays accurate well past that point, so finish
    # with plain projected-gradient steps judged only by whether the
    # projected-gradient norm shrinks.
    step = 1.0
    for _ in range(MLE_POLISH_ITER):
        cand = _project_ball(x - step * gx)
        _, gc = value_and_grad(cand)
        if gc is None:
            step *= 0.5
            continue
        cand_norm = np.linalg.norm(cand - _project_ball(cand - gc))
        if not cand_norm < grad_norm:
            step *= 0.5
            if step < 1e-12:
                break
            continue
        x, gx, grad_norm = cand, gc, cand_norm
        if grad_norm <= kkt_tol:
            return x
    raise MleError(
        f"likelihood maximizer stalled at projected-gradient norm "
        f"{grad_norm:.3e} (tolerance {kkt_tol:.1e})",
        x,
        grad_norm,
    )


def _bootstrap_standard_error(squared_errors, weights, scale, seed, resamples):
    """Bootstrap SE of the weighted-trace MSE over repetitions."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, BOOTSTRAP_STREAM]))
    )
    repeats = squared_errors.shape[0]
    per_repeat = scale * (squared_errors @ weights)
    draws = np.empty(resamples)
    for b in range(resamples):
        idx = rng.integers(0, repeats, size=repeats)
        draws[b] = per_repeat[idx].mean()
    return float(draws.std(ddof=1))


def run_experiment(plan, weights, estimator="linear", resamples=BOOTSTRAP_RESAMPLES):
    """Run the full Monte Carlo experiment described by a ShotPlan.

    Per repetition r, counts are drawn with the stream [seed, 0, r] and
    turned into an estimate. Equal-component two-copy states are sampled
    through the eigenstate-preparation protocol with the per-repetition
    stratum allocation drawn from the eigenvalues, which composes to the
    exact mixed-state multinomial law; other states are sampled from the
    outcome distribution directly. Per-axis squared errors are averaged
    over repetitions and normalized per qubit. The weighted trace is
    compared against the origin bounds in the metadata.
    """
    w = as_weights(weights)
    if estimator not in ("linear", "mle"):
        raise ValueError("estimator must be 'linear' or 'mle'")
    theta_true = plan.theta_true.array
    model = quadratic_probability_model(plan.povm, plan.copies)
    probs = _model_probabilities(*model, theta_true)
    # completeness rounding of published measurements leaks into sum(probs)
    prob_budget = max(PROB_SUM_TOL, plan.povm.dim * plan.povm.completeness_tol)
    mixed = plan.copies == 2 and _equal_components(plan.theta_true)
    if mixed:
        values, rows = _eigenstate_probabilities(theta_true[0], plan.povm)
    if estimator == "linear":
        design = _linear_design(model[0], model[1])

    estimates = np.empty((plan.repeats, 3))
    squared = np.empty((plan.repeats, 3))
    for r in range(plan.repeats):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([plan.seed, REPEAT_STREAM, r]))
        )
        shots = plan.shots_per_repeat
        if plan.poisson_shots:
            shots = int(rng.poisson(plan.shots_per_repeat))
            if shots <= 0:
                raise RuntimeError("drew an empty repetition; raise the shot budget")
        if mixed:
            counts = _sample_mixed(values, rows, shots, rng)
        else:
            counts = sample_counts(probs, shots, rng, sum_tol=prob_budget)
        if estimator == "linear":
            estimate = design @ (counts / shots)
        else:
            estimate = mle_estimator(counts, plan.copies, plan.povm, model=model)
        estimates[r] = estimate
        squared[r] = (estimate - theta_true) ** 2

    # shots * MSE is the per-measurement error; qubits consumed per repeat
    # turn it into the per-qubit one
    scale = convert_normalization(
        plan.shots_per_repeat, plan.copies, "per_measurement", "per_qubit"
    )
    per_axis = scale * squared.mean(axis=0)
    mse = MsePoint(per_axis[0], per_axis[1], per_axis[2])
    weighted_trace = float(w.array @ per_axis)
    stderr = _bootstrap_standard_error(
        squared, w.array, scale, plan.seed, resamples
    )

    metadata = {"plan": plan.to_json_dict(), "estimator": estimator, "weights": list(w.array)}
    try:
        w.require_positive()
    except ValueError:
        pass
    else:
        c1 = nhcrb_analytic_origin(w, copies=1).value
        c2 = nhcrb_analytic_origin(w, copies=2).value
        metadata["single_copy_bound_per_qubit"] = c1
        metadata["two_copy_bound_per_qubit"] = c2
        if stderr > 0:
            metadata["z_vs_single_copy"] = (c1 - weighted_trace) / stderr
    if mixed:
        metadata["sampling"] = "eigenstate-mixture"
        metadata["planned_allocation"] = [
            n for _, _, n in mixed_sampling_plan(theta_true[0], plan.shots_per_repeat)
        ]
    else:
        metadata["sampling"] = "direct"
    mean = estimates.mean(axis=0)
    return ExperimentReport(
        mse=mse,
        weighted_trace=weighted_trace,
        standard_error=stderr,
        estimates_mean=BlochVector(mean[0], mean[1], mean[2]),
        metadata=metadata,
    )
