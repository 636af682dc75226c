"""Monte Carlo estimation experiments for the qubit trade-off model.

Simulates repeated finite-shot measurements of a fixed POVM, applies a
linear or maximum-likelihood estimator to each repetition, and reports
per-axis mean squared errors normalized per qubit so they are directly
comparable to the analytic and SDP bounds.
"""

from dataclasses import dataclass

import numpy as np

from .bounds import as_weights, nhcrb_analytic
from .constants import (
    MLE_ARMIJO,
    MLE_BALL_RADIUS,
    MLE_EIG_FLOOR,
    MLE_KKT_TOL,
    MLE_MAX_ITER,
)
from .model import BlochVector, model_point
from .povm import Povm
from .tradeoff import MsePoint

REPEAT_STREAM = 0

DEMO_THETAS = (0.1, 0.2, 0.3, 0.4, 0.5)
DEMO_SHOTS = (309, 238, 196, 156, 131)
ORIGIN_SHOTS = 309

_EPS = np.finfo(float).eps


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
    povm: measurement applied to each shot; its dimension fixes copies,
        the qubits measured jointly per shot.
    shots_per_repeat: measurements per repetition.
    repeats: independent repetitions, each yielding one estimate.
    seed: root seed; the experiment draws every repetition's outcome
        counts from the one stream [seed, 0], straight from the state's
        outcome probabilities.
    """

    theta_true: BlochVector
    povm: Povm
    shots_per_repeat: int
    repeats: int
    seed: int

    def __post_init__(self):
        self.povm.copies  # raises ValueError for a POVM on neither one nor two qubits
        if self.shots_per_repeat <= 0:
            raise ValueError("shots_per_repeat must be positive")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @property
    def copies(self) -> int:
        return self.povm.copies

    def to_json_dict(self):
        return {
            "theta_true": list(self.theta_true.array),
            "copies": self.copies,
            "povm": self.povm.name,
            "n_outcomes": self.povm.n_outcomes,
            "shots_per_repeat": self.shots_per_repeat,
            "repeats": self.repeats,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated result of a Monte Carlo experiment.

    mse holds the per-axis mean squared errors normalized per qubit
    (copies * shots * mean squared error), weighted_trace their
    weight-combined scalar, and standard_error the bootstrap standard
    error of the weighted trace over repetitions, in its closed
    infinite-resample form. estimates_mean, shape (3,), is the mean
    estimate, which need not lie in the Bloch ball: an unbiased linear
    estimate from few shots can fall outside it.
    """

    mse: MsePoint
    weighted_trace: float
    standard_error: float
    estimates_mean: np.ndarray
    metadata: dict

    def to_json_dict(self):
        return {
            "mse": [self.mse.vx, self.mse.vy, self.mse.vz],
            "normalization": "per_qubit",
            "weighted_trace": self.weighted_trace,
            "standard_error": self.standard_error,
            "estimates_mean": list(self.estimates_mean),
            "metadata": self.metadata,
        }


def sample_counts(probs, shots, rng):
    """Draw multinomial outcome counts for one repetition or a batch.

    probs are checked probabilities, as QuadraticModel.checked_probabilities
    returns them; the draw renormalizes them, since measurements published
    to few decimals sum to one only within their budget. shots is one
    repetition's shot count, giving counts of shape (n,), or an (R,) array
    of them, giving one row of counts per repetition (R, n).
    """
    p = np.asarray(probs, dtype=float)
    return rng.multinomial(np.asarray(shots, dtype=np.int64), p / p.sum())


def _norm(x):
    """Euclidean norm along the last axis (np.linalg.norm without its dispatch)."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _project_ball(theta, radius=MLE_BALL_RADIUS, norm=None):
    """Radial projection of each row of theta onto |theta| <= radius; norm, if given, is _norm(theta)."""
    norm = _norm(theta) if norm is None else norm
    return theta * np.minimum(1.0, radius / np.maximum(norm[..., None], radius))


def _likelihood(theta, freqs, observed, q0, G, S):
    """Shot-normalized negative log likelihood of each row, -sum_j f_j log p_j,
    its exact gradient, and the terms from which _hessian builds its Hessian.

    observed is freqs > 0; rows where an observed outcome has p_j <= 0 score
    +inf. The quadratic model is p_j = q0_j + G_j . theta + theta' Q_j theta,
    where S_j = Q_j + Q_j' so that dp_j/dtheta = G_j + S_j theta. Every sum runs
    along a fixed axis of one row, so no row's value depends on the others.
    """
    jac = G + np.add.reduce(S * theta[:, None, None, :], axis=-1)
    probs = q0 + 0.5 * np.add.reduce((G + jac) * theta[:, None, :], axis=-1)
    safe = np.where(observed, probs, 1.0)
    feasible = np.minimum.reduce(safe, axis=1) > 0
    if not feasible.all():
        safe[~feasible] = 1.0
    value = np.where(feasible, -np.add.reduce(freqs * np.log(safe), axis=1), np.inf)
    ratio = freqs / safe
    grad = -np.add.reduce(ratio[:, :, None] * jac, axis=1)
    return value, grad, (jac, ratio, safe)


def _hessian(jac, ratio, safe, S):
    """Exact Hessian of _likelihood from its terms, for rows about to take a Newton step."""
    outer = jac[:, :, :, None] * jac[:, :, None, :]
    return np.add.reduce((ratio / safe)[:, :, None, None] * outer - ratio[:, :, None, None] * S, axis=1)


def _ball_newton_step(theta, grad, hess, radius):
    """Projected-Newton direction d of each row; trials are P(theta + alpha d).

    A row on the sphere whose gradient pushes it outward takes the Newton
    step of the Lagrangian in the tangent plane, with Hessian
    P (H + mu I) P, tangent projector P = I - n n' and multiplier estimate
    mu = -g.theta / radius^2, where that Hessian is positive definite on
    the plane; the projection P(theta + alpha d) bends the step back onto
    the sphere. Every other row minimizes g.d + d'Hd/2 subject to
    |theta + d| <= radius, with the Hessian's eigenvalues floored to a
    positive fraction of the largest: x = theta + d solves
    (H + mu I) x = H theta - g for the smallest mu >= 0 with
    |x| <= radius. In the eigenbasis of H that is the secular equation
    1/|x(mu)| = 1/radius, whose left side is concave and increasing in
    mu, so Newton's method from mu = 0 climbs monotonically to the root.
    """
    lam, vecs = np.linalg.eigh(hess)
    lam = np.maximum(lam, MLE_EIG_FLOOR * np.maximum.reduce(np.abs(lam), axis=1, keepdims=True))
    # x in the eigenbasis is c / (lam + mu), with c_i = v_i . (lam_i theta - g)
    rhs = lam[:, :, None] * theta[:, None, :] - grad[:, None, :]
    c = np.add.reduce(vecs.transpose(0, 2, 1) * rhs, axis=-1)
    x = c / lam
    climbing = (_norm(x) > radius).nonzero()[0]
    if climbing.size:
        mu = np.zeros((len(theta), 1))
        while climbing.size:
            shifted = lam[climbing] + mu[climbing]
            x = c[climbing] / shifted
            norm = _norm(x)
            step = (1.0 / radius - 1.0 / norm) * norm ** 3 / np.add.reduce(x * x / shifted, axis=1)
            grows = mu[climbing, 0] + step > mu[climbing, 0]
            climbing = climbing[grows]
            mu[climbing, 0] += step[grows]
        x = c / (lam + mu)
    x = np.add.reduce(vecs * x[:, None, :], axis=-1)
    d = _project_ball(x, radius) - theta

    norm = _norm(theta)
    # a row projected onto the sphere sits there up to rounding
    on = (norm >= radius * (1 - 8 * _EPS)).nonzero()[0]
    if on.size:
        mult = -np.add.reduce(grad[on] * theta[on], axis=1) / radius ** 2
        on, mult = on[mult > 0], mult[mult > 0]
    if on.size:
        n = theta[on] / norm[on, None]
        normal = n[:, :, None] * n[:, None, :]
        tangent = np.eye(3) - normal
        # adding n n' makes the plane's Hessian invertible; the solution
        # stays in the plane because the projected gradient does
        lagrangian = tangent @ (hess[on] + mult[:, None, None] * np.eye(3)) @ tangent + normal
        curved = np.linalg.eigvalsh(lagrangian)[:, 0] > 0
        d[on[curved]] = -np.linalg.solve(
            lagrangian[curved], tangent[curved] @ grad[on[curved], :, None]
        )[..., 0]
    return d


def _fit_mle(freqs, model):
    """Batched projected-Newton maximum likelihood over the Bloch ball.

    model is a QuadraticModel. Each row of freqs (R, n) is solved on its own:
    it starts at the origin linear estimate pulled inside the ball, takes
    ball-constrained Newton steps with Armijo backtracking, and is frozen
    as soon as its unit-step projected-gradient norm |theta - P(theta - g)|
    is at most MLE_KKT_TOL, or when its line search finds no decrease, or
    after MLE_MAX_ITER iterations. The Hessian is built from an accepted
    trial's terms only for rows about to take a Newton step, not at every
    trial. Returns the estimates (R, 3), the Newton iterations per row, the
    final projected-gradient norms and whether the ball binds (the
    projection P is active) at each estimate.
    """
    q0, G, S = model.q0, model.G, model.S
    start = np.add.reduce(freqs[:, None, :] * model.design, axis=-1)
    t = _project_ball(start, 0.9 * MLE_BALL_RADIUS)
    observed = freqs > 0
    f, g, terms = _likelihood(t, freqs, observed, q0, G, S)
    while not np.isfinite(f).all():
        t[~np.isfinite(f)] *= 0.5
        f, g, terms = _likelihood(t, freqs, observed, q0, G, S)
    theta = np.empty_like(t)
    iterations = np.zeros(len(freqs), dtype=int)
    kkt = np.empty(len(freqs))
    binds = np.empty(len(freqs), dtype=bool)
    # t, f, g, terms, freqs and observed hold the rows still running; rows maps them back
    rows = np.arange(len(freqs))
    stalled = np.zeros(len(freqs), dtype=bool)
    for it in range(MLE_MAX_ITER + 1):
        ascent = t - g
        reach = _norm(ascent)
        norm = _norm(t - _project_ball(ascent, norm=reach))
        frozen = (norm <= MLE_KKT_TOL) | stalled | (it == MLE_MAX_ITER)
        if frozen.any():
            out = rows[frozen]
            theta[out], kkt[out], binds[out] = t[frozen], norm[frozen], reach[frozen] > MLE_BALL_RADIUS
            going = ~frozen
            if not going.any():
                break
            rows, t, f, g, freqs, observed, *terms = (
                a[going] for a in (rows, t, f, g, freqs, observed, *terms))
        d = _ball_newton_step(t, g, _hessian(*terms, S), MLE_BALL_RADIUS)
        # the last Newton steps change the objective by less than its
        # rounding error, so a decrease may fall short by that much
        slack = 4 * _EPS * np.abs(f)
        stalled = np.zeros(len(rows), dtype=bool)
        # every row first tries its full step; after a failed trial the line
        # search runs on the rows of t listed in pending, whose step lengths are alpha
        pending = None
        trial, base, step, f0, g0, fr, ob, sl = _project_ball(t + d), t, d, f, g, freqs, observed, slack
        while True:
            moved = trial - base
            slope = np.add.reduce(g0 * moved, axis=1)
            value, grad, new = _likelihood(trial, fr, ob, q0, G, S)
            # Armijo decrease along the projection arc (whose chord can
            # point uphill once the arc bends), and no overshoot: along the
            # move the trial may rise no faster than the start falls, which
            # keeps a step from jumping to where an observed outcome's
            # probability nearly vanishes and Newton would crawl back
            decrease = f0 + MLE_ARMIJO * np.minimum(slope, 0.0) + sl
            # a trial that does not move (alpha d below half an ulp of
            # theta) fails, so a row whose search finds no step stalls
            ok = ((value <= decrease) & (np.add.reduce(grad * moved, axis=1) <= -slope)
                  & moved.any(axis=1))
            if pending is None:
                if ok.all():
                    t, f, g, terms = trial, value, grad, new
                    break
                pending, alpha = np.arange(len(rows)), np.ones(len(rows))
            done = pending[ok]
            for kept, tried in zip((t, f, g, *terms), (trial, value, grad, *new)):
                kept[done] = tried[ok]
            pending, alpha = pending[~ok], 0.5 * alpha[~ok]
            # a row whose line search found no step has stalled; it freezes
            # where it stands at the next pass
            stalled[pending[alpha < _EPS]] = True
            pending, alpha = pending[alpha >= _EPS], alpha[alpha >= _EPS]
            if not pending.size:
                break
            base, step, f0, g0, fr, ob, sl = (a[pending] for a in (t, d, f, g, freqs, observed, slack))
            trial = _project_ball(base + alpha[:, None] * step)
        iterations[rows] += 1
    return theta, iterations, kkt, binds


def mle_estimator(counts, model, stats=None):
    """Maximum-likelihood Bloch vectors from outcome counts.

    counts holds one repetition (n,) or a batch of repetitions (R, n) of
    the measurement whose QuadraticModel is model; the estimates have
    shape (3,) or (R, 3). All rows are solved in one vectorized
    projected-Newton loop on the shot-normalized log likelihood over the
    ball |theta| <= MLE_BALL_RADIUS, which builds the Hessian only where a
    Newton step uses it. Each row stops on its own once its unit-step
    projected-gradient norm is at most MLE_KKT_TOL, so no estimate
    depends on the other rows of its batch. The model caches
    its symmetrized quadratic terms S and the start's linear design, so
    run_experiment's per-repetition calls, which share one model, build
    each once. If stats is a dict, the solve folds into it its largest
    Newton iteration count and largest final projected-gradient norm (by
    max) and the number of rows where the ball binds (by sum), so one
    dict passed to several calls describes them all.
    Raises ValueError for counts whose last axis is not the model's
    outcomes, that are not finite or whose row total overflows, and
    MleError carrying the first unconverged row's iterate and
    projected-gradient norm when a row stops short of MLE_KKT_TOL.
    """
    counts = np.asarray(counts, dtype=float)
    n = len(model.q0)
    if counts.ndim not in (1, 2) or counts.shape[-1] != n:
        raise ValueError(f"counts must have shape (n,) or (R, n), n = {n}, not {counts.shape}")
    batch = np.atleast_2d(counts)
    # a total that overflows, or that adds +inf to -inf, fails the check
    # below with the ValueError, not with a RuntimeWarning first
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(batch, axis=1, keepdims=True)
    if not np.isfinite(total).all():
        raise ValueError("counts must be finite, with finite row totals")
    if total.min() <= 0:
        raise ValueError("counts must contain at least one shot")
    if batch.min() < 0:
        raise ValueError("counts must be nonnegative")
    if np.where(batch > 0, model.q0, 1.0).min() <= 0:
        raise ValueError("counts on an outcome whose POVM element is zero")
    theta, iterations, kkt, binds = _fit_mle(batch / total, model)
    failed = np.flatnonzero(~(kkt <= MLE_KKT_TOL))
    if failed.size:
        r = failed[0]
        raise MleError(
            f"likelihood maximizer stopped at projected-gradient norm "
            f"{kkt[r]:.3e} (tolerance {MLE_KKT_TOL:.1e}) in row {r}",
            theta[r],
            kkt[r],
        )
    if stats is not None:
        stats["iterations_max"] = max(stats.get("iterations_max", 0), int(iterations.max()))
        stats["kkt_norm_max"] = max(stats.get("kkt_norm_max", 0.0), float(kkt.max()))
        stats["on_boundary"] = stats.get("on_boundary", 0) + int(binds.sum())
    return theta if counts.ndim == 2 else theta[0]


def _bootstrap_standard_error(squared_errors, weights, scale):
    """Bootstrap SE of the weighted-trace MSE over repetitions.

    The exact infinite-resample limit: the standard deviation (ddof 0) of
    the per-repetition weighted errors over sqrt(R), which is 0 for R = 1.
    """
    per_repeat = squared_errors @ weights
    return float(scale * per_repeat.std() / np.sqrt(len(per_repeat)))


def run_experiment(plan, weights, estimator="linear"):
    """Run the full Monte Carlo experiment described by a ShotPlan.

    The experiment reads the POVM's QuadraticModel, Povm.model. One
    generator seeded with the stream [seed, 0] draws the (R, n) outcome
    counts of all R repetitions, shots_per_repeat each, as one batched multinomial
    draw from the model's checked probabilities at theta_true, for every
    state, mixed or not. The linear estimator maps all repetitions'
    frequencies through the model's design in one product; the MLE solves
    each repetition's counts in its own call on the same model, with the
    solves' convergence statistics in metadata["mle"]. Per-axis squared
    errors are averaged over repetitions and normalized per qubit. For
    positive weights the metadata carries the closed-form collective bounds at
    theta_true, per qubit: the single-copy bound everywhere and the
    two-copy bound at the origin, where its closed form exists;
    z_vs_single_copy measures the weighted trace against the single-copy
    one in bootstrap standard errors, taken in their closed form, and is
    left out when that standard error is 0, as it is for one repetition.
    """
    w = as_weights(weights)
    if estimator not in ("linear", "mle"):
        raise ValueError("estimator must be 'linear' or 'mle'")
    theta_true = plan.theta_true.array
    model = plan.povm.model

    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([plan.seed, REPEAT_STREAM]))
    )
    shots = np.full(plan.repeats, plan.shots_per_repeat)
    counts = sample_counts(model.checked_probabilities(theta_true), shots, rng)
    if estimator == "linear":
        estimates = (counts / shots[:, None]) @ model.design.T
    else:
        # one call per repetition, so mle_estimator stays the per-repetition
        # layer that the benchmark's traced run counts, until it counts rows
        # (ROADMAP item 1); a row's estimate and its stats are the same
        # whether it is solved alone or in a batch
        mle_stats = {}
        estimates = np.array([
            mle_estimator(c, model, stats=mle_stats) for c in counts
        ])
    squared = (estimates - theta_true) ** 2

    # qubits consumed per repetition times MSE is the per-qubit error
    scale = plan.shots_per_repeat * plan.copies
    per_axis = scale * squared.mean(axis=0)
    mse = MsePoint(per_axis[0], per_axis[1], per_axis[2])
    weighted_trace = float(w.array @ per_axis)
    stderr = _bootstrap_standard_error(squared, w.array, scale)

    metadata = {
        "plan": plan.to_json_dict(),
        "estimator": estimator,
        "weights": list(w.array),
    }
    if np.all(w.array > 0):
        c1 = nhcrb_analytic(model_point(plan.theta_true, 1), w).value
        metadata["single_copy_bound_per_qubit"] = c1
        c2 = nhcrb_analytic(model_point(plan.theta_true, 2), w)
        if c2 is not None:
            metadata["two_copy_bound_per_qubit"] = c2.value
        if stderr > 0:
            metadata["z_vs_single_copy"] = (c1 - weighted_trace) / stderr
    if estimator == "mle":
        metadata["mle"] = mle_stats
    return ExperimentReport(
        mse=mse,
        weighted_trace=weighted_trace,
        standard_error=stderr,
        estimates_mean=estimates.mean(axis=0),
        metadata=metadata,
    )
