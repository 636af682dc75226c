"""Feasible-start interior-point solver for Hermitian linear matrix inequalities.

Solves

    minimize    c . y
    subject to  S(y) = F0 + sum_j y_j F_j  >=  0   (positive semidefinite)

over real y, for complex Hermitian F0 and F_j (real symmetric data is the
special case with zero imaginary part), given strictly feasible primal and
dual starting points. The Lagrangian dual is

    maximize   -Re Tr[F0 Z]
    subject to  Re Tr[F_j Z] = c_j,   Z >= 0 Hermitian,

and the duality gap of a feasible pair is Re Tr[Z S(y)] >= 0.

Each iteration takes a Mehrotra predictor-corrector step in the
Nesterov-Todd scaling, from the Cholesky factors of S and Z and one SVD
(Todd, Toh and Tutuncu, SIAM J. Optim. 8, 1998), so the scaled iterate lam
is diagonal and its Lyapunov equations and step-length tests are
elementwise. The Schur complement M_ij = Re Tr[F~_i F~_j] of the scaled
constraints F~_j = G^-1 F_j G^-H is the real Gram matrix of their stacked
real and imaginary parts. The solver returns an iterate, converged or not;
the caller certifies what it bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import (
    SDP_FEAS_TOL,
    SDP_GAP_TOL,
    SDP_MAX_ITER,
    SDP_STEP_FRACTION,
)
from .linalg import ConvergenceError

# solve_lmi gives up after this many iterations without progress, where
# progress is the stopping test's distance (the largest of the relative gap
# and the two residuals, each over its tolerance) falling below half its
# value at the last progress. A converging solve almost always halves it
# every iteration or two; a stalled one creeps, with the gap stuck just above
# SDP_GAP_TOL and the dual residual above SDP_FEAS_TOL, and stops 8
# iterations later.
_STALL_WINDOW = 8


@dataclass(frozen=True)
class SdpResult:
    """The pair (y, Z) solve_lmi returned, and its iteration count, None
    where it stopped short of its tolerances."""

    y: np.ndarray
    Z: np.ndarray
    iterations: int | None


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr[a b] for Hermitian a, b."""
    return float(np.vdot(a, b).real)


def _cholesky(a: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise ConvergenceError(f"{what} lost positive definiteness") from None


def _nt_scaling(S: np.ndarray, Z: np.ndarray):
    """Nesterov-Todd scaling G, as (G^-1, lam): G^H Z G = G^-1 S G^-H = diag(lam).

    With S = Ls Ls^H, Z = Lz Lz^H and Lz^H Ls = U diag(lam) V^H, the scaling
    is G = Ls V lam^-1/2 and its inverse lam^-1/2 U^H Lz^H.
    """
    Ls = _cholesky(S, "primal iterate")
    Lz = _cholesky(Z, "dual iterate")
    U, lam, _ = np.linalg.svd(Lz.conj().T @ Ls)
    if not lam[-1] > 0.0:
        raise ConvergenceError("scaled iterate lost positive definiteness")
    return (U.conj().T @ Lz.conj().T) / np.sqrt(lam)[:, None], lam


def _max_steps(lam: np.ndarray, dlamS: np.ndarray, dlamZ: np.ndarray):
    """Largest alphas with diag(lam) + alpha dlam >= 0, for dlamS and dlamZ."""
    root = np.sqrt(lam)
    scaled = np.stack([dlamS, dlamZ]) / np.outer(root, root)
    beta = np.linalg.eigvalsh(scaled)[:, 0]
    with np.errstate(divide="ignore"):
        return np.where(beta < -1e-14, -1.0 / beta, np.inf)


def _solve_gram(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        sol = None
    if sol is None or not np.all(np.isfinite(sol)):
        raise ConvergenceError("singular Schur complement")
    return sol


def solve_lmi(
    c: np.ndarray,
    F0: np.ndarray,
    Fs: np.ndarray,
    y0: np.ndarray,
    Z0: np.ndarray,
) -> SdpResult:
    """Minimize c . y subject to F0 + sum_j y_j F_j being PSD.

    F0, the stack Fs and Z0 are Hermitian, complex or real. y0 must give a
    strictly positive definite S(y0) and Z0 must be strictly positive
    definite and (near-)feasible for the dual equality constraints; small
    dual infeasibility is folded into the Newton right-hand side and decays
    with the step length. Returns the pair (y, Z) at which the relative gap
    and residuals met SDP_GAP_TOL and SDP_FEAS_TOL, with the iteration
    count. On any other stop (no progress for _STALL_WINDOW iterations,
    collapsed steps, SDP_MAX_ITER reached, an iterate losing positive
    definiteness, a singular Schur complement) it returns the last (y, Z)
    whose S and Z both passed Cholesky, with iterations None. Raises
    ConvergenceError only if no iterate did.
    """
    c = np.asarray(c, dtype=float)
    F0, Fs, Z0 = np.asarray(F0), np.asarray(Fs), np.asarray(Z0)
    dtype = np.result_type(F0, Fs, Z0, float)
    F0 = F0.astype(dtype, copy=False)
    Fs = Fs.astype(dtype, copy=False)
    m = c.size
    n = F0.shape[0]
    if Fs.shape != (m, n, n):
        raise ValueError(f"constraint stack shape {Fs.shape} != ({m}, {n}, {n})")

    y = np.asarray(y0, dtype=float).copy()
    A = Fs.reshape(m, n * n)
    # Re Tr[F_j X] for all j is one real matrix-vector product
    Ar = A.view(float)
    S = _herm(F0 + (y @ A).reshape(n, n))
    Z = _herm(Z0.astype(dtype, copy=False))
    if np.linalg.eigvalsh(S)[0] <= 0.0:
        raise ValueError("primal start is not strictly feasible")
    if np.linalg.eigvalsh(Z)[0] <= 0.0:
        raise ValueError("dual start is not positive definite")

    # the stack with its column index outermost, so that G^-1 F_j for every
    # j is one matrix product
    Fcols = np.ascontiguousarray(Fs.transpose(1, 0, 2)).reshape(n, m * n)
    cscale = 1.0 + np.abs(c).max()

    # the last (y, Z) whose S and Z passed Cholesky, returned on any stop
    trusted = None
    # the stopping test's distance at the last progress, and its iteration
    progress, progressed = np.inf, 0
    try:
        for iterations in range(1, SDP_MAX_ITER + 1):
            rp = _herm(F0 + (y @ A).reshape(n, n) - S)
            rd = c - Ar @ Z.view(float).ravel()
            gap = _inner(Z, S)
            primal = float(c @ y)
            dual = -_inner(F0, Z)
            rel_gap = abs(gap) / (1.0 + abs(primal) + abs(dual))
            rp_inf = float(np.abs(rp).max())
            rd_inf = float(np.abs(rd).max()) / cscale
            if rel_gap < SDP_GAP_TOL and rp_inf < SDP_FEAS_TOL and rd_inf < SDP_FEAS_TOL:
                return SdpResult(y=y, Z=Z, iterations=iterations - 1)
            distance = max(rel_gap / SDP_GAP_TOL, rp_inf / SDP_FEAS_TOL,
                           rd_inf / SDP_FEAS_TOL)
            if distance < 0.5 * progress:
                progress, progressed = distance, iterations
            elif iterations - progressed >= _STALL_WINDOW:
                break

            Ginv, lam = _nt_scaling(S, Z)
            trusted = (y, Z)
            GinvH = Ginv.conj().T
            mu = float(lam @ lam) / n

            # scaled constraints G^-1 F_j G^-H, rows of At in the layout of A
            Ft = ((Ginv @ Fcols).reshape(n * m, n) @ GinvH).reshape(n, m, n)
            At = np.ascontiguousarray(Ft.transpose(1, 0, 2)).reshape(m, n * n)
            Atr = At.view(float)
            M = Atr @ Atr.T
            Rpt = _herm(Ginv @ rp @ GinvH)

            def direction(V):
                rhs = Atr @ (V - Rpt).view(float).ravel() - rd
                dy = _solve_gram(M, rhs)
                dlamS = _herm((dy @ At).reshape(n, n) + Rpt)
                return dy, dlamS, V - dlamS

            # predictor: target ZS -> 0; the Lyapunov solution for -lam^2 is
            # V = -lam, no solve needed
            _, dlamS_aff, dlamZ_aff = direction(np.diag(-lam).astype(dtype))
            ap_aff, ad_aff = np.minimum(1.0, _max_steps(lam, dlamS_aff, dlamZ_aff))
            lam_s = np.diag(lam) + ap_aff * dlamS_aff
            lam_z = np.diag(lam) + ad_aff * dlamZ_aff
            mu_aff = _inner(lam_z, lam_s) / n
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # corrector with Mehrotra second-order term; lam is diagonal, so the
            # Lyapunov equation (lam V + V lam)/2 = rhs is solved elementwise
            denom = 0.5 * (lam[:, None] + lam[None, :])
            centering = np.diag(sigma * mu - lam * lam)
            cross = _herm(dlamS_aff @ dlamZ_aff)
            dy, dlamS, dlamZ = direction((centering - cross) / denom)
            ap, ad = np.minimum(1.0, SDP_STEP_FRACTION * _max_steps(lam, dlamS, dlamZ))
            if min(ap, ad) < 0.5 * min(ap_aff, ad_aff):
                # the second-order term shortened the step: on degenerate faces,
                # where the Schur complement is nearly singular, it amplifies
                # the error of the predictor; take the plain centering step
                dy, dlamS, dlamZ = direction(centering / denom)
                ap, ad = np.minimum(1.0, SDP_STEP_FRACTION * _max_steps(lam, dlamS, dlamZ))
            if ap < 1e-13 and ad < 1e-13:
                break

            # S moves by the unscaled direction, so that it tracks S(y) to
            # rounding even when G and G^-1 are only approximately inverse
            y = y + ap * dy
            S = _herm(S + ap * ((dy @ A).reshape(n, n) + rp))
            Z = _herm(Z + ad * (GinvH @ dlamZ @ Ginv))
    except ConvergenceError:
        if trusted is None:
            raise
    return SdpResult(*trusted, iterations=None)
