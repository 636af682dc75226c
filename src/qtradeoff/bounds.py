"""Quantum estimation error bounds for the three-parameter qubit model.

The central object is the collective bound

    C = min Tr[(W x rho) L]

over operator-valued covariance surrogates L and locally unbiased estimator
observables X, subject to a positive semidefiniteness lift. Solved here as a
self-contained primal-dual SDP; closed forms exist for one copy at every
point and for two copies at the origin. The QCRB and the Holevo bound are
closed forms at every point.

Every bound function returns its value per qubit; BoundValue.to converts it
to "per_measurement", which differs by the number of copies a single
measurement consumes (see convert_normalization).
Centering: the SDP is formulated with Tr[rho X_i] = 0 so that its optimum is
the bound on the weighted mean squared error itself rather than on second
moments; reported observables are recentred as X_i + theta_i I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .constants import SDP_BLOCH_LIMIT
from .linalg import ConvergenceError
from .model import (  # noqa: F401  (NORMALIZATIONS re-exported)
    NORMALIZATIONS,
    BlochVector,
    ModelPoint,
    _check_normalization,
    convert_normalization,
)
from .povm import WeightSpec


def as_bloch(theta) -> BlochVector:
    if isinstance(theta, BlochVector):
        return theta
    return BlochVector.from_sequence(theta)


def as_weights(weights) -> WeightSpec:
    if isinstance(weights, WeightSpec):
        return weights
    return WeightSpec.from_sequence(weights)


@dataclass(frozen=True)
class BoundValue:
    """A scalar error bound together with its conventions and provenance."""

    value: float
    normalization: str
    method: str
    copies: int
    gap: float | None = None
    iterations: int | None = None

    def __post_init__(self):
        _check_normalization(self.normalization)
        if self.value < 0.0:
            raise ValueError(f"bound value {self.value} is negative")
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")

    def to(self, normalization: str) -> "BoundValue":
        return BoundValue(
            value=convert_normalization(
                self.value, self.copies, self.normalization, normalization
            ),
            normalization=normalization,
            method=self.method,
            copies=self.copies,
            gap=self.gap,
            iterations=self.iterations,
        )


def qcrb(point: ModelPoint, weights) -> BoundValue:
    """Weighted quantum Cramer-Rao bound Tr[W J^-1] = Tr[W] - theta.W theta.

    The inverse single-qubit information is exactly I - theta theta^T, and
    information is additive over copies, so the per-qubit value does not
    depend on the copy count.
    """
    t = point.theta.array
    w = as_weights(weights).array
    return BoundValue(value=float(w.sum() - t @ (w * t)), normalization="per_qubit",
                      method="qcrb", copies=point.copies)


def holevo(point: ModelPoint, weights) -> BoundValue:
    """Holevo bound per qubit, Tr[W] - theta.W theta + 2 |v|.

    The locally unbiased observables of one qubit are unique,
    X_i = sigma_i - theta_i I, so the bound is the QCRB plus the trace norm
    Tr|sqrt(W) Im Z sqrt(W)|, where
    Z_ij = Tr[rho X_i X_j] = delta_ij - theta_i theta_j + i eps_ijk theta_k.
    That trace norm is 2 |v| with v_k = sqrt(w_i w_j) theta_k over cyclic (i, j, k),
    which equals 2 sqrt(wx wy wz) |W^-1/2 theta| without dividing by a weight.
    The bound is additive, so the per-qubit value is also the many-copy
    collective limit and does not depend on the copy count.
    """
    t = point.theta.array
    w = as_weights(weights).array
    v = np.sqrt(w[[1, 2, 0]] * w[[2, 0, 1]]) * t
    value = float(w.sum() - t @ (w * t) + 2.0 * np.linalg.norm(v))
    return BoundValue(value=value, normalization="per_qubit", method="holevo",
                      copies=point.copies)


def nhcrb_analytic(point: ModelPoint, weights) -> BoundValue | None:
    """Closed form of the collective bound per qubit, where one exists; else None.

    One copy, any theta: the Gill-Massar value (sum_k sqrt(lambda_k))^2 per
    measurement, with lambda the eigenvalues of W - u u^T, u = W^1/2 theta.
    That matrix has the spectrum of J^-1/2 W J^-1/2, since
    J^-1 = I - theta theta^T; at theta = 0 the value is (sum_i sqrt(w_i))^2.
    Two copies at theta = 0: (sum_i w_i + sum_{i<j} sqrt(w_i w_j))/2 per
    measurement. Two copies off the origin have no closed form: use
    nhcrb_sdp.
    """
    w = as_weights(weights).array
    copies = point.copies
    if copies == 1:
        u = np.sqrt(w) * point.theta.array
        lam = np.linalg.eigvalsh(np.diag(w) - np.outer(u, u))
        pm = float(np.sqrt(np.clip(lam, 0.0, None)).sum() ** 2)
    elif point.theta.norm == 0.0:
        rw = np.sqrt(w)
        cross = rw[0] * rw[1] + rw[0] * rw[2] + rw[1] * rw[2]
        pm = 0.5 * float(w.sum() + cross)
    else:
        return None
    return BoundValue(value=convert_normalization(pm, copies, "per_measurement", "per_qubit"),
                      normalization="per_qubit", method="analytic", copies=copies)


def _hermitian_basis(sizes) -> np.ndarray:
    """Real-linear basis of the block-diagonal Hermitian matrices with blocks
    of the given sizes, diagonal units first.

    Off-diagonal pairs a < b inside one block follow in row order, each as
    the real unit e_ab + e_ba and then the imaginary unit i e_ab - i e_ba.
    One block of size d gives the full d^2-element basis.
    """
    d = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    a, b = np.triu_indices(d, 1)
    inside = block[a] == block[b]
    a, b = a[inside], b[inside]
    basis = np.zeros((d + 2 * a.size, d, d), dtype=complex)
    diag = np.arange(d)
    basis[diag, diag, diag] = 1.0
    re = d + 2 * np.arange(a.size)
    basis[re, a, b] = basis[re, b, a] = 1.0
    basis[re + 1, a, b] = 1.0j
    basis[re + 1, b, a] = -1.0j
    return basis


# The frame (columns) and block sizes in which rho, every d_i rho and R are
# block diagonal. One copy: the identity, one block. Two copies: rho x rho
# and its derivatives commute with SWAP, so in the triplet |00>,
# (|01>+|10>)/sqrt2, |11> and singlet (|01>-|10>)/sqrt2 frame they are
# blockdiag(3x3, 1x1); the optimal L_jk and X_i can be taken SWAP-invariant
# too (Gatermann and Parrilo, J. Pure Appl. Algebra 192, 2004).
_R2 = np.sqrt(0.5)
_FRAMES = {
    1: (np.eye(2), (2,)),
    2: (np.array([[1.0, 0.0, 0.0, 0.0],
                  [0.0, _R2, 0.0, _R2],
                  [0.0, _R2, 0.0, -_R2],
                  [0.0, 0.0, 1.0, 0.0]]), (3, 1)),
}


@dataclass
class NhSdpProblem:
    """Assembled SDP data for the collective bound at one model point.

    The problem lives in the frame V = `frame` of _FRAMES, where rho, every
    d_i rho and R = rho^1/2 are block diagonal, and L_jk and X_i range over
    the block-diagonal Hermitian matrices (for two copies, the SWAP-invariant
    ones: 10 basis elements in place of 16, 78 variables in place of 132).
    The constraint matrices are complex Hermitian 4d x 4d: the lift after
    the congruence blockdiag(R, R, R, I_d). Variables y stack the
    coefficients of the scaled blocks L'_jk = R L_jk R (block j <= k, one
    basis element at a time) and then the free estimator coefficients over
    the unbiasedness nullspace. The slack S(y) = F0 + sum_j y_j Fs[j] is the
    scaled lift itself, with L'_jk at block (j, k) and X'_i = R X_i at block
    (i, 3). The objective is sum_i w_i Tr[L'_ii] = Tr[(W x rho) L], so
    objective values and gaps are those of the bound per measurement.
    `unscale` is R^-1 in the frame.
    """

    point: ModelPoint
    c: np.ndarray
    F0: np.ndarray
    Fs: np.ndarray
    y0: np.ndarray
    Z0: np.ndarray
    unscale: np.ndarray
    frame: np.ndarray


def nh_problem(point: ModelPoint, weights: WeightSpec) -> NhSdpProblem:
    """Build the lifted SDP for the collective bound at a model point.

    The lift is the (3d + d) x (3d + d) block matrix [[L, X], [X^dag, I_d]]
    required PSD, with the estimator observables centered, Tr[rho X_i] = 0,
    and locally unbiased, Tr[d_j rho X_i] = delta_ij. Everything is written
    in the frame of _FRAMES[copies]: the identity with the full 2 x 2 basis
    for one copy, the triplet+singlet frame with the blockdiag(3x3, 1x1)
    basis for two. The congruence by blockdiag(R, R, R, I_d), R = rho^1/2,
    keeps the blocks L'_jk = R L_jk R Hermitian with L'_kj = L'_jk, and
    turns the dual start blockdiag(w_i rho, t I_d) into
    blockdiag(w_i I_d, t I_d), however close rho is to a pure state.
    """
    d = point.dim
    dim = 4 * d
    frame, sizes = _FRAMES[point.copies]
    block = np.repeat(np.arange(len(sizes)), sizes)
    inside = block[:, None] == block[None, :]
    basis = _hermitian_basis(sizes)
    nb = len(basis)

    # rho and d_j rho in the frame; their entries off the blocks vanish but
    # for rounding and are set to zero, here and in R and R^-1
    ops = np.where(inside, frame.T @ np.array([point.rho, *point.drho]) @ frame, 0.0)

    # centered unbiasedness constraints as a real linear system on Hermitian
    # coefficients; rows: Tr[rho H_s], Tr[d_j rho H_s]
    A = np.tensordot(ops, basis, axes=([1, 2], [2, 1])).real
    _, sv, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    if rank != 4:
        raise ValueError("unbiasedness constraints are rank deficient at this point")
    x_part_coeff = np.linalg.lstsq(A, np.eye(4)[:, 1:], rcond=None)[0]
    x_part = np.tensordot(x_part_coeff.T, basis, axes=1)
    x_null = np.tensordot(vt[rank:], basis, axes=1)
    nn = len(x_null)

    vals, vecs = np.linalg.eigh(ops[0])
    root = np.sqrt(vals)
    rho_half = np.where(inside, (vecs * root) @ vecs.conj().T, 0.0)
    unscale = np.where(inside, (vecs / root) @ vecs.conj().T, 0.0)

    blocks = [(j, k) for j in range(3) for k in range(j, 3)]
    nl = len(blocks) * nb
    Fs = np.zeros((nl + 3 * nn, dim, dim), dtype=complex)
    for pos, (j, k) in enumerate(blocks):
        rows = slice(pos * nb, (pos + 1) * nb)
        Fs[rows, j * d:(j + 1) * d, k * d:(k + 1) * d] = basis
        Fs[rows, k * d:(k + 1) * d, j * d:(j + 1) * d] = basis
    # X'_i = R X_i at block (i, 3) and its adjoint at (3, i)
    x_null_s = rho_half @ x_null
    F0 = np.zeros((dim, dim), dtype=complex)
    F0[3 * d:, 3 * d:] = np.eye(d)
    F0[:3 * d, 3 * d:] = np.vstack(rho_half @ x_part)
    F0[3 * d:, :3 * d] = F0[:3 * d, 3 * d:].conj().T
    for i in range(3):
        rows = slice(nl + i * nn, nl + (i + 1) * nn)
        Fs[rows, i * d:(i + 1) * d, 3 * d:] = x_null_s
        Fs[rows, 3 * d:, i * d:(i + 1) * d] = x_null_s.conj().transpose(0, 2, 1)

    # objective sum_i w_i Tr[L'_ii]: the diagonal units of the diagonal blocks
    w = weights.array
    c = np.zeros(len(Fs))
    diag_units = np.zeros(len(Fs), dtype=bool)
    for pos, (j, k) in enumerate(blocks):
        if j == k:
            c[pos * nb:pos * nb + d] = w[j]
            diag_units[pos * nb:pos * nb + d] = True

    # strictly feasible primal start: L' = tau I dominating the Schur
    # complement of the particular estimator block
    xhat = F0[:3 * d, 3 * d:]
    tau = 2.0 * float(np.linalg.eigvalsh(xhat @ xhat.conj().T)[-1]) + 1.0
    y0 = np.where(diag_units, tau, 0.0)

    # exactly dual-feasible start: Z = blockdiag(w_i I_d, t I_d)
    Z0 = np.diag(np.append(np.repeat(w, d), np.full(d, np.mean(w)))).astype(complex)

    return NhSdpProblem(point=point, c=c, F0=F0, Fs=Fs, y0=y0, Z0=Z0,
                        unscale=unscale, frame=frame)


def nh_solution(problem: NhSdpProblem, y: np.ndarray, centered: bool = False):
    """Read (L, [X_1, X_2, X_3]) off the lift S(y) = F0 + sum_j y_j Fs[j].

    L_jk = V R^-1 S_jk R^-1 V^T and X_i = V R^-1 S_i3 V^T, with R^-1 =
    problem.unscale and V = problem.frame, so L and X come back in the
    computational basis. By default the estimator observables are recentred
    to satisfy Tr[rho X_i] = theta_i; pass centered=True for the raw SDP
    variables.
    """
    d = problem.point.dim
    S = problem.F0 + np.tensordot(y, problem.Fs, axes=1)
    back = problem.frame @ problem.unscale
    back3 = np.kron(np.eye(3), back)
    L = back3 @ S[:3 * d, :3 * d] @ back3.conj().T
    xs = [back @ S[i * d:(i + 1) * d, 3 * d:] @ problem.frame.T for i in range(3)]
    if not centered:
        t = problem.point.theta.array
        xs = [x + t[i] * np.eye(d) for i, x in enumerate(xs)]
    return L, xs


def _certified_bracket(problem: NhSdpProblem, w: np.ndarray, y: np.ndarray,
                       Z: np.ndarray):
    """(lower, upper) on the optimum per measurement from a stopped iterate.

    upper = c.y at the primal iterate. Z is projected onto the dual affine
    set, Z' = Z + sum_j u_j F_j with (A A^T) u = c - A vec(Z), so that
    c.y = Tr[S(y) Z'] - Tr[F0 Z'] for every y. For PSD S,
    Tr[S Z'] >= min(0, lambda_min(Z')) Tr S, and at the optimum
    Tr S = sum_i Tr L'_ii + d <= upper sum_i 1/w_i + d, because
    sum_i w_i Tr L'_ii is the objective and every L'_ii is PSD (Jansson,
    Chaykin and Keil, SIAM J. Numer. Anal. 46, 2007).
    """
    m, n = len(problem.Fs), len(problem.F0)
    A = problem.Fs.reshape(m, n * n).view(float)
    rd = problem.c - A @ Z.view(float).ravel()
    projected = Z + np.tensordot(np.linalg.solve(A @ A.T, rd), problem.Fs, axes=1)
    upper = float(problem.c @ y)
    trace_bound = upper * float(np.sum(1.0 / w)) + problem.point.dim
    lam_min = float(np.linalg.eigvalsh(projected)[0])
    lower = -float(np.vdot(problem.F0, projected).real) + min(0.0, lam_min) * trace_bound
    return lower, upper


def nhcrb_sdp(point: ModelPoint, weights) -> BoundValue:
    """Collective bound per qubit at an arbitrary interior point, by SDP.

    Needs strictly positive weights (the dual start blockdiag(w_i I, t I) is
    built from them). The reported gap is the absolute duality gap per
    qubit; it certifies the value to within gap on either side. If the
    solver stops short of its tolerances with a trusted iterate, the value
    is the primal objective there and the gap reaches down to a certified
    lower bound (_certified_bracket), so the optimum lies in
    [value - gap, value]; such a value has no iteration count. A stop
    without an iterate raises the solver's ConvergenceError unchanged.
    """
    w = as_weights(weights).require_positive()
    if point.theta.norm > SDP_BLOCH_LIMIT:
        raise ValueError(
            f"Bloch norm {point.theta.norm:.8f} too close to the sphere for the SDP"
        )
    problem = nh_problem(point, w)
    try:
        result = sdp.solve_lmi(problem.c, problem.F0, problem.Fs, problem.y0,
                               problem.Z0)
        value, gap, iterations = result.primal, abs(result.gap), result.iterations
    except ConvergenceError as exc:
        if exc.iterate is None:
            raise
        lower, value = _certified_bracket(problem, w.array, *exc.iterate)
        gap, iterations = abs(value - lower), None
    copies = point.copies
    return BoundValue(
        value=convert_normalization(value, copies, "per_measurement", "per_qubit"),
        normalization="per_qubit", method="sdp", copies=copies,
        gap=convert_normalization(gap, copies, "per_measurement", "per_qubit"),
        iterations=iterations)
