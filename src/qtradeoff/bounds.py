"""Quantum estimation error bounds for the three-parameter qubit model.

The central object is the collective bound

    C = min Tr[(W x rho) L]

over operator-valued covariance surrogates L and locally unbiased estimator
observables X, subject to a positive semidefiniteness lift. Solved here as a
self-contained primal-dual SDP; closed forms exist for one copy at every
point and for two copies at the origin. The QCRB and the Holevo bound are
closed forms at every point.

Every bound, gap and tangent point is per qubit, the unit in which one-
and two-copy strategies compare: an error per measurement times the number
of copies one measurement consumes.
Centering: the SDP is formulated with Tr[rho X_i] = 0 so that its optimum is
the bound on the weighted mean squared error itself rather than on second
moments; reported observables are recentred as X_i + theta_i I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sdp
from .constants import SDP_BLOCH_LIMIT
from .model import BlochVector, ModelPoint
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
    """A scalar error bound per qubit together with its provenance.

    An SDP bound has a gap, with the optimum in [value - gap, value], and
    the solver's iterations, None where the solver stopped short. The
    collective bounds carry their tangent point, the gradient of the value
    in the weights (w_1, w_2, w_3): the errors (V_1, V_2, V_3) at which the
    plane w . V = value touches the attainable region (the envelope
    theorem). It is defined for positive weights.
    """

    value: float
    method: str
    copies: int
    gap: float | None = None
    iterations: int | None = None
    tangent: tuple | None = None

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError(f"bound value {self.value} is negative")
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")


def qcrb(point: ModelPoint, weights) -> BoundValue:
    """Weighted quantum Cramer-Rao bound Tr[W J^-1] = sum_i w_i (1 - theta_i^2).

    The inverse single-qubit information is exactly I - theta theta^T, and
    information is additive over copies, so the per-qubit value does not
    depend on the copy count. Each 1 - theta_i^2 is taken as
    (1 - theta_i)(1 + theta_i), accurate however close theta_i is to +-1.
    """
    t = point.theta.array
    w = as_weights(weights).array
    return BoundValue(value=float((w * ((1.0 - t) * (1.0 + t))).sum()),
                      method="qcrb", copies=point.copies)


def _weight_scale(w: np.ndarray):
    """(k, 2^-k w) for the even k, per row of w (... x 3), at which the weights
    sum to within [1/2, 2). Every bound is linear in W, so its value at
    2^-k W scaled back by 2^k is exact, and an even k keeps square roots
    exact: each bound depends only on the weights' ratios, bit for bit, and
    their products stay finite. Summing quarters keeps the sum finite.
    """
    k = 2 * (np.frexp(np.sum(0.25 * w, axis=-1))[1] // 2 + 1)
    return k, np.ldexp(w, -k[..., None])


def holevo(point: ModelPoint, weights) -> BoundValue:
    """Holevo bound per qubit, the QCRB plus 2 |v|.

    The locally unbiased observables of one qubit are unique,
    X_i = sigma_i - theta_i I, so the bound is the QCRB plus the trace norm
    Tr|sqrt(W) Im Z sqrt(W)|, where
    Z_ij = Tr[rho X_i X_j] = delta_ij - theta_i theta_j + i eps_ijk theta_k.
    That trace norm is 2 |v| with v_k = sqrt(w_i w_j) theta_k over cyclic (i, j, k),
    which equals 2 sqrt(wx wy wz) |W^-1/2 theta| without dividing by a weight.
    It is evaluated at the weights of _weight_scale. The bound is additive,
    so the per-qubit value is also the many-copy collective limit and does
    not depend on the copy count.
    """
    t = point.theta.array
    k, w = _weight_scale(as_weights(weights).array)
    v = np.sqrt(w[[1, 2, 0]] * w[[2, 0, 1]]) * t
    value = float(np.ldexp(qcrb(point, WeightSpec(*w)).value + 2.0 * np.linalg.norm(v), k))
    return BoundValue(value=value, method="holevo", copies=point.copies)


def nhcrb_analytic(point: ModelPoint, weights) -> BoundValue | None:
    """Closed form of the collective bound per qubit, where one exists; else None.

    One copy, any theta: the Gill-Massar value (sum_k sqrt(lambda_k))^2,
    with lambda the eigenvalues of W - u u^T, u = W^1/2 theta, the spectrum
    of J^-1/2 W J^-1/2, since J^-1 = I - theta theta^T. Two copies at
    theta = 0: sum_i w_i + sum_{i<j} sqrt(w_i w_j) per qubit (Gill and
    Massar, PRA 61, 042312, 2000). Two copies off the origin have no closed
    form: use nhcrb_sdp. The value and its tangent point are _closed_forms'
    for the one weight row.
    """
    forms = _closed_forms(point, as_weights(weights).array[None, :])
    if forms is None:
        return None
    values, tangents = forms
    return BoundValue(value=values[0], method="analytic", copies=point.copies,
                      tangent=tuple(tangents[0].tolist()))


def _closed_forms(point: ModelPoint, w: np.ndarray) -> tuple | None:
    """(values, tangents): nhcrb_analytic's values per qubit, as floats, and
    their gradients in the weights (n x 3), for each row of the weight stack
    w (n x 3) at one point; None where no closed form exists.

    Both are e1 + m q (m = 2 for one copy, 1 for two) at the weights of
    _weight_scale, with e1 = sum_i w_i (1 - theta_i^2), the QCRB, and
    q = sum_{i<j} sqrt(lambda_i lambda_j) over the eigenvalues of W - u u^T,
    lambda = w at theta = 0. Elsewhere q is the root of f(q) = q^2 - e2 -
    2 sqrt(e3 (e1 + 2 q)), with e2 = sum_{i<j} w_i w_j (theta_k^2 + mixed),
    k the third index, e3 = w_1 w_2 w_3 mixed and mixed = 1 - |theta|^2,
    rounded once from its exact rational value. f is convex, so Newton descends
    monotonically from the smaller of two upper bounds on q, the origin's
    value (interlacing) and sqrt(e2 + 2 sqrt(3 e1 e3)) (Cauchy-Schwarz),
    until a step no longer lowers q. The root is double only at q = 0,
    where e2 = e3 = 0 and the second start is exact.

    The gradient is 1 - theta_i^2 + m dq/dw_i, with dq/dw_i =
    (sum_j r_j - r_i) / 2 r_i, r = sqrt(w), at the origin, and elsewhere by
    implicit differentiation of f(q, w) = 0, with g = sqrt(e3):
    dq/dw_i = (p de2/dw_i + p^2 g / w_i + g (1 - theta_i^2)) / 2 (q p - g).
    It is degree-0 homogeneous, so it needs no scaling back. A zero weight's
    derivative is unbounded, and its row need not be finite.
    """
    t = point.theta.array
    if point.copies == 2 and t.any():
        return None
    m = 3 - point.copies
    k, w = _weight_scale(w)
    r = np.sqrt(w)
    q = r[:, 0] * r[:, 1] + r[:, 0] * r[:, 2] + r[:, 1] * r[:, 2]
    floor = (1.0 - t) * (1.0 + t)
    e1 = (w * floor).sum(axis=1)
    if t.any():
        mixed = max(0.0, float(1 - sum(Fraction(x) ** 2 for x in t)))
        pair = t[::-1] ** 2 + mixed
        e2 = (w[:, [0, 0, 1]] * w[:, [1, 2, 2]] * pair).sum(axis=1)
        g = np.sqrt(w[:, 0] * w[:, 1] * w[:, 2] * mixed)
        q = np.minimum(q, np.sqrt(e2 + 2.0 * np.sqrt(3.0 * e1) * g))
        while True:
            # f / f' = p f / 2 (q p - g), p = sqrt(e1 + 2 q); q p - g > 0 where
            # q > 0, as at the root it is a product of sums of sqrt(lambda_k)
            p = np.sqrt(e1 + 2.0 * q)
            lower = q - p * (q * q - e2 - 2.0 * g * p) / np.where(q > 0.0, 2.0 * (q * p - g), 1.0)
            if not (lower < q).any():
                break
            q = np.minimum(q, lower)
        # p is that of the final q; de2/dw_i sums w_j times the coefficient
        # pair of w_i w_j in e2 over j != i
        de2 = w[:, [1, 0, 0]] * pair[[0, 0, 1]] + w[:, [2, 2, 1]] * pair[[1, 2, 2]]
        with np.errstate(divide="ignore", invalid="ignore"):
            dq = ((p * p * g)[:, None] / w + p[:, None] * de2 + g[:, None] * floor) / (
                2.0 * (q * p - g))[:, None]
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            dq = (r.sum(axis=1)[:, None] - r) / (2.0 * r)
    return np.ldexp(e1 + m * q, k).tolist(), floor + m * dq


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
    `nl` counts the L' coefficients at the head of y, `unscale` is R^-1 in
    the frame.
    """

    point: ModelPoint
    c: np.ndarray
    F0: np.ndarray
    Fs: np.ndarray
    y0: np.ndarray
    Z0: np.ndarray
    nl: int
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

    return NhSdpProblem(point=point, c=c, F0=F0, Fs=Fs, y0=y0, Z0=Z0, nl=nl,
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
    """(lower, upper, tangent) on the optimum per measurement from any
    iterate (y, Z).

    upper = c.y + delta d sum_i w_i, with delta = max(0, -lambda_min) of
    L' - X' X'^dag, the Schur complement of the identity block of
    S(y) = F0 + sum_j y_j F_j recomputed from y: raising every L'_ii by
    delta I_d makes S(y) PSD, so upper is the objective at a feasible point.
    tangent holds that point's Tr L'_ii + delta d, the gradient of upper in
    the weights, which tends to the optimum's as the iterate converges.
    Z is projected onto the dual affine set, Z' = Z + sum_j u_j F_j with
    (A A^T) u = c - A vec(Z), so that c.y = Tr[S(y) Z'] - Tr[F0 Z'] for every
    y. A A^T needs no product: its L'-L' part is diagonal, with 1, 2 or 4
    (the squared norm of a basis unit, placed once on a diagonal block and
    twice off it), and its L'-X' part is zero, since the blocks do not
    overlap, so only the X' rows take a solve. With
    D = blockdiag(w_1 I_d, w_2 I_d, w_3 I_d, I_d), every PSD S has
    Tr[S Z'] = Tr[(D^1/2 S D^1/2)(D^-1/2 Z' D^-1/2)]
    >= min(0, lambda_min(D^-1/2 Z' D^-1/2)) Tr[D S], and
    Tr[D S(y)] = sum_i w_i Tr L'_ii + d = c.y + d for every y, which is at
    most upper + d at the optimum. Scaling Z' by the weights keeps this
    factor the objective's own size however lopsided they are (Jansson,
    Chaykin and Keil, SIAM J. Numer. Anal. 46, 2007).
    """
    m, n, d = len(problem.Fs), len(problem.F0), problem.point.dim
    S = problem.F0 + np.tensordot(y, problem.Fs, axes=1)
    X = S[:3 * d, 3 * d:]
    delta = max(0.0, -float(np.linalg.eigvalsh(S[:3 * d, :3 * d] - X @ X.conj().T)[0]))
    upper = float(problem.c @ y) + delta * d * float(w.sum())
    tangent = np.einsum("iaia->i", S[:3 * d, :3 * d].reshape(3, d, 3, d)).real + delta * d
    A = problem.Fs.reshape(m, n * n).view(float)
    rd = problem.c - A @ Z.view(float).ravel()
    nl = problem.nl
    ax = A[nl:]
    u = np.concatenate([rd[:nl] / np.einsum("ij,ij->i", A[:nl], A[:nl]),
                        np.linalg.solve(ax @ ax.T, rd[nl:])])
    projected = Z + np.tensordot(u, problem.Fs, axes=1)
    unweight = 1.0 / np.sqrt(np.append(np.repeat(w, d), np.ones(d)))
    lam_min = float(np.linalg.eigvalsh(projected * np.outer(unweight, unweight))[0])
    lower = -float(np.vdot(problem.F0, projected).real) + min(0.0, lam_min) * (upper + d)
    return lower, upper, tangent


def nhcrb_sdp(point: ModelPoint, weights) -> BoundValue:
    """Collective bound per qubit at an arbitrary interior point, by SDP.

    Needs strictly positive weights (the dual start blockdiag(w_i I, t I) is
    built from them). The SDP is solved at 2^-k W, k from _weight_scale, and
    value and gap are scaled back by 2^k: both are exact, the solver's
    stopping test sees the same problem at every scale, and weights that sum
    to within [1/2, 2) are solved as given. The value and the gap come from
    the certified bracket (_certified_bracket) at the iterate solve_lmi returns,
    converged or not: the optimum lies in [value - gap, value]. `iterations`
    is None where the solver stopped short. The tangent point is the
    bracket's, read off the same iterate; it needs no scaling back. The
    bracket is per measurement, so value, gap and tangent are multiplied by
    the copy count, exactly, once.
    """
    w = as_weights(weights).require_positive()
    if point.theta.norm > SDP_BLOCH_LIMIT:
        raise ValueError(
            f"Bloch norm {point.theta.norm:.8f} too close to the sphere for the SDP"
        )
    k, scaled = _weight_scale(w.array)
    problem = nh_problem(point, WeightSpec(*scaled))
    result = sdp.solve_lmi(problem.c, problem.F0, problem.Fs, problem.y0, problem.Z0)
    lower, value, tangent = _certified_bracket(problem, scaled, result.y, result.Z)
    copies = point.copies
    value, gap = (float(np.ldexp(x, k)) * copies for x in (value, value - lower))
    return BoundValue(value=value, method="sdp", copies=copies, gap=gap,
                      iterations=result.iterations,
                      tangent=tuple((tangent * copies).tolist()))
