"""Quantum estimation error bounds for the three-parameter qubit model.

The central object is the collective bound

    C = min Tr[(W x rho) L]

over operator-valued covariance surrogates L and locally unbiased estimator
observables X, subject to a positive semidefiniteness lift. Solved here as a
self-contained primal-dual SDP; closed forms exist for one copy at every
point and for two copies at the origin.

Normalization conventions ("per_measurement" vs "per_qubit") differ by the
number of copies a single measurement consumes; see convert_normalization.
Centering: the SDP is formulated with Tr[rho X_i] = 0 so that its optimum is
the bound on the weighted mean squared error itself rather than on second
moments; reported observables are recentred as X_i + theta_i I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .constants import SDP_BLOCH_LIMIT
from .model import (  # noqa: F401  (NORMALIZATIONS re-exported)
    NORMALIZATIONS,
    BlochVector,
    ModelPoint,
    _check_normalization,
    convert_normalization,
    model_point,
)
from .povm import WeightSpec, linear_estimator_matrix, single_copy_optimal, two_copy_optimal


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


def qcrb(point: ModelPoint, weights, normalization: str = "per_qubit") -> BoundValue:
    """Weighted quantum Cramer-Rao bound Tr[W J^-1] = Tr[W] - theta.W theta.

    The inverse single-qubit information is exactly I - theta theta^T, and
    information is additive over copies, so the per-qubit value does not
    depend on the copy count.
    """
    _check_normalization(normalization)
    t = point.theta.array
    w = as_weights(weights).array
    per_qubit = float(w.sum() - t @ (w * t))
    value = convert_normalization(per_qubit, point.copies, "per_qubit", normalization)
    return BoundValue(value=value, normalization=normalization, method="qcrb",
                      copies=point.copies)


def holevo_origin(weights) -> BoundValue:
    """Holevo bound per qubit at theta = 0, which collapses to Tr[W].

    At the origin the weighted quantum Cramer-Rao bound is already attainable
    in the collective limit, so the Holevo value carries no extra penalty.
    """
    w = as_weights(weights).array
    return BoundValue(value=float(w.sum()), normalization="per_qubit",
                      method="holevo", copies=1)


def nhcrb_analytic(point: ModelPoint, weights,
                   normalization: str = "per_qubit") -> BoundValue | None:
    """Closed form of the collective bound, where one exists; else None.

    One copy, any theta: the Gill-Massar value (sum_k sqrt(lambda_k))^2 per
    measurement, with lambda the eigenvalues of W - u u^T, u = W^1/2 theta.
    That matrix has the spectrum of J^-1/2 W J^-1/2, since
    J^-1 = I - theta theta^T; at theta = 0 the value is (sum_i sqrt(w_i))^2.
    Two copies at theta = 0: (sum_i w_i + sum_{i<j} sqrt(w_i w_j))/2 per
    measurement. Two copies off the origin have no closed form: use
    nhcrb_sdp.
    """
    _check_normalization(normalization)
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
    value = convert_normalization(pm, copies, "per_measurement", normalization)
    return BoundValue(value=value, normalization=normalization,
                      method="analytic", copies=copies)


def _hermitian_basis(d: int) -> np.ndarray:
    """Real-linear basis of d x d Hermitian matrices, diagonal units first.

    Off-diagonal pairs a < b follow in row order, each as the real unit
    e_ab + e_ba and then the imaginary unit i e_ab - i e_ba.
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    diag = np.arange(d)
    basis[diag, diag, diag] = 1.0
    a, b = np.triu_indices(d, 1)
    re = d + 2 * np.arange(a.size)
    basis[re, a, b] = basis[re, b, a] = 1.0
    basis[re + 1, a, b] = 1.0j
    basis[re + 1, b, a] = -1.0j
    return basis


@dataclass
class NhSdpProblem:
    """Assembled SDP data for the collective bound at one model point.

    The constraint matrices are complex Hermitian 4d x 4d: the lift after the
    congruence blockdiag(R, R, R, I_d) with R = rho^1/2. Variables y stack
    the coefficients of the scaled blocks L'_jk = R L_jk R (index tag
    ("L", j, k, s) for block j <= k in Hermitian basis element s) and the
    free estimator coefficients (tag ("X", i, t) over the unbiasedness
    nullspace). The objective is sum_i w_i Tr[L'_ii] = Tr[(W x rho) L], so
    objective values and gaps are those of the bound per measurement.
    `unscale` is R^-1.
    """

    point: ModelPoint
    weights: WeightSpec
    c: np.ndarray
    F0: np.ndarray
    Fs: np.ndarray
    y0: np.ndarray
    Z0: np.ndarray
    index: tuple
    basis: np.ndarray
    x_part: np.ndarray
    x_null: np.ndarray
    unscale: np.ndarray


def nh_problem(point: ModelPoint, weights: WeightSpec) -> NhSdpProblem:
    """Build the lifted SDP for the collective bound at a model point.

    The lift is the (3d + d) x (3d + d) block matrix [[L, X], [X^dag, I_d]]
    required PSD, with the estimator observables centered, Tr[rho X_i] = 0,
    and locally unbiased, Tr[d_j rho X_i] = delta_ij. The congruence by
    blockdiag(R, R, R, I_d), R = rho^1/2, keeps the blocks L'_jk = R L_jk R
    Hermitian with L'_kj = L'_jk, and turns the dual start
    blockdiag(w_i rho, t I_d) into blockdiag(w_i I_d, t I_d), however close
    rho is to a pure state.
    """
    d = point.dim
    dim = 4 * d
    basis = _hermitian_basis(d)
    nb = len(basis)

    # centered unbiasedness constraints as a real linear system on Hermitian
    # coefficients; rows: Tr[rho H_s], Tr[d_j rho H_s]
    ops = np.array([point.rho, *point.drho])
    A = np.tensordot(ops, basis, axes=([1, 2], [2, 1])).real
    _, sv, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    if rank != 4:
        raise ValueError("unbiasedness constraints are rank deficient at this point")
    x_part_coeff = np.linalg.lstsq(A, np.eye(4)[:, 1:], rcond=None)[0]
    x_part = np.tensordot(x_part_coeff.T, basis, axes=1)
    x_null = np.tensordot(vt[rank:], basis, axes=1)
    nn = len(x_null)

    vals, vecs = np.linalg.eigh(point.rho)
    root = np.sqrt(vals)
    rho_half = (vecs * root) @ vecs.conj().T
    unscale = (vecs / root) @ vecs.conj().T

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
    index = [("L", j, k, s) for j, k in blocks for s in range(nb)]
    index += [("X", i, t) for i in range(3) for t in range(nn)]

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

    return NhSdpProblem(point=point, weights=weights, c=c, F0=F0, Fs=Fs,
                        y0=y0, Z0=Z0, index=tuple(index), basis=basis,
                        x_part=x_part, x_null=x_null, unscale=unscale)


def nh_solution(problem: NhSdpProblem, y: np.ndarray, centered: bool = False):
    """Reconstruct (L, [X_1, X_2, X_3]) from a solver parameter vector.

    By default the estimator observables are recentred to satisfy
    Tr[rho X_i] = theta_i; pass centered=True for the raw SDP variables.
    """
    d = problem.point.dim
    L = np.zeros((3 * d, 3 * d), dtype=complex)
    xs = [h.copy() for h in problem.x_part]
    R = problem.unscale
    for pos, tag in enumerate(problem.index):
        v = y[pos]
        if tag[0] == "L":
            _, j, k, s = tag
            h = R @ (v * problem.basis[s]) @ R
            L[j * d:(j + 1) * d, k * d:(k + 1) * d] += h
            if k != j:
                L[k * d:(k + 1) * d, j * d:(j + 1) * d] += h
        else:
            _, i, t = tag
            xs[i] = xs[i] + v * problem.x_null[t]
    if not centered:
        t = problem.point.theta.array
        xs = [x + t[i] * np.eye(d) for i, x in enumerate(xs)]
    return L, xs


def nhcrb_sdp(point: ModelPoint, weights, normalization: str = "per_qubit") -> BoundValue:
    """Collective bound at an arbitrary interior point, by interior-point SDP.

    Needs strictly positive weights (the dual start blockdiag(w_i I, t I) is
    built from them). The reported gap is the absolute duality gap, in the
    requested normalization; it certifies the value to within gap on either
    side.
    """
    _check_normalization(normalization)
    w = as_weights(weights).require_positive()
    if point.theta.norm > SDP_BLOCH_LIMIT:
        raise ValueError(
            f"Bloch norm {point.theta.norm:.8f} too close to the sphere for the SDP"
        )
    problem = nh_problem(point, w)
    result = sdp.solve_lmi(problem.c, problem.F0, problem.Fs, problem.y0,
                           problem.Z0)
    copies = point.copies
    value = convert_normalization(result.primal, copies, "per_measurement",
                                  normalization)
    gap = convert_normalization(abs(result.gap), copies, "per_measurement",
                                normalization)
    return BoundValue(value=value, normalization=normalization, method="sdp",
                      copies=copies, gap=gap, iterations=result.iterations)


@dataclass(frozen=True)
class NhCertificate:
    """Feasible primal matrices certifying the origin bound for a measurement.

    Built from the weight-adapted optimal POVM and its unbiased linear
    estimator: with estimator coefficients
    c_i(m), the blocks L_jk = sum_m c_j(m) c_k(m) Pi_m and estimator
    observables X_i = sum_m c_i(m) Pi_m make the lift a sum of outer products
    and hence PSD, with objective equal to the closed form.
    """

    value: float
    normalization: str
    copies: int
    L: np.ndarray
    xs: tuple
    lifted: np.ndarray
    lifted_min_eig: float
    constraint_residual: float


def nh_optimal_certificate_origin(weights, copies: int = 1) -> NhCertificate:
    """Primal feasible point attaining the analytic origin bound.

    Certifies that the optimal measurement saturates the collective bound:
    the returned lift is PSD, the observables are unbiased at theta = 0, and
    the objective matches nhcrb_analytic at the origin.
    """
    w = as_weights(weights)
    if copies == 1:
        p = single_copy_optimal(w)
    elif copies == 2:
        p = two_copy_optimal(w)
    else:
        raise ValueError(f"copies must be 1 or 2, got {copies}")
    # coefficients c_i(m) of the unbiased linear estimator, one row per outcome
    coeff = linear_estimator_matrix(p, copies).T
    point = model_point(BlochVector(0.0, 0.0, 0.0), copies)
    d = point.dim

    els = np.array(p.elements)
    xs = np.einsum("mi,mab->iab", coeff, els)
    L = np.einsum("mj,mk,mab->jakb", coeff, coeff, els).reshape(3 * d, 3 * d)

    lifted = np.zeros((4 * d, 4 * d), dtype=complex)
    lifted[: 3 * d, : 3 * d] = L
    lifted[: 3 * d, 3 * d:] = xs.reshape(3 * d, d)
    lifted[3 * d:, : 3 * d] = lifted[: 3 * d, 3 * d:].conj().T
    lifted[3 * d:, 3 * d:] = np.eye(d)

    min_eig = float(np.linalg.eigvalsh(lifted)[0])

    # Tr[rho X_i] = 0 and Tr[d_j rho X_i] = delta_ij
    centering = np.einsum("ab,iba->i", point.rho, xs).real
    unbiased = np.einsum("jab,iba->ij", np.array(point.drho), xs).real
    resid = float(max(np.abs(centering).max(), np.abs(unbiased - np.eye(3)).max()))

    # sum_j w_j Tr[rho L_jj]
    value = float(np.einsum("j,ab,jbja->", w.array, point.rho, L.reshape(3, d, 3, d)).real)
    return NhCertificate(value=value, normalization="per_measurement",
                         copies=copies, L=L, xs=tuple(xs), lifted=lifted,
                         lifted_min_eig=min_eig, constraint_residual=resid)
