"""Quantum estimation error bounds for the three-parameter qubit model.

The central object is the collective bound

    C = min Tr[(W x rho) L]

over operator-valued covariance surrogates L and locally unbiased estimator
observables X, subject to a positive semidefiniteness lift. Solved here as a
self-contained primal-dual SDP; closed forms are available at the origin.

Normalization conventions ("per_measurement" vs "per_qubit") differ by the
number of copies a single measurement consumes; see convert_normalization.
Centering: the SDP is formulated with Tr[rho X_i] = 0 so that its optimum is
the bound on the weighted mean squared error itself rather than on second
moments; reported observables are recentred as X_i + theta_i I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, sdp
from .constants import (
    SDP_BLOCH_LIMIT,
    SDP_FEAS_TOL,
    SDP_GAP_TOL,
    SDP_MAX_ITER,
)
from .model import (  # noqa: F401  (NORMALIZATIONS re-exported)
    NORMALIZATIONS,
    BlochVector,
    ModelPoint,
    _check_normalization,
    convert_normalization,
    model_point,
)
from .povm import Povm, WeightSpec, single_copy_optimal, two_copy_optimal


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


def nhcrb_analytic_origin(weights, copies: int = 1,
                          normalization: str = "per_qubit") -> BoundValue:
    """Closed-form collective bound at theta = 0.

    Single copy: (sum_i sqrt(w_i))^2 per measurement. Two copies:
    (sum_i w_i + sum_{i<j} sqrt(w_i w_j))/2 per measurement.
    """
    _check_normalization(normalization)
    w = as_weights(weights).array
    rw = np.sqrt(w)
    if copies == 1:
        pm = float(rw.sum() ** 2)
    elif copies == 2:
        cross = rw[0] * rw[1] + rw[0] * rw[2] + rw[1] * rw[2]
        pm = 0.5 * float(w.sum() + cross)
    else:
        raise ValueError(f"copies must be 1 or 2, got {copies}")
    value = convert_normalization(pm, copies, "per_measurement", normalization)
    return BoundValue(value=value, normalization=normalization,
                      method="analytic", copies=copies)


def _hermitian_basis(d: int) -> list[np.ndarray]:
    """Real-linear basis of d x d Hermitian matrices, diagonal units first."""
    basis = []
    for a in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[a, a] = 1.0
        basis.append(e)
    for a in range(d):
        for b in range(a + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1.0
            e[b, a] = 1.0
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1.0j
            e[b, a] = -1.0j
            basis.append(e)
    return basis


def _place(dim: int, r: int, c: int, h: np.ndarray, d: int) -> np.ndarray:
    big = np.zeros((dim, dim), dtype=complex)
    big[r * d:(r + 1) * d, c * d:(c + 1) * d] = h
    return big


@dataclass
class NhSdpProblem:
    """Assembled SDP data for the collective bound at one model point.

    Variables y stack the L-block coefficients (index tag ("L", j, k, s) for
    block j <= k in Hermitian basis element s) and the free estimator
    coefficients (tag ("X", i, t) over the unbiasedness nullspace). All
    constraint matrices are real embeddings, so objective values and gaps
    computed by the solver are twice the complex-space ones.
    """

    point: ModelPoint
    weights: WeightSpec
    c: np.ndarray
    F0: np.ndarray
    Fs: np.ndarray
    y0: np.ndarray
    Z0: np.ndarray
    index: tuple
    basis: list
    x_part: list
    x_null: list


def nh_problem(point: ModelPoint, weights: WeightSpec) -> NhSdpProblem:
    """Build the lifted SDP for the collective bound at a model point.

    The lift is the (3d + d) x (3d + d) block matrix [[L, X], [X^dag, I_d]]
    required PSD, with the estimator observables centered, Tr[rho X_i] = 0,
    and locally unbiased, Tr[d_j rho X_i] = delta_ij.
    """
    d = point.dim
    dim = 4 * d
    basis = _hermitian_basis(d)
    nb = len(basis)

    # centered unbiasedness constraints as a real linear system on Hermitian
    # coefficients; rows: Tr[rho H_s], Tr[d_j rho H_s]
    A = np.empty((4, nb))
    for s, h in enumerate(basis):
        A[0, s] = np.trace(point.rho @ h).real
        for j in range(3):
            A[1 + j, s] = np.trace(point.drho[j] @ h).real
    _, sv, vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    if rank != 4:
        raise ValueError("unbiasedness constraints are rank deficient at this point")
    x_part_coeff = [np.linalg.lstsq(A, np.eye(4)[1 + i], rcond=None)[0] for i in range(3)]
    null_coeff = vt[rank:]

    def from_coeff(vec):
        h = np.zeros((d, d), dtype=complex)
        for s, v in enumerate(vec):
            if v != 0.0:
                h = h + v * basis[s]
        return h

    x_part = [from_coeff(v) for v in x_part_coeff]
    x_null = [from_coeff(v) for v in null_coeff]

    index = []
    mats = []
    for j in range(3):
        for k in range(j, 3):
            for s, h in enumerate(basis):
                f = _place(dim, j, k, h, d)
                if k != j:
                    f = f + _place(dim, k, j, h, d)
                index.append(("L", j, k, s))
                mats.append(f)
    for i in range(3):
        for t, b in enumerate(x_null):
            f = _place(dim, i, 3, b, d) + _place(dim, 3, i, b, d)
            index.append(("X", i, t))
            mats.append(f)

    F0_c = _place(dim, 3, 3, np.eye(d, dtype=complex), d)
    for i in range(3):
        F0_c = F0_c + _place(dim, i, 3, x_part[i], d) + _place(dim, 3, i, x_part[i], d)

    Fs = np.array([linalg.real_embedding(f) for f in mats])
    F0 = linalg.real_embedding(F0_c)

    # objective Tr[(W x rho) L] = Tr[C M] with C = blockdiag(w_i rho, 0);
    # computed against the embedded matrices, doubling all values
    w = weights.array
    C_c = np.zeros((dim, dim), dtype=complex)
    for i in range(3):
        C_c += _place(dim, i, i, w[i] * point.rho, d)
    C_e = linalg.real_embedding(C_c)
    m = len(mats)
    c = Fs.reshape(m, -1) @ C_e.ravel()

    # strictly feasible primal start: L = tau I dominating the Schur
    # complement of the particular estimator block
    xhat = np.vstack(x_part)
    tau = 2.0 * float(np.linalg.eigvalsh(xhat @ xhat.conj().T)[-1]) + 1.0
    y0 = np.zeros(m)
    for pos, tag in enumerate(index):
        if tag[0] == "L" and tag[1] == tag[2] and tag[3] < d:
            y0[pos] = tau

    # exactly dual-feasible start: Z = blockdiag(w_i rho, t I_d)
    Z0_c = _place(dim, 3, 3, float(np.mean(w)) * np.eye(d, dtype=complex), d)
    for i in range(3):
        Z0_c += _place(dim, i, i, w[i] * point.rho, d)
    Z0 = linalg.real_embedding(Z0_c)

    return NhSdpProblem(point=point, weights=weights, c=c, F0=F0, Fs=Fs,
                     y0=y0, Z0=Z0, index=tuple(index), basis=basis,
                     x_part=x_part, x_null=x_null)


def nh_solution(problem: NhSdpProblem, y: np.ndarray, centered: bool = False):
    """Reconstruct (L, [X_1, X_2, X_3]) from a solver parameter vector.

    By default the estimator observables are recentred to satisfy
    Tr[rho X_i] = theta_i; pass centered=True for the raw SDP variables.
    """
    d = problem.point.dim
    L = np.zeros((3 * d, 3 * d), dtype=complex)
    xs = [h.copy() for h in problem.x_part]
    for pos, tag in enumerate(problem.index):
        v = y[pos]
        if tag[0] == "L":
            _, j, k, s = tag
            h = v * problem.basis[s]
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


def nhcrb_sdp(point: ModelPoint, weights, normalization: str = "per_qubit",
              gap_tol: float = SDP_GAP_TOL, feas_tol: float = SDP_FEAS_TOL,
              max_iter: int = SDP_MAX_ITER) -> BoundValue:
    """Collective bound at an arbitrary interior point, by interior-point SDP.

    Needs strictly positive weights (the exactly-feasible dual start is built
    from them). The reported gap is the absolute duality gap in complex-space
    units; it certifies the value to within gap on either side.
    """
    _check_normalization(normalization)
    w = as_weights(weights).require_positive()
    if point.theta.norm > SDP_BLOCH_LIMIT:
        raise ValueError(
            f"Bloch norm {point.theta.norm:.8f} too close to the sphere for the SDP"
        )
    problem = nh_problem(point, w)
    result = sdp.solve_lmi(problem.c, problem.F0, problem.Fs, problem.y0,
                           problem.Z0, gap_tol=gap_tol, feas_tol=feas_tol,
                           max_iter=max_iter)
    copies = point.copies
    pm = 0.5 * result.primal
    gap = 0.5 * abs(result.gap)
    value = convert_normalization(pm, copies, "per_measurement", normalization)
    gap = convert_normalization(gap, copies, "per_measurement", normalization)
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


def _certificate_coefficients(weights: WeightSpec, copies: int, p: Povm) -> np.ndarray:
    w = weights.array
    rw = np.sqrt(w)
    coeff = np.zeros((p.n_outcomes, 3))
    if copies == 1:
        total = rw.sum()
        for i in range(3):
            scale = total / rw[i]
            coeff[2 * i, i] = scale
            coeff[2 * i + 1, i] = -scale
    else:
        for i in range(3):
            others = [j for j in range(3) if j != i]
            D = (
                w[i]
                + rw[i] * rw[others[0]]
                + rw[i] * rw[others[1]]
                + rw[others[0]] * rw[others[1]]
            )
            scale = float(np.sqrt(D / w[i]))
            coeff[2 * i, i] = scale
            coeff[2 * i + 1, i] = -scale
    return coeff


def nh_optimal_certificate_origin(weights, copies: int = 1) -> NhCertificate:
    """Primal feasible point attaining the analytic origin bound.

    Certifies that the optimal measurement saturates the collective bound:
    the returned lift is PSD, the observables are unbiased at theta = 0, and
    the objective matches nhcrb_analytic_origin exactly.
    """
    w = as_weights(weights)
    if copies == 1:
        p = single_copy_optimal(w)
    elif copies == 2:
        p = two_copy_optimal(w)
    else:
        raise ValueError(f"copies must be 1 or 2, got {copies}")
    coeff = _certificate_coefficients(w, copies, p)
    point = model_point(BlochVector(0.0, 0.0, 0.0), copies)
    d = point.dim

    L = np.zeros((3 * d, 3 * d), dtype=complex)
    xs = [np.zeros((d, d), dtype=complex) for _ in range(3)]
    for m, el in enumerate(p.elements):
        for i in range(3):
            if coeff[m, i] != 0.0:
                xs[i] = xs[i] + coeff[m, i] * el
        for j in range(3):
            for k in range(3):
                cc = coeff[m, j] * coeff[m, k]
                if cc != 0.0:
                    L[j * d:(j + 1) * d, k * d:(k + 1) * d] += cc * el

    lifted = np.zeros((4 * d, 4 * d), dtype=complex)
    lifted[: 3 * d, : 3 * d] = L
    lifted[3 * d:, 3 * d:] = np.eye(d)
    for i in range(3):
        lifted[i * d:(i + 1) * d, 3 * d:] = xs[i]
        lifted[3 * d:, i * d:(i + 1) * d] = xs[i].conj().T

    min_eig = float(np.linalg.eigvalsh(lifted)[0])

    resid = 0.0
    for i in range(3):
        resid = max(resid, abs(np.trace(point.rho @ xs[i]).real))
        for j in range(3):
            want = 1.0 if i == j else 0.0
            resid = max(resid, abs(np.trace(point.drho[j] @ xs[i]).real - want))

    warr = w.array
    value = float(
        sum(
            warr[j] * np.trace(point.rho @ L[j * d:(j + 1) * d, j * d:(j + 1) * d]).real
            for j in range(3)
        )
    )
    return NhCertificate(value=value, normalization="per_measurement",
                         copies=copies, L=L, xs=tuple(xs), lifted=lifted,
                         lifted_min_eig=min_eig, constraint_residual=resid)
