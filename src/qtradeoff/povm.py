"""POVM constructions and their classical Fisher information.

Contains the weight-adapted optimal single-copy and two-copy measurements,
the two-copy SIC benchmark, and the hard-coded reference measurements quoted
to four decimals for theta = (0.3, 0.3, 0.3) with W = diag(1, 4, 9)/14.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .constants import (
    COMPLETENESS_TOL,
    FISHER_PROB_CUTOFF,
    INTERIOR_MARGIN,
    PROB_NEGATIVE_TOL,
    PROB_SUM_TOL,
    PSD_TOL,
    REFERENCE_COMPLETENESS_TOL,
)
from .model import AXIS_LABELS, PAULIS, BlochVector, convert_normalization, qfi


class SingularFisherError(RuntimeError):
    """An outcome has vanishing probability but non-vanishing derivative."""


@dataclass(frozen=True)
class WeightSpec:
    """Weights (wx, wy, wz) for the weighted mean squared error.

    Only ratios matter to the constructions; the weights need not sum to one.
    Zero entries are allowed for bound evaluation (single-parameter limits)
    but rejected by the POVM constructors, which need every weight positive.
    """

    wx: float
    wy: float
    wz: float

    def __post_init__(self):
        arr = np.array([self.wx, self.wy, self.wz], dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite")
        if np.any(arr < 0.0):
            raise ValueError("weights must be nonnegative")
        if not np.any(arr > 0.0):
            raise ValueError("at least one weight must be positive")

    def require_positive(self) -> "WeightSpec":
        if np.any(self.array == 0.0):
            raise ValueError(
                "degenerate weights: this construction needs every weight "
                "positive; pass a small weight such as 1e-8 instead of zero"
            )
        return self

    @classmethod
    def from_sequence(cls, seq: Iterable[float]) -> "WeightSpec":
        vals = [float(v) for v in seq]
        if len(vals) != 3:
            raise ValueError(f"expected 3 weights, got {len(vals)}")
        return cls(*vals)

    @classmethod
    def from_integers(cls, u: Iterable[int]) -> "WeightSpec":
        """Weight matrix Diag(u^2) / sum(u^2) built from an integer triple."""
        arr = np.array([int(v) for v in u], dtype=float)
        if arr.shape != (3,) or np.any(arr <= 0):
            raise ValueError("integer weights must be a positive triple")
        sq = arr * arr
        return cls(*(sq / sq.sum()))

    @property
    def array(self) -> np.ndarray:
        return np.array([self.wx, self.wy, self.wz], dtype=float)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.array)


@dataclass(frozen=True)
class Povm:
    """A measurement with elements summing to the identity.

    completeness_tol is the documented max-entry deviation of sum(elements)
    from the identity; the exact constructions use COMPLETENESS_TOL while the
    four-decimal reference measurements carry a 2e-3 budget.
    """

    elements: tuple[np.ndarray, ...]
    name: str
    labels: tuple[str, ...]
    completeness_tol: float = COMPLETENESS_TOL

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    @property
    def copies(self) -> int:
        """Qubits measured jointly per shot: 1 for a 2x2 POVM, 2 for a 4x4 one."""
        if self.dim not in (2, 4):
            raise ValueError(f"POVM dimension {self.dim} measures neither one nor two qubits")
        return self.dim // 2

    def completeness_deviation(self) -> float:
        total = sum(self.elements)
        return float(np.abs(total - np.eye(self.dim)).max())


def _axis_eigenvectors() -> list[list[np.ndarray]]:
    # +1/-1 eigenvectors per Pauli axis; sigma_y pair fixed to (1, +/- i)/sqrt(2)
    ex = [np.array([1, 1], dtype=complex) / np.sqrt(2), np.array([1, -1], dtype=complex) / np.sqrt(2)]
    ey = [np.array([1, 1j], dtype=complex) / np.sqrt(2), np.array([1, -1j], dtype=complex) / np.sqrt(2)]
    ez = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
    return [ex, ey, ez]


AXIS_EIGENVECTORS = _axis_eigenvectors()

SINGLET = (np.kron([1, 0], [0, 1]) - np.kron([0, 1], [1, 0])).astype(complex) / np.sqrt(2)

# For each axis i, the two partner axes whose weights set the superposition
# amplitudes of the two-copy elements; the assignment below is the unique one
# for which the seven elements resolve the identity for generic weights.
_TWO_COPY_PARTNERS = ((2, 1), (2, 0), (0, 1))


def single_copy_optimal(weights: WeightSpec) -> Povm:
    """Six weighted rank-1 projectors along the Pauli axes.

    Element pairs a_i^2 |0_i><0_i|, a_i^2 |1_i><1_i| with
    a_i^2 = sqrt(w_i) / (sqrt(wx) + sqrt(wy) + sqrt(wz)). At the origin it
    attains the single-copy bound (sum_i sqrt(w_i))^2 for its weights.
    """
    rw = np.sqrt(weights.require_positive().array)
    total = rw.sum()
    els, labels = [], []
    for i in range(3):
        scale = rw[i] / total
        for sign, v in zip("+-", AXIS_EIGENVECTORS[i]):
            els.append(scale * np.outer(v, v.conj()))
            labels.append(f"{sign}{AXIS_LABELS[i]}")
    return Povm(tuple(els), name="single_copy_optimal", labels=tuple(labels))


def two_copy_alpha(weights: WeightSpec) -> np.ndarray:
    """Superposition amplitudes alpha_{+/-, i} of the two-copy elements, shape (3, 2)."""
    rw = np.sqrt(weights.require_positive().array)
    out = np.empty((3, 2))
    for i, (p, q) in enumerate(_TWO_COPY_PARTNERS):
        a = np.sqrt(rw[i] / (rw[i] + rw[p]))
        b = np.sqrt(rw[i] / (rw[i] + rw[q]))
        out[i] = (a + b, a - b)
    return out


def two_copy_optimal(weights: WeightSpec) -> Povm:
    """Entangling two-copy measurement: six rank-1 elements plus the singlet.

    Per axis i the sub-normalized vectors are
    (alpha_{+,i} |0_i 0_i> + alpha_{-,i} |1_i 1_i>)/2 and the alpha-swapped
    partner; the seventh element projects on the singlet, whose outcome
    probability is (1 - theta . theta)/4 and carries no parameter information
    at the origin.
    """
    alpha = two_copy_alpha(weights)
    els, labels = [], []
    for i in range(3):
        v0, v1 = AXIS_EIGENVECTORS[i]
        k00, k11 = np.kron(v0, v0), np.kron(v1, v1)
        ap, am = alpha[i]
        plus = 0.5 * (ap * k00 + am * k11)
        minus = 0.5 * (am * k00 + ap * k11)
        els.append(np.outer(plus, plus.conj()))
        labels.append(f"+{AXIS_LABELS[i]}")
        els.append(np.outer(minus, minus.conj()))
        labels.append(f"-{AXIS_LABELS[i]}")
    els.append(np.outer(SINGLET, SINGLET.conj()))
    labels.append("singlet")
    return Povm(tuple(els), name="two_copy_optimal", labels=tuple(labels))


def sic_two_copy() -> Povm:
    """Product SIC benchmark: (3/4) |psi_j psi_j><psi_j psi_j| plus the singlet."""
    s2 = np.sqrt(2.0)
    kets = [
        np.array([1, 0], dtype=complex),
        np.array([1, s2], dtype=complex) / np.sqrt(3),
        np.array([1, s2 * np.exp(2j * np.pi / 3)], dtype=complex) / np.sqrt(3),
        np.array([1, s2 * np.exp(-2j * np.pi / 3)], dtype=complex) / np.sqrt(3),
    ]
    els = []
    for k in kets:
        kk = np.kron(k, k)
        els.append(0.75 * np.outer(kk, kk.conj()))
    els.append(np.outer(SINGLET, SINGLET.conj()))
    labels = tuple(f"sic{j}" for j in range(1, 5)) + ("singlet",)
    return Povm(tuple(els), name="sic_two_copy", labels=labels)


# Hard-coded reference measurements, quoted to four decimals, optimal for
# theta = (0.3, 0.3, 0.3) with W = diag(1, 4, 9)/14. The final component of
# the fourth two-copy vector is reconstructed from the completeness relation;
# as printed it duplicates the third vector's and breaks completeness by 0.33.
_REFERENCE_SINGLE_VECTORS = (
    (0.1743, 0.0070 - 0.7019j),
    (0.4374, -0.1208 + 0.5850j),
    (0.6709, 0.2631 - 0.0472j),
    (0.5729, -0.2179 - 0.1778j),
)

_REFERENCE_TWO_VECTORS = (
    (0.2806, 0.3724 - 0.0137j, 0.3724 - 0.0137j, 0.3168 - 0.0288j),
    (0.3097, -0.0874 + 0.4903j, -0.0874 + 0.4903j, -0.3358 - 0.1722j),
    (0.1915, 0.0467 - 0.2655j, 0.0467 - 0.2655j, -0.2746 - 0.0893j),
    (0.8875, -0.0923 - 0.1078j, -0.0923 - 0.1078j, 0.0689 + 0.0591j),
    (0.0330, -0.1351 - 0.0438j, -0.1351 - 0.0438j, 0.1982 + 0.7909j),
    (0.0, 0.7071, -0.7071, 0.0),
)


def reference_povm(copies: int) -> Povm:
    """The hard-coded reference measurement for one or two copies.

    Four outcomes for one copy and six for two, from the four-decimal vectors.
    """
    if copies not in (1, 2):
        raise ValueError(f"copies must be 1 or 2, got {copies}")
    name, vectors = (("reference_single_copy", _REFERENCE_SINGLE_VECTORS),
                     ("reference_two_copy", _REFERENCE_TWO_VECTORS))[copies - 1]
    els = tuple(np.outer(v, v.conj()) for v in np.array(vectors, dtype=complex))
    labels = tuple(f"r{j}" for j in range(1, len(els) + 1))
    return Povm(els, name=name, labels=labels,
                completeness_tol=REFERENCE_COMPLETENESS_TOL)


def _model_operators(copies: int) -> np.ndarray:
    """The identity, the three linear Pauli operators and, for two copies,
    the nine sigma_i (x) sigma_k, stacked in that order."""
    eye = np.eye(2)
    if copies == 1:
        linear, quadratic = list(PAULIS), []
    else:
        linear = [np.kron(s, eye) + np.kron(eye, s) for s in PAULIS]
        quadratic = [np.kron(si, sk) for si in PAULIS for sk in PAULIS]
    return np.stack([np.eye(2 ** copies, dtype=complex)] + linear + quadratic)


_MODEL_OPERATORS = {copies: _model_operators(copies) for copies in (1, 2)}


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Exact outcome-probability model p_j = q0_j + G_j . theta + theta' Q_j theta.

    sum_tol is the accepted deviation of sum(p) from one: PROB_SUM_TOL, or
    the dimension times the POVM's completeness budget where that is
    larger, since the completeness rounding of the four-decimal reference
    measurements leaks into the sum. S = Q + Q' (so that
    dp_j/dtheta = G_j + S_j theta) and the origin linear design are
    computed on first use: a POVM that is not informationally complete
    has probabilities but no design.
    """

    q0: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    sum_tol: float

    def probabilities(self, theta) -> np.ndarray:
        return self.q0 + self.G @ theta + np.einsum("jik,i,k->j", self.Q, theta, theta)

    def checked_probabilities(self, theta) -> np.ndarray:
        """probabilities(theta) with sub-tolerance negatives clipped to zero.

        Raises ValueError when a probability is below -PROB_NEGATIVE_TOL or
        their sum misses one by more than sum_tol.
        """
        p = self.probabilities(theta)
        if p.min() < -PROB_NEGATIVE_TOL:
            raise ValueError(f"negative outcome probability {p.min():.3e}")
        p = np.clip(p, 0.0, 1.0)
        if abs(p.sum() - 1.0) > self.sum_tol:
            raise ValueError(f"outcome probabilities sum to {p.sum():.6f}")
        return p

    def jacobian(self, theta) -> np.ndarray:
        """d p_j / d theta_i as an (n_outcomes, 3) array."""
        return self.G + np.einsum("jik,k->ji", self.S, theta)

    @functools.cached_property
    def S(self) -> np.ndarray:
        return self.Q + np.transpose(self.Q, (0, 2, 1))

    @functools.cached_property
    def design(self) -> np.ndarray:
        """Coefficient matrix of the best linear unbiased estimator at the origin.

        theta_hat = design @ (counts / shots). It inverts the origin Fisher
        information against the outcome Jacobian G, so the estimator is
        unbiased at theta = 0 for any informationally complete POVM. For
        the weight-adapted optimal measurements this reduces to the
        familiar difference-of-counts form.
        """
        mask = self.q0 > FISHER_PROB_CUTOFF
        scaled = np.zeros_like(self.G)
        scaled[mask] = self.G[mask] / self.q0[mask, None]
        fisher = self.G[mask].T @ scaled[mask]
        try:
            inv = np.linalg.inv(fisher)
        except np.linalg.LinAlgError:
            raise ValueError(
                "POVM is not informationally complete at the origin"
            ) from None
        return inv @ scaled.T


def quadratic_probability_model(povm: Povm) -> QuadraticModel:
    """The QuadraticModel of a POVM on its one or two copies.

    The one- and two-copy states are polynomial in the Bloch vector, so
    the outcome probabilities are affine (one copy) or quadratic (two
    copies) in theta with coefficients Tr[E_j B] / dim over the identity,
    the Pauli operators sum_c sigma_i^(c) and, for two copies, the
    sigma_i (x) sigma_k. All of them come from one batched product of the
    element stack with the operator stack, which is built once per copy
    count. Q is zero for one copy. Raises ValueError for a POVM on
    neither one nor two qubits.
    """
    copies = povm.copies
    elements = np.array(povm.elements)
    coeffs = np.trace(elements[:, None] @ _MODEL_OPERATORS[copies],
                      axis1=2, axis2=3).real / povm.dim
    # contiguous copies, not strided views into coeffs
    if copies == 1:
        Q = np.zeros((len(coeffs), 3, 3))
    else:
        Q = coeffs[:, 4:].reshape(-1, 3, 3).copy()
    return QuadraticModel(coeffs[:, 0].copy(), coeffs[:, 1:4].copy(), Q,
                          max(PROB_SUM_TOL, povm.dim * povm.completeness_tol))


def outcome_probabilities(theta: BlochVector, povm: Povm) -> np.ndarray:
    """Born probabilities Tr[rho Pi_j] of the state theta on the POVM's
    copies, checked and clipped by QuadraticModel.checked_probabilities."""
    return quadratic_probability_model(povm).checked_probabilities(theta.array)


@dataclass(frozen=True)
class FisherMatrix:
    """Classical Fisher information of a POVM at one state, per measurement."""

    matrix: np.ndarray
    copies: int

    def inverse(self) -> np.ndarray:
        try:
            return np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError:
            raise SingularFisherError(
                "Fisher information matrix is singular"
            ) from None

    def weighted_trace_inverse(self, weights: WeightSpec,
                               normalization: str = "per_measurement") -> float:
        """Tr[W F^-1], optionally rescaled to the per-qubit convention."""
        val = float(np.trace(weights.matrix @ self.inverse()).real)
        return convert_normalization(val, self.copies, "per_measurement", normalization)


def classical_fisher(theta: BlochVector, povm: Povm) -> FisherMatrix:
    """Classical Fisher information F_ik = sum_j dp_ji dp_jk / p_j at theta.

    Outcomes with p_j <= cutoff contribute nothing only if their derivatives
    also vanish; otherwise the Fisher information is singular at this point.
    The result is checked against the quantum information: F <= copies * J
    in the PSD order, with slack scaled to the POVM's completeness budget.
    """
    model = quadratic_probability_model(povm)
    p = model.checked_probabilities(theta.array)
    dp = model.jacobian(theta.array)
    kept = p > FISHER_PROB_CUTOFF
    lost = np.flatnonzero(~kept & (np.abs(dp).max(axis=1) > np.sqrt(FISHER_PROB_CUTOFF)))
    if lost.size:
        j = lost[0]
        raise SingularFisherError(
            f"outcome {j} has probability {p[j]:.2e} but derivative "
            f"{np.abs(dp[j]).max():.2e}"
        )
    root = dp[kept] / np.sqrt(p[kept, None])
    F = root.T @ root
    if theta.norm < 1.0 - INTERIOR_MARGIN:
        tol = max(PSD_TOL, povm.completeness_tol)
        if np.linalg.eigvalsh(povm.copies * qfi(theta) - F)[0] < -tol:
            raise ValueError(
                f"classical Fisher information of '{povm.name}' exceeds the "
                f"quantum limit beyond tolerance {tol:.1e}"
            )
    return FisherMatrix(matrix=F, copies=povm.copies)
