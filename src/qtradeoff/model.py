"""Qubit statistical model: Bloch parametrization, SLDs, quantum Fisher information.

The model is rho(theta) = (I + theta . sigma)/2 for theta in the closed unit
ball, estimated either one qubit at a time (copies=1) or on pairs prepared in
rho tensor rho (copies=2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .constants import BLOCH_NORM_SLACK, INTERIOR_MARGIN

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_2 = np.eye(2, dtype=complex)

AXIS_LABELS = ("x", "y", "z")

NORMALIZATIONS = ("per_measurement", "per_qubit")


def _check_normalization(normalization: str) -> None:
    if normalization not in NORMALIZATIONS:
        raise ValueError(
            f"unknown normalization '{normalization}', expected one of {NORMALIZATIONS}"
        )


def convert_normalization(value, copies: int, src: str, dst: str):
    """Convert an error quantity between per-measurement and per-qubit conventions.

    A collective measurement on `copies` qubits consumes `copies` qubits per
    shot, so per_qubit = copies * per_measurement. `value` may be a scalar
    bound or an MSE matrix.
    """
    _check_normalization(src)
    _check_normalization(dst)
    if src == dst:
        return value
    return value * copies if dst == "per_qubit" else value / copies


@dataclass(frozen=True)
class BlochVector:
    """A point in the closed Bloch ball."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        arr = np.array([self.x, self.y, self.z], dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("Bloch components must be finite")
        if np.linalg.norm(arr) > 1.0 + BLOCH_NORM_SLACK:
            raise ValueError(f"Bloch vector norm {np.linalg.norm(arr):.6f} exceeds 1")

    @classmethod
    def from_sequence(cls, seq: Iterable[float]) -> "BlochVector":
        vals = [float(v) for v in seq]
        if len(vals) != 3:
            raise ValueError(f"expected 3 components, got {len(vals)}")
        return cls(*vals)

    @property
    def array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.array))


@dataclass(frozen=True)
class ModelPoint:
    """State, derivatives and copy count at one parameter value."""

    theta: BlochVector
    copies: int
    rho: np.ndarray
    drho: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def density_matrix(theta: BlochVector) -> np.ndarray:
    """Single-qubit density matrix (I + theta . sigma)/2."""
    t = theta.array
    return 0.5 * (IDENTITY_2 + t[0] * SIGMA_X + t[1] * SIGMA_Y + t[2] * SIGMA_Z)


def _require_interior(theta: BlochVector) -> None:
    if theta.norm >= 1.0 - INTERIOR_MARGIN:
        raise ValueError("state is too close to the Bloch sphere for derivative bounds")


def sld_operators(theta: BlochVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric logarithmic derivatives L_i solving d_i rho = (L_i rho + rho L_i)/2.

    Closed form: L_i = sigma_i + theta_i ((theta . sigma) - I)/(1 - |theta|^2),
    valid strictly inside the Bloch ball.
    """
    _require_interior(theta)
    t = theta.array
    r2 = float(t @ t)
    tsig = t[0] * SIGMA_X + t[1] * SIGMA_Y + t[2] * SIGMA_Z
    corr = (tsig - IDENTITY_2) / (1.0 - r2)
    return tuple(PAULIS[i] + t[i] * corr for i in range(3))


def qfi(theta: BlochVector) -> np.ndarray:
    """Single-qubit quantum Fisher information matrix.

    J = I + theta theta^T / (1 - |theta|^2). Its determinant is 1/(1 - |theta|^2)
    and its inverse is exactly I - theta theta^T.
    """
    _require_interior(theta)
    t = theta.array
    r2 = float(t @ t)
    return np.eye(3) + np.outer(t, t) / (1.0 - r2)


def qfi_inverse(theta: BlochVector) -> np.ndarray:
    """Inverse quantum Fisher information, I - theta theta^T."""
    _require_interior(theta)
    t = theta.array
    return np.eye(3) - np.outer(t, t)


def model_point(theta: BlochVector, copies: int = 1) -> ModelPoint:
    """Model state and parameter derivatives for one or two copies."""
    if copies not in (1, 2):
        raise ValueError(f"copies must be 1 or 2, got {copies}")
    rho = density_matrix(theta)
    if copies == 1:
        drho = tuple(0.5 * p for p in PAULIS)
        return ModelPoint(theta=theta, copies=1, rho=rho, drho=drho)
    rho2 = np.kron(rho, rho)
    drho = tuple(0.5 * (np.kron(p, rho) + np.kron(rho, p)) for p in PAULIS)
    return ModelPoint(theta=theta, copies=2, rho=rho2, drho=drho)
