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
_PAULI_STACK = np.array(PAULIS)
IDENTITY_2 = np.eye(2, dtype=complex)

AXIS_LABELS = ("x", "y", "z")


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


def model_point(theta: BlochVector, copies: int = 1) -> ModelPoint:
    """State and parameter derivatives for one or two copies, built per call."""
    if copies not in (1, 2):
        raise ValueError(f"copies must be 1 or 2, got {copies}")
    rho = density_matrix(theta)
    if copies == 1:
        drho = 0.5 * _PAULI_STACK
    else:
        # a (x) b as the broadcast product a[i, j] b[k, l] laid out at
        # (2i + k, 2j + l): np.kron's products, without its per-call set-up
        left = (_PAULI_STACK[:, :, None, :, None] * rho[None, None, :, None, :]).reshape(3, 4, 4)
        right = (rho[None, :, None, :, None] * _PAULI_STACK[:, None, :, None, :]).reshape(3, 4, 4)
        drho = 0.5 * (left + right)
        rho = (rho[:, None, :, None] * rho[None, :, None, :]).reshape(4, 4)
    return ModelPoint(theta=theta, copies=copies, rho=rho, drho=tuple(drho))
