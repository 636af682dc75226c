"""Small dense complex linear algebra helpers.

Matrices are plain complex numpy arrays; eigendecompositions come from
numpy.linalg. This module adds the input validation on top.
"""

from __future__ import annotations

import numpy as np

from .constants import HERMITICITY_TOL, PSD_TOL


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its stopping criterion.

    `iterate` is the last iterate the routine trusted when it stopped, or
    None: for solve_lmi, the pair (y, Z) whose S and Z last passed Cholesky.
    """

    def __init__(self, message: str, iterate=None):
        super().__init__(message)
        self.iterate = iterate


def require_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate that `a` is square and Hermitian; returns `a` as complex array.

    The deviation max|A - A^dag| is compared against tol * max(1, max|A|).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    dev = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
    if dev > tol * scale:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    return a


def is_psd(a: np.ndarray, tol: float = PSD_TOL) -> bool:
    """Whether the Hermitian matrix `a` has min eigenvalue >= -tol."""
    vals = np.linalg.eigvalsh(require_hermitian(a))
    return bool(vals.size == 0 or vals[0] >= -tol)
