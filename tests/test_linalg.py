import numpy as np
import pytest

from qtradeoff import linalg


def test_require_hermitian_accepts_and_rejects():
    a = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    linalg.require_hermitian(a)
    with pytest.raises(ValueError):
        linalg.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd():
    assert linalg.is_psd(np.eye(3))
    assert linalg.is_psd(np.zeros((2, 2)))
    assert not linalg.is_psd(np.diag([1.0, -1e-3]))
    # tiny negative within tolerance counts as psd
    assert linalg.is_psd(np.diag([1.0, -1e-12]), tol=1e-9)
    # sigma_x has eigenvalues +-1; shifting by the identity makes it psd
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert not linalg.is_psd(sx)
    assert linalg.is_psd(sx + np.eye(2))
    assert not linalg.is_psd(np.diag([2.0, 2.0, -1.0]))
    # eigvalsh reads one triangle only, so a non-Hermitian input must be
    # rejected before it is diagonalized rather than read as the identity
    with pytest.raises(ValueError):
        linalg.is_psd(np.array([[1.0, 5.0], [0.0, 1.0]]))
