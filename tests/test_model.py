import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtradeoff.model import (
    PAULIS,
    BlochVector,
    density_matrix,
    model_point,
    qfi,
    qfi_inverse,
    sld_operators,
)


def random_interior_theta(rng, rmax=0.9):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return BlochVector(*(v * rng.uniform(0.0, rmax)))


def lyapunov_sld(theta):
    """Independent SLD route: solve rho L + L rho = 2 drho as a linear system."""
    rho = density_matrix(theta)
    eye = np.eye(2)
    a = np.kron(rho, eye) + np.kron(eye, rho.T)
    slds = []
    for sigma in PAULIS:
        drho = sigma / 2.0
        vec = np.linalg.solve(a, 2.0 * drho.reshape(-1))
        slds.append(vec.reshape(2, 2))
    return slds


def sld_defining_residual(theta):
    """Max residual of the SLD defining (Lyapunov) equation over the 3 parameters."""
    rho = density_matrix(theta)
    return max(
        float(np.abs(0.5 * (L @ rho + rho @ L) - 0.5 * sigma).max())
        for L, sigma in zip(sld_operators(theta), PAULIS)
    )


def qfi_from_slds(theta):
    """QFI via J_ij = Tr[rho (L_i L_j + L_j L_i)]/2 (cross-check route)."""
    rho = density_matrix(theta)
    slds = sld_operators(theta)
    return np.array([
        [0.5 * np.trace(rho @ (a @ b + b @ a)).real for b in slds] for a in slds
    ])


def test_bloch_vector_validation():
    BlochVector(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BlochVector(0.0, 0.0, 2.0)
    assert BlochVector.from_sequence([0.1, 0.2, 0.3]).norm == pytest.approx(
        np.sqrt(0.14)
    )


def test_density_matrix_basics():
    theta = BlochVector(0.2, -0.1, 0.4)
    rho = density_matrix(theta)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    vals = np.linalg.eigvalsh(rho)
    assert vals.min() > 0


def test_qfi_origin_identity():
    assert np.abs(qfi(BlochVector(0, 0, 0)) - np.eye(3)).max() < 1e-12


def test_qfi_closed_form():
    theta = BlochVector(0.3, 0.2, -0.4)
    arr = theta.array
    r2 = arr @ arr
    expected = np.eye(3) + np.outer(arr, arr) / (1.0 - r2)
    assert np.abs(qfi(theta) - expected).max() < 1e-12


def test_qfi_inverse_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = random_interior_theta(rng)
        j = qfi(theta)
        jinv = qfi_inverse(theta)
        assert np.abs(j @ jinv - np.eye(3)).max() < 1e-11
        arr = theta.array
        assert np.abs(jinv - (np.eye(3) - np.outer(arr, arr))).max() < 1e-12


def test_qfi_determinant_scaling():
    rng = np.random.default_rng(1)
    for _ in range(10):
        theta = random_interior_theta(rng)
        det = np.linalg.det(qfi(theta))
        assert abs(det * (1.0 - theta.norm ** 2) - 1.0) < 1e-10


def test_sld_defining_equation():
    rng = np.random.default_rng(2)
    for _ in range(25):
        theta = random_interior_theta(rng)
        assert sld_defining_residual(theta) < 1e-10


def test_sld_matches_lyapunov_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        theta = random_interior_theta(rng)
        closed = sld_operators(theta)
        solved = lyapunov_sld(theta)
        for a, b in zip(closed, solved):
            assert np.abs(a - b).max() < 1e-10


def test_qfi_from_slds_consistent():
    rng = np.random.default_rng(4)
    for _ in range(10):
        theta = random_interior_theta(rng)
        assert np.abs(qfi(theta) - qfi_from_slds(theta)).max() < 1e-10


def test_sld_rejects_boundary():
    with pytest.raises(ValueError):
        sld_operators(BlochVector(0.0, 0.0, 1.0))


def test_model_point_one_copy_derivatives():
    theta = BlochVector(0.1, 0.2, 0.3)
    point = model_point(theta)
    assert point.copies == 1
    assert point.dim == 2
    h = 1e-6
    arr = theta.array
    for i in range(3):
        shift = np.zeros(3)
        shift[i] = h
        num = (
            density_matrix(BlochVector(*(arr + shift)))
            - density_matrix(BlochVector(*(arr - shift)))
        ) / (2 * h)
        assert np.abs(point.drho[i] - num).max() < 1e-9


def test_model_point_two_copy_derivatives():
    theta = BlochVector(0.2, -0.3, 0.1)
    point = model_point(theta, copies=2)
    assert point.dim == 4
    rho1 = density_matrix(theta)
    assert np.abs(point.rho - np.kron(rho1, rho1)).max() < 1e-14
    h = 1e-6
    arr = theta.array
    for i in range(3):
        shift = np.zeros(3)
        shift[i] = h
        rp = density_matrix(BlochVector(*(arr + shift)))
        rm = density_matrix(BlochVector(*(arr - shift)))
        num = (np.kron(rp, rp) - np.kron(rm, rm)) / (2 * h)
        assert np.abs(point.drho[i] - num).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(
        st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)
    )
)
def test_density_matrix_positive(vals):
    rho = density_matrix(BlochVector(*vals))
    assert np.linalg.eigvalsh(rho).min() >= 0.0
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_check_sld_contract_smoke():
    assert sld_defining_residual(BlochVector(0.1, 0.1, 0.1)) <= 1e-10
