import json

import numpy as np
import pytest

from qtradeoff.bounds import convert_normalization, nhcrb_analytic
from qtradeoff.cli import _complex_matrix_json
from qtradeoff.constants import PSD_TOL
from qtradeoff.model import PAULIS, BlochVector, model_point, qfi
from qtradeoff.povm import (
    Povm,
    SingularFisherError,
    WeightSpec,
    classical_fisher,
    outcome_probabilities,
    quadratic_probability_model,
    reference_povm,
    sic_two_copy,
    single_copy_optimal,
    two_copy_alpha,
    two_copy_optimal,
)
from qtradeoff.tradeoff import integer_weight_triples

ORIGIN = BlochVector(0, 0, 0)
ORIGIN_1 = model_point(ORIGIN)
ORIGIN_2 = model_point(ORIGIN, copies=2)


def random_weights(rng):
    w = rng.uniform(0.05, 1.0, size=3)
    return WeightSpec(*(w / w.sum()))


def _model_by_element(povm, copies):
    """(q0, G, Q) from one Pauli trace per element and operator."""
    eye = np.eye(2)
    if copies == 1:
        linear, scale = PAULIS, 2
    else:
        linear, scale = [np.kron(s, eye) + np.kron(eye, s) for s in PAULIS], 4
    n = povm.n_outcomes
    q0 = np.array([np.trace(e).real / scale for e in povm.elements])
    G = np.array([[np.trace(e @ op).real / scale for op in linear] for e in povm.elements])
    Q = np.zeros((n, 3, 3))
    if copies == 2:
        for j, e in enumerate(povm.elements):
            for i in range(3):
                for k in range(3):
                    Q[j, i, k] = np.trace(e @ np.kron(PAULIS[i], PAULIS[k])).real / 4
    return q0, G, Q


def test_batched_quadratic_model_equals_the_per_element_traces():
    for _, w in integer_weight_triples():
        for copies, povm in ((1, single_copy_optimal(w)), (2, two_copy_optimal(w)),
                             (2, sic_two_copy()), (1, reference_povm(1)),
                             (2, reference_povm(2))):
            got = quadratic_probability_model(povm)
            for a, b in zip((got.q0, got.G, got.Q), _model_by_element(povm, copies)):
                assert np.array_equal(a, b)


def test_weight_spec_basics():
    w = WeightSpec.from_integers((1, 2, 3))
    assert np.allclose(w.array, np.array([1.0, 4.0, 9.0]) / 14.0)
    arr = WeightSpec(2, 2, 2).array
    assert np.allclose(arr / arr.sum(), np.ones(3) / 3)
    assert np.allclose(WeightSpec(0.2, 0.5, 0.3).matrix, np.diag([0.2, 0.5, 0.3]))


def test_weight_spec_zero_allowed_but_gated():
    w = WeightSpec(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        w.require_positive()
    with pytest.raises(ValueError):
        WeightSpec(-0.1, 0.5, 0.6)
    with pytest.raises(ValueError):
        WeightSpec(0.0, 0.0, 0.0)


def test_single_copy_completeness_and_psd():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = single_copy_optimal(random_weights(rng))
        assert p.n_outcomes == 6
        assert p.completeness_deviation() < 1e-12
        for el in p.elements:
            assert np.linalg.eigvalsh(el)[0] >= -1e-12


def test_two_copy_completeness_and_psd():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = two_copy_optimal(random_weights(rng))
        assert p.n_outcomes == 7
        assert p.completeness_deviation() < 1e-12
        for el in p.elements:
            assert np.linalg.eigvalsh(el)[0] >= -1e-12


def test_single_copy_probabilities_closed_form():
    w = WeightSpec.from_integers((1, 2, 3))
    theta = BlochVector(0.2, -0.1, 0.3)
    p = outcome_probabilities(theta, single_copy_optimal(w))
    root = np.sqrt(w.array)
    a2 = root / root.sum()
    arr = theta.array
    expected = []
    for i in range(3):
        expected += [a2[i] * (1 + arr[i]) / 2, a2[i] * (1 - arr[i]) / 2]
    assert np.abs(p - np.array(expected)).max() < 1e-12


def test_two_copy_origin_probabilities():
    w = WeightSpec.from_integers((1, 2, 3))
    povm = two_copy_optimal(w)
    p = outcome_probabilities(ORIGIN, povm)
    assert abs(p.sum() - 1.0) < 1e-12
    assert abs(p[-1] - 0.25) < 1e-12  # singlet weight at the origin
    # pair outcomes (a^2 + b^2)/8 from the amplitude parametrization
    alpha = two_copy_alpha(w)
    plus, minus = alpha[:, 0], alpha[:, 1]
    a2b2 = (plus ** 2 + minus ** 2) / 2.0
    for i in range(3):
        assert abs(p[2 * i] - a2b2[i] / 8.0) < 1e-12
        assert abs(p[2 * i + 1] - a2b2[i] / 8.0) < 1e-12


def test_sic_origin_probabilities():
    p = outcome_probabilities(ORIGIN, sic_two_copy())
    assert np.abs(p - np.array([3 / 16, 3 / 16, 3 / 16, 3 / 16, 1 / 4])).max() < 1e-12


def test_probability_derivatives_finite_difference():
    w = WeightSpec.from_integers((2, 1, 3))
    for povm in (single_copy_optimal(w), two_copy_optimal(w), sic_two_copy()):
        theta = np.array([0.15, -0.2, 0.25])
        dp = quadratic_probability_model(povm).jacobian(theta)
        h = 1e-6
        for i in range(3):
            shift = np.zeros(3)
            shift[i] = h
            pp = outcome_probabilities(BlochVector(*(theta + shift)), povm)
            pm = outcome_probabilities(BlochVector(*(theta - shift)), povm)
            num = (pp - pm) / (2 * h)
            assert np.abs(dp[:, i] - num).max() < 1e-8


def test_single_copy_fisher_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = random_weights(rng)
        F = classical_fisher(ORIGIN, single_copy_optimal(w)).matrix
        root = np.sqrt(w.array)
        assert np.abs(F - np.diag(root / root.sum())).max() < 1e-12


def test_two_copy_fisher_closed_form():
    rng = np.random.default_rng(10)
    for _ in range(20):
        w = random_weights(rng)
        F = classical_fisher(ORIGIN, two_copy_optimal(w)).matrix
        root = np.sqrt(w.array)
        expected = np.diag(4.0 * root / (root.sum() + root))
        assert np.abs(F - expected).max() < 1e-10


def test_optimal_povms_saturate_origin_bounds():
    rng = np.random.default_rng(11)
    for _ in range(25):
        w = random_weights(rng)
        f1 = classical_fisher(ORIGIN, single_copy_optimal(w))
        wt1 = f1.weighted_trace_inverse(w, "per_measurement")
        assert abs(wt1 - nhcrb_analytic(ORIGIN_1, w).to("per_measurement").value) < 1e-10
        f2 = classical_fisher(ORIGIN, two_copy_optimal(w))
        wt2 = f2.weighted_trace_inverse(w, "per_measurement")
        assert abs(wt2 - nhcrb_analytic(ORIGIN_2, w).to("per_measurement").value) < 1e-10


def test_fisher_normalizations():
    w = WeightSpec(*(np.ones(3) / 3))
    f2 = classical_fisher(ORIGIN, two_copy_optimal(w))
    pm = f2.weighted_trace_inverse(w, "per_measurement")
    pq = f2.weighted_trace_inverse(w, "per_qubit")
    assert abs(pq - 2.0 * pm) < 1e-12
    with pytest.raises(ValueError):
        f2.weighted_trace_inverse(w, "per_shot")
    inv = f2.inverse()
    assert np.abs(inv @ f2.matrix - np.eye(3)).max() < 1e-12
    mse = convert_normalization(inv, f2.copies, "per_measurement", "per_qubit")
    assert np.abs(mse - 2.0 * np.linalg.inv(f2.matrix)).max() < 1e-12


def test_fisher_never_exceeds_quantum_limit():
    rng = np.random.default_rng(12)
    thetas = [BlochVector(0, 0, 0), BlochVector(0.3, 0.3, 0.3), BlochVector(0.1, -0.4, 0.2)]
    for theta in thetas:
        for copies, povm in (
            (1, single_copy_optimal(random_weights(rng))),
            (2, two_copy_optimal(random_weights(rng))),
            (2, sic_two_copy()),
        ):
            F = classical_fisher(theta, povm)
            gap = copies * qfi(theta) - F.matrix
            assert np.linalg.eigvalsh(gap)[0] >= -1e-9


def test_fisher_above_the_quantum_limit_is_rejected():
    # E+- = (I +- 1.5 sigma_x)/2 is no POVM (an element has eigenvalue -0.25),
    # and its F_xx = 2.25 at the origin exceeds J_xx = 1
    sx = PAULIS[0]
    elements = tuple(0.5 * (np.eye(2) + s * 1.5 * sx) for s in (1, -1))
    povm = Povm(elements, name="overshoot", labels=("+", "-"))
    with pytest.raises(ValueError, match="exceeds the quantum limit beyond tolerance 1.0e-09"):
        classical_fisher(ORIGIN, povm)


def test_singular_fisher_raises():
    z_projectors = (
        np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    )
    povm = Povm(z_projectors, name="z_basis", labels=("+z", "-z"))
    F = classical_fisher(ORIGIN, povm)
    with pytest.raises(SingularFisherError):
        F.weighted_trace_inverse(WeightSpec(1, 1, 1))


@pytest.mark.parametrize("copies, build, outcome", [(1, single_copy_optimal, 5),
                                                    (2, two_copy_optimal, 6)])
def test_fisher_names_a_vanishing_outcome_with_a_slope(copies, build, outcome):
    # at the pure state theta = (0, 0, 1) the -z outcome of one copy and the
    # singlet of two have probability 0 but a nonzero z derivative
    povm = build(WeightSpec(1, 4, 9))
    assert povm.copies == copies
    with pytest.raises(SingularFisherError, match=rf"^outcome {outcome} has probability 0\.00e\+00"):
        classical_fisher(BlochVector(0, 0, 1), povm)


def test_reference_povms_structure():
    single = reference_povm(1)
    assert single.name == "reference_single_copy"
    assert single.n_outcomes == 4
    assert single.dim == 2
    assert single.copies == 1
    assert single.completeness_deviation() < 2e-3
    two = reference_povm(2)
    assert two.name == "reference_two_copy"
    assert two.n_outcomes == 6
    assert two.dim == 4
    assert two.copies == 2
    assert two.completeness_deviation() < 2e-3
    for p in (single, two):
        for el in p.elements:
            assert np.linalg.eigvalsh(el)[0] >= -1e-12
    with pytest.raises(ValueError):
        reference_povm(3)


def validate(povm):
    """Raise ValueError unless the POVM is labelled, Hermitian, PSD and complete.

    Hermiticity: max |E - E^dag| within 1e-12 of max(1, max |E|); PSD: least
    eigenvalue at least -PSD_TOL; completeness within the POVM's own budget.
    """
    if len(povm.labels) != len(povm.elements):
        raise ValueError("labels and elements length mismatch")
    for el in povm.elements:
        if np.abs(el - el.conj().T).max() > 1e-12 * max(1.0, np.abs(el).max()):
            raise ValueError(f"POVM '{povm.name}' has a non-Hermitian element")
        if np.linalg.eigvalsh(el)[0] < -PSD_TOL:
            raise ValueError(f"POVM '{povm.name}' has a non-PSD element")
    if povm.completeness_deviation() > povm.completeness_tol:
        raise ValueError(f"POVM '{povm.name}' is incomplete")


def test_povm_validation_rejects_incomplete():
    half = (np.eye(2, dtype=complex) * 0.25,)
    with pytest.raises(ValueError):
        validate(Povm(half, name="broken", labels=("only",)))
    bad_labels = Povm((np.eye(2, dtype=complex),), name="broken", labels=("a", "b"))
    with pytest.raises(ValueError):
        validate(bad_labels)
    # complete, and PSD as eigvalsh reads it (one triangle), but not Hermitian
    skew = tuple(np.array([[0.5, s], [0.0, 0.5]], dtype=complex) for s in (0.5, -0.5))
    with pytest.raises(ValueError, match="non-Hermitian"):
        validate(Povm(skew, name="skew", labels=("a", "b")))
    rng = np.random.default_rng(3)
    for w in (WeightSpec(1, 1, 1), random_weights(rng)):
        validate(single_copy_optimal(w))
        validate(two_copy_optimal(w))
    validate(sic_two_copy())
    validate(reference_povm(1))
    validate(reference_povm(2))


def test_povm_json_round_trip():
    w = WeightSpec.from_integers((1, 2, 3))
    povm = two_copy_optimal(w)
    # the element encoding of the povm command's JSON, decoded again
    doc = json.loads(json.dumps([_complex_matrix_json(e) for e in povm.elements]))
    back = Povm(tuple(np.array(e)[..., 0] + 1j * np.array(e)[..., 1] for e in doc),
                name=povm.name, labels=povm.labels)
    assert back.name == povm.name
    assert back.labels == povm.labels
    for a, b in zip(back.elements, povm.elements):
        assert np.abs(a - b).max() < 1e-15

