import json

import numpy as np
import pytest

from qtradeoff import linalg
from qtradeoff.bounds import convert_normalization, nhcrb_analytic
from qtradeoff.cli import _complex_matrix_json
from qtradeoff.model import BlochVector, model_point, model_qfi
from qtradeoff.povm import (
    Povm,
    SingularFisherError,
    WeightSpec,
    classical_fisher,
    outcome_probabilities,
    probability_derivatives,
    reference_povm,
    sic_two_copy,
    single_copy_optimal,
    two_copy_alpha,
    two_copy_optimal,
)

ORIGIN_1 = model_point(BlochVector(0, 0, 0))
ORIGIN_2 = model_point(BlochVector(0, 0, 0), copies=2)


def random_weights(rng):
    w = rng.uniform(0.05, 1.0, size=3)
    return WeightSpec(*(w / w.sum()))


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
            assert linalg.is_psd(el, 1e-12)


def test_two_copy_completeness_and_psd():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = two_copy_optimal(random_weights(rng))
        assert p.n_outcomes == 7
        assert p.completeness_deviation() < 1e-12
        for el in p.elements:
            assert linalg.is_psd(el, 1e-12)


def test_single_copy_probabilities_closed_form():
    w = WeightSpec.from_integers((1, 2, 3))
    theta = BlochVector(0.2, -0.1, 0.3)
    p = outcome_probabilities(model_point(theta), single_copy_optimal(w))
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
    p = outcome_probabilities(ORIGIN_2, povm)
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
    p = outcome_probabilities(ORIGIN_2, sic_two_copy())
    assert np.abs(p - np.array([3 / 16, 3 / 16, 3 / 16, 3 / 16, 1 / 4])).max() < 1e-12


def test_probability_derivatives_finite_difference():
    w = WeightSpec.from_integers((2, 1, 3))
    for copies, povm in ((1, single_copy_optimal(w)), (2, two_copy_optimal(w)), (2, sic_two_copy())):
        theta = np.array([0.15, -0.2, 0.25])
        point = model_point(BlochVector(*theta), copies=copies)
        dp = probability_derivatives(point, povm)
        h = 1e-6
        for i in range(3):
            shift = np.zeros(3)
            shift[i] = h
            pp = outcome_probabilities(model_point(BlochVector(*(theta + shift)), copies=copies), povm)
            pm = outcome_probabilities(model_point(BlochVector(*(theta - shift)), copies=copies), povm)
            num = (pp - pm) / (2 * h)
            assert np.abs(dp[:, i] - num).max() < 1e-8


def test_single_copy_fisher_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = random_weights(rng)
        F = classical_fisher(ORIGIN_1, single_copy_optimal(w)).matrix
        root = np.sqrt(w.array)
        assert np.abs(F - np.diag(root / root.sum())).max() < 1e-12


def test_two_copy_fisher_closed_form():
    rng = np.random.default_rng(10)
    for _ in range(20):
        w = random_weights(rng)
        F = classical_fisher(ORIGIN_2, two_copy_optimal(w)).matrix
        root = np.sqrt(w.array)
        expected = np.diag(4.0 * root / (root.sum() + root))
        assert np.abs(F - expected).max() < 1e-10


def test_optimal_povms_saturate_origin_bounds():
    rng = np.random.default_rng(11)
    for _ in range(25):
        w = random_weights(rng)
        f1 = classical_fisher(ORIGIN_1, single_copy_optimal(w))
        wt1 = f1.weighted_trace_inverse(w, "per_measurement")
        assert abs(wt1 - nhcrb_analytic(ORIGIN_1, w).to("per_measurement").value) < 1e-10
        f2 = classical_fisher(ORIGIN_2, two_copy_optimal(w))
        wt2 = f2.weighted_trace_inverse(w, "per_measurement")
        assert abs(wt2 - nhcrb_analytic(ORIGIN_2, w).to("per_measurement").value) < 1e-10


def test_fisher_normalizations():
    w = WeightSpec(*(np.ones(3) / 3))
    f2 = classical_fisher(ORIGIN_2, two_copy_optimal(w))
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
            point = model_point(theta, copies=copies)
            F = classical_fisher(point, povm)
            gap = model_qfi(point) - F.matrix
            assert linalg.is_psd(gap, 1e-9)


def test_singular_fisher_raises():
    z_projectors = (
        np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    )
    povm = Povm(z_projectors, name="z_basis", labels=("+z", "-z"))
    F = classical_fisher(ORIGIN_1, povm)
    with pytest.raises(SingularFisherError):
        F.weighted_trace_inverse(WeightSpec(1, 1, 1))


def test_reference_povms_structure():
    single = reference_povm(1)
    assert single.name == "reference_single_copy"
    assert single.n_outcomes == 4
    assert single.dim == 2
    assert single.completeness_deviation() < 2e-3
    two = reference_povm(2)
    assert two.name == "reference_two_copy"
    assert two.n_outcomes == 6
    assert two.dim == 4
    assert two.completeness_deviation() < 2e-3
    for p in (single, two):
        for el in p.elements:
            assert linalg.is_psd(el, 1e-12)
    with pytest.raises(ValueError):
        reference_povm(3)


def test_povm_validation_rejects_incomplete():
    half = (np.eye(2, dtype=complex) * 0.25,)
    with pytest.raises(ValueError):
        Povm(half, name="broken", labels=("only",)).validate()
    bad_labels = Povm((np.eye(2, dtype=complex),), name="broken", labels=("a", "b"))
    with pytest.raises(ValueError):
        bad_labels.validate()
    rng = np.random.default_rng(3)
    for w in (WeightSpec(1, 1, 1), random_weights(rng)):
        single_copy_optimal(w).validate()
        two_copy_optimal(w).validate()
    sic_two_copy().validate()
    reference_povm(1).validate()
    reference_povm(2).validate()


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


def test_probabilities_reject_mismatched_point():
    with pytest.raises(ValueError):
        outcome_probabilities(ORIGIN_1, sic_two_copy())
