"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and states its tolerance and runtime budget
inline; `pytest -v tests/test_acceptance.py` prints one line per
criterion.
"""

import filecmp
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from qtradeoff.bounds import (
    convert_normalization,
    holevo,
    nhcrb_analytic,
    nhcrb_sdp,
)
from qtradeoff.estimation import (
    DEMO_SHOTS,
    DEMO_THETAS,
    ORIGIN_SHOTS,
    ShotPlan,
    run_experiment,
)
from qtradeoff.model import (
    BlochVector,
    model_point,
    qfi,
    sld_operators,
)
from qtradeoff.povm import (
    WeightSpec,
    classical_fisher,
    reference_povm,
    single_copy_optimal,
    two_copy_optimal,
)
from qtradeoff.tradeoff import (
    MsePoint,
    integer_weight_triples,
    single_copy_surface_residual,
    surface_scan,
    two_copy_surface_residual,
)

SEED = 42


def random_weights(rng, low=0.05):
    w = rng.uniform(low, 1.0, size=3)
    return WeightSpec(*(w / w.sum()))


def test_criterion_01_qfi_identity_at_origin():
    # warm the code path, then time the call itself
    qfi(BlochVector(0, 0, 0))
    start = time.perf_counter()
    J = qfi(BlochVector(0, 0, 0))
    elapsed = time.perf_counter() - start
    assert np.abs(J - np.eye(3)).max() <= 1e-12
    assert elapsed < 1e-3


def test_criterion_02_sld_residuals():
    rng = np.random.default_rng(SEED)
    eye = np.eye(2, dtype=complex)
    start = time.perf_counter()
    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        theta = BlochVector(*(direction * rng.uniform(0.0, 0.9)))
        point = model_point(theta)
        slds = sld_operators(theta)
        # independent route: solve the defining Lyapunov equation directly
        a = np.kron(point.rho, eye) + np.kron(eye, point.rho.T)
        for i in range(3):
            residual = 0.5 * (slds[i] @ point.rho + point.rho @ slds[i]) - point.drho[i]
            assert np.abs(residual).max() <= 1e-10
            vec = np.linalg.solve(a, 2.0 * point.drho[i].reshape(-1))
            assert np.abs(slds[i] - vec.reshape(2, 2)).max() <= 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_03_analytic_bounds_and_sdp_origin():
    start = time.perf_counter()
    unit = WeightSpec(1, 1, 1)
    origin = BlochVector(0, 0, 0)
    one, two = model_point(origin, 1), model_point(origin, 2)
    assert abs(nhcrb_analytic(one, unit).to("per_measurement").value - 9.0) <= 1e-12
    assert abs(nhcrb_analytic(two, unit).to("per_measurement").value - 3.0) <= 1e-12
    assert abs(nhcrb_analytic(two, unit).value - 6.0) <= 1e-12
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        w = random_weights(rng)
        for copies in (1, 2):
            point = model_point(origin, copies)
            want = nhcrb_analytic(point, w).to("per_measurement").value
            got = nhcrb_sdp(point, w).to("per_measurement")
            assert abs(got.value - want) / want <= 1e-5
            assert got.gap <= 1e-6
    assert time.perf_counter() - start < 30.0


def test_criterion_04_reference_povm_matches_sdp():
    start = time.perf_counter()
    theta = BlochVector(0.3, 0.3, 0.3)
    w = WeightSpec.from_integers((1, 2, 3))
    for copies in (1, 2):
        point = model_point(theta, copies)
        fisher = classical_fisher(theta, reference_povm(copies))
        measured = fisher.weighted_trace_inverse(w, "per_measurement")
        bound = nhcrb_sdp(point, w).to("per_measurement").value
        assert abs(measured - bound) <= 2e-3
    assert time.perf_counter() - start < 10.0


def test_criterion_05_tangency_sweep():
    rng = np.random.default_rng(SEED)
    origin = model_point(BlochVector(0, 0, 0))
    origin2 = model_point(BlochVector(0, 0, 0), copies=2)
    for _ in range(100):
        w = random_weights(rng)
        f1 = classical_fisher(origin.theta, single_copy_optimal(w))
        mse1 = convert_normalization(f1.inverse(), f1.copies, "per_measurement", "per_qubit")
        v1 = np.diag(mse1).real
        assert abs(single_copy_surface_residual(MsePoint(*v1))) <= 1e-9
        wt1 = f1.weighted_trace_inverse(w, "per_measurement")
        c1 = nhcrb_analytic(origin, w).to("per_measurement").value
        assert abs(wt1 - c1) <= 1e-10

        f2 = classical_fisher(origin2.theta, two_copy_optimal(w))
        mse2 = convert_normalization(f2.inverse(), f2.copies, "per_measurement", "per_qubit")
        v2 = np.diag(mse2).real
        assert abs(two_copy_surface_residual(MsePoint(*v2))) <= 1e-9
        wt2 = f2.weighted_trace_inverse(w, "per_measurement")
        c2 = nhcrb_analytic(origin2, w).to("per_measurement").value
        assert abs(wt2 - c2) <= 1e-10


def test_criterion_06_surface_landmarks():
    assert abs(single_copy_surface_residual(MsePoint(3, 3, 3))) <= 1e-12
    assert abs(two_copy_surface_residual(MsePoint(2, 2, 2))) <= 1e-12
    # (1,1,1) is on neither surface but sits at the Holevo value
    corner = MsePoint(1, 1, 1)
    assert abs(single_copy_surface_residual(corner)) > 0.1
    assert abs(two_copy_surface_residual(corner)) > 0.1
    holevo_unit = holevo(model_point(BlochVector(0, 0, 0)), WeightSpec(1, 1, 1)).value
    assert abs(corner.array.sum() - holevo_unit) <= 1e-12

    # the two-parameter relation (V_i - 1)(V_j - 1) >= 1 at the single-copy
    # tangent points, the per-qubit diag(F^-1) of the weight-adapted
    # measurements
    rng = np.random.default_rng(SEED)
    samples = [w for _, w in integer_weight_triples()]
    samples += [random_weights(rng) for _ in range(50)]
    origin = BlochVector(0, 0, 0)
    for w in samples:
        fisher = classical_fisher(origin, single_copy_optimal(w))
        v = convert_normalization(np.diag(fisher.inverse()), 1, "per_measurement", "per_qubit")
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert (v[i] - 1.0) * (v[j] - 1.0) >= 1.0 - 1e-9
    # and at the surface scan's tangent points, the gradients of the bound
    for p in surface_scan(origin, 1, samples).vertices:
        v = p.array
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert (v[i] - 1.0) * (v[j] - 1.0) >= 1.0 - 1e-9


def test_criterion_07_origin_trade_off_violation():
    start = time.perf_counter()
    origin = BlochVector(0, 0, 0)
    zs = []
    for _, w in integer_weight_triples():
        plan = ShotPlan(origin, two_copy_optimal(w), ORIGIN_SHOTS, 1000, SEED)
        rep = run_experiment(plan, w, estimator="linear")
        c2 = rep.metadata["two_copy_bound_per_qubit"]
        assert abs(rep.weighted_trace - c2) <= 3 * rep.standard_error
        zs.append(rep.metadata["z_vs_single_copy"])
    pooled = sum(zs) / np.sqrt(len(zs))
    assert pooled > 5.0
    assert time.perf_counter() - start < 120.0


def test_criterion_08_state_sweep_with_mle():
    start = time.perf_counter()
    grid = integer_weight_triples()
    for t, shots in zip(DEMO_THETAS, DEMO_SHOTS):
        theta = BlochVector(t, t, t)
        for u, w in grid:
            plan = ShotPlan(theta, two_copy_optimal(w), shots, 1000, SEED)
            rep = run_experiment(plan, w, estimator="mle")
            b2 = nhcrb_sdp(model_point(theta, 2), w).value
            assert rep.weighted_trace >= b2 - 3 * rep.standard_error
            if u == (1, 1, 1) and t <= 0.3:
                b1 = nhcrb_sdp(model_point(theta, 1), w).value
                assert rep.weighted_trace < b1
    assert time.perf_counter() - start < 600.0


def test_criterion_09_eigenstate_mixing():
    values = np.linalg.eigvalsh(model_point(BlochVector(0.3, 0.3, 0.3), copies=2).rho)
    quoted = np.array([0.0577, 0.1825, 0.1825, 0.5773])
    assert np.abs(values - quoted).max() <= 1e-3

    published = [
        np.array([-0.2113j, 0.2887 * (1j - 1), 0.2887 * (1j - 1), 0.7887]),
        np.array([-0.4757j, 0.1617 + 0.2093j, -0.6375 + 0.2665j, -0.4757]),
        np.array([-0.3271j, -0.7447 + 0.2051j, 0.4176 + 0.1220j, -0.3271]),
        np.array([0.7887j, 0.2887 * (1j - 1), 0.2887 * (1j - 1), -0.2113]),
    ]
    rho2 = model_point(BlochVector(0.3, 0.3, 0.3), copies=2).rho
    for vec in published:
        v = vec / np.linalg.norm(vec)
        rayleigh = (v.conj() @ rho2 @ v).real
        assert np.linalg.norm(rho2 @ v - rayleigh * v) <= 1e-3


def test_criterion_10_reproduce_determinism(tmp_path):
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        subprocess.run(
            [
                sys.executable, "-m", "qtradeoff.cli", "reproduce",
                "--seed", "42", "--out", str(d),
            ],
            check=True,
        )
    names = ["trade_off_demo.csv", "sweep.csv", "summary.json"]
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    assert match == names
    assert not mismatch and not errors
    summary = json.loads((dirs[0] / "summary.json").read_text())
    assert summary["seed"] == 42
    assert summary["trade_off_demo"]["pooled_z_vs_single_copy"] > 5.0
    assert summary["trade_off_demo"]["all_below_single_copy"] is True
