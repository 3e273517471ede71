"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line (visible with -s or -rA); the suite doubles
as the reproducibility script for the headline numbers.
"""

import csv
import math
import time

import numpy as np
import pytest
from oracles import run_abc_linearized_trials, solve_gauss

from phasetrack.bounds import (
    BoundQuery,
    abc_linearized_mse,
    filter_mse_power_law,
    filter_mse_quadrature,
    qcrb_power_law,
    qcrb_quadrature,
    smoother_mse_quadrature,
)
from phasetrack.cli import main
from phasetrack.lg import (
    build_lg_system,
    retro_covariance,
    riccati_residual,
    smoother_covariance,
    smoother_covariance_closed_form,
    solve_filter_covariance,
)
from phasetrack.phase_process import PhaseModel
from phasetrack.simulation import (
    default_config,
    run_abc_trials,
    simulate_filter_trials,
)

EVEN_P = list(range(2, 21, 2))

KNOWN_VT = {
    2: np.array([[1.0]]),
    4: np.array([[math.sqrt(2), 1.0], [1.0, math.sqrt(2)]]),
    6: np.array([[2.0, 2.0, 1.0], [2.0, 3.0, 2.0], [1.0, 2.0, 2.0]]),
}


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_riccati_closed_forms():
    start = time.monotonic()
    worst = 0.0
    for p, expected in KNOWN_VT.items():
        worst = max(worst, float(np.max(np.abs(solve_filter_covariance(p) - expected))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    _report(1, f"known covariances reproduced to {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_recurrence_and_retro_relations():
    start = time.monotonic()
    worst_res = worst_inv = worst_sign = worst_bisym = 0.0
    for p in EVEN_P:
        m = p // 2
        vt = solve_filter_covariance(p)
        vr = retro_covariance(vt)
        worst_res = max(worst_res, riccati_residual(vt))
        # Inverse relation as the product residual Vt_F Vt_R - I. (The
        # entrywise gap to the true inverse amplifies representation error
        # by |Vt^-1|^2 ~ 1e7 at p = 20, below float64 resolution of the
        # matrix itself, so it is checked only where it is attainable.)
        worst_inv = max(worst_inv, float(np.max(np.abs(vt @ vr - np.eye(m)))))
        if p <= 12:
            ref_inv = solve_gauss(vt.astype(np.longdouble), np.eye(m, dtype=np.longdouble)).astype(float)
            worst_inv = max(worst_inv, float(np.max(np.abs(vr - ref_inv))))
        signs = (-1.0) ** (np.arange(m)[:, None] + np.arange(m)[None, :])
        worst_sign = max(worst_sign, float(np.max(np.abs(vr - signs * vt))))
        worst_bisym = max(worst_bisym, float(np.max(np.abs(vt - vt.T))))
        worst_bisym = max(worst_bisym, float(np.max(np.abs(vt - vt[::-1, ::-1].T))))
    elapsed = time.monotonic() - start
    assert worst_res <= 1e-9
    assert worst_inv <= 1e-9
    assert worst_sign <= 1e-9
    assert worst_bisym <= 1e-12
    assert elapsed < 5.0
    _report(
        2,
        f"p in [2,20]: residual {worst_res:.2e}, inverse {worst_inv:.2e}, "
        f"sign relation {worst_sign:.2e}, bisymmetry {worst_bisym:.2e} in {elapsed:.2f}s",
    )


def test_criterion_3_smoother_closed_form():
    worst = 0.0
    worst_phase = 0.0
    for p in EVEN_P:
        vt = solve_filter_covariance(p)
        vs_sum = smoother_covariance(vt, retro_covariance(vt))
        vs_closed = smoother_covariance_closed_form(p)
        worst = max(worst, float(np.max(np.abs(vs_sum - vs_closed))))
        worst_phase = max(worst_phase, abs(vs_closed[-1, -1] * p * math.sin(math.pi / p) - 1.0))
    assert worst <= 1e-9
    assert worst_phase <= 1e-9
    _report(3, f"closed form vs information sum {worst:.2e}, phase-entry identity {worst_phase:.2e}")


def test_criterion_4_bound_identities():
    start = time.monotonic()
    expected = {2: (0.05, 0.1), 4: (0.0111803, 0.0447214)}
    for p, (qcrb_val, filt_val) in expected.items():
        flux = 25.0  # kappa = 1 so 4N/kappa = 100
        q = BoundQuery(PhaseModel(p, 1.0), flux)
        qc = qcrb_power_law(p, 1.0, flux)
        fc = filter_mse_power_law(p, 1.0, flux)
        assert qc == pytest.approx(qcrb_val, abs=5e-8)
        assert fc == pytest.approx(filt_val, abs=5e-8)
        assert qcrb_quadrature(q)[0] == pytest.approx(qc, rel=1e-3)
        assert filter_mse_quadrature(q)[0] == pytest.approx(fc, rel=1e-3)
        assert smoother_mse_quadrature(q)[0] == pytest.approx(qcrb_quadrature(q)[0], rel=1e-9)
        assert fc / qc == pytest.approx(p, rel=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(4, f"bound values, quadrature agreement, and ratio p verified in {elapsed:.2f}s")


def test_criterion_5_linearized_convergence():
    start = time.monotonic()
    cases = [
        # (p, grid value, filtered target, smoothed target)
        (2, 100.0, 0.005, 0.0025),
        (4, 100.0, 0.005, 0.00125),
    ]
    summary = []
    for p, grid, f_target, s_target in cases:
        flux = grid ** (p / (p - 1.0))  # kappa = 1
        model = PhaseModel(p, 1.0)
        system = build_lg_system(p, 1.0, flux)
        config = default_config(
            model, flux, seed=20240, duration_factor=600.0, dt_factor=0.005, linearized=True
        )
        res = simulate_filter_trials(model, config, 64, smoother=True, full_state_stats=True)
        assert abs(res.filter_mse - f_target) < 3 * res.filter_stderr
        assert abs(res.filter_mse - f_target) < 0.05 * f_target
        assert abs(res.smoother_mse - s_target) < 3 * res.smoother_stderr
        assert abs(res.smoother_mse - s_target) < 0.05 * s_target
        ratio = res.smoother_mse / res.filter_mse
        assert 1.0 / p - 0.02 <= ratio <= 1.0 / p + 0.02
        # full-state consistency: every chain component's error covariance
        # matches the predicted stationary causal covariance
        from phasetrack.lg import covariance_set

        cov_dev = np.max(np.abs(res.error_cov - covariance_set(system).vf) / res.error_cov_stderr)
        assert cov_dev < 3.0
        summary.append(
            f"p={p}: filter {res.filter_mse:.3e} (target {f_target}), "
            f"smoother {res.smoother_mse:.3e} (target {s_target}), ratio {ratio:.4f}, "
            f"state-cov dev {cov_dev:.2f} SE"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(5, "; ".join(summary) + f" in {elapsed:.0f}s")


def test_criterion_6_nonlinear_spike_band():
    model = PhaseModel(2, 1.0)
    config = default_config(model, 1.0, seed=9905, duration_factor=200.0)  # N/kappa = 1
    res = simulate_filter_trials(model, config, 64, wrap_errors=True)
    prediction = filter_mse_power_law(2, 1.0, 1.0)
    ratio = res.filter_mse / prediction
    assert 1.2 <= ratio <= 2.0
    _report(6, f"low-flux nonlinear ratio {ratio:.3f} within [1.2, 2.0]")


def test_criterion_7_abc_behavior():
    start = time.monotonic()
    # (a) random-walk phase at high flux: matches the causal asymptote
    flux = 1.0e6  # (N/kappa)^(1/2) = 1e3
    model = PhaseModel(2, 1.0)
    system = build_lg_system(2, 1.0, flux)
    chi = math.sqrt(system.mu)
    config = default_config(model, flux, seed=7781, duration_factor=400.0)
    res = run_abc_trials(model, config, 24, chi)
    asymptote = filter_mse_power_law(2, 1.0, flux)
    assert abs(res.mse - asymptote) < 0.10 * asymptote

    # (b) p=4 without cutoff: windowed MSE grows across log-spaced windows
    model4 = PhaseModel(4, 1.0)
    sys4 = build_lg_system(4, 1.0, 100.0)
    cfg4 = default_config(model4, 100.0, seed=7782, duration_factor=400.0)
    res4 = run_abc_trials(model4, cfg4, 16, sys4.mu**0.25)
    assert res4.diverged
    assert np.all(np.diff(res4.window_mse) > 0)

    # (c) damped chain, linearized window estimator vs the closed form
    chi_c = 5.0
    devs = []
    for lam in (0.5, 1.0, 2.0):
        damped = PhaseModel(4, 1.0, (lam, 0.0))
        dt = 0.002
        burn = 20.0 / min(lam, chi_c) + 20.0 / chi_c
        duration = 120.0 + 2 * burn
        mse, _ = run_abc_linearized_trials(damped, chi_c, dt, duration, burn, seed=7783, n_trials=64)
        target = abc_linearized_mse(1.0, chi_c, lam)
        assert abs(mse - target) < 0.05 * target
        devs.append(abs(mse - target) / target)
    elapsed = time.monotonic() - start
    _report(
        7,
        f"asymptote ratio {res.mse / asymptote:.3f}; divergence windows "
        f"{res4.window_mse[0]:.2g}->{res4.window_mse[-1]:.2g}; cutoff formula devs "
        + ", ".join(f"{d:.2%}" for d in devs)
        + f" in {elapsed:.0f}s",
    )


def test_criterion_8_deterministic_csv_bytes(tmp_path):
    spec = tmp_path / "sweep.ini"
    spec.write_text(
        "[sweep]\n"
        "p = 2\n"
        "kappa = 1.0\n"
        "grid = 10\n"
        "estimators = filter smoother\n"
        "trials = 4\n"
        "seed = 777\n"
        "linearized = true\n"
        "duration_factor = 100\n"
    )
    sweep_a, sweep_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", str(spec), "-o", str(sweep_a)]) == 0
    assert main(["sweep", str(spec), "-o", str(sweep_b)]) == 0
    assert sweep_a.read_bytes() == sweep_b.read_bytes()

    rec_a, rec_b = tmp_path / "ra.csv", tmp_path / "rb.csv"
    sim_args = [
        "simulate", "--p", "4", "--flux", "50", "--estimator", "smoother",
        "--seed", "31", "--duration-factor", "60",
    ]
    assert main(sim_args + ["--output", str(rec_a)]) == 0
    assert main(sim_args + ["--output", str(rec_b)]) == 0
    assert rec_a.read_bytes() == rec_b.read_bytes()

    with open(sweep_a) as fh:
        header = fh.readline().strip()
    assert header == "p,N_over_kappa,estimator,mse,stderr,n_trials,dt,duration,seed,lg_filter_mse,qcrb,wiener_filter_mse"
    _report(8, "sweep and record CSV bytes identical across reruns; schema stable")
