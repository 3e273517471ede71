"""Feedback-loop simulation, offline passes, smoothing, and MSE statistics."""

import dataclasses
import gc
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    abc_feedback_reference,
    abc_paths,
    chain_cumsum,
    discrete_filter_covariance,
    earlier_abc_loop,
    error_passes,
    linearized_error_passes,
    mse_statistics,
    run_abc_linearized_trials,
    smoothing_weights_inverse,
    trial_noise,
    trial_noise_normal,
    two_pass_error_passes,
    windowed_mse,
)

from phasetrack.errors import ValidationError
from phasetrack.lg import build_lg_system, covariance_set, lg_filter_mse, retro_covariance, scale_covariance
from phasetrack.lg import solve_filter_covariance
from phasetrack.phase_process import PhaseModel
from phasetrack import simulation as sim
from phasetrack.simulation import (
    HomodyneConfig,
    default_config,
    run_abc,
    simulate_filter_trials,
    simulate_record,
)


def _setup(p=2, kappa=1.0, flux=100.0, seed=1, duration_factor=100.0, linearized=True):
    model = PhaseModel(p, kappa)
    system = build_lg_system(p, kappa, flux)
    config = default_config(model, flux, seed=seed, duration_factor=duration_factor, linearized=linearized)
    return model, system, config


class TestConfig:
    def test_rejects_coarse_dt(self):
        model, system, _ = _setup()
        tau = system.time_scale
        bad = HomodyneConfig(photon_flux=100.0, dt=0.05 * tau, duration=100 * tau, burn_in=25 * tau, seed=0)
        with pytest.raises(ValidationError, match="dt"):
            simulate_record(model, bad)

    def test_rejects_short_burn_in(self):
        model, system, _ = _setup()
        tau = system.time_scale
        bad = HomodyneConfig(photon_flux=100.0, dt=0.01 * tau, duration=100 * tau, burn_in=5 * tau, seed=0)
        with pytest.raises(ValidationError, match="burn_in"):
            simulate_record(model, bad)

    def test_rejects_empty_interior(self):
        with pytest.raises(ValidationError, match="interior"):
            HomodyneConfig(photon_flux=1.0, dt=0.1, duration=10.0, burn_in=5.0, seed=0)

    def test_parameter_rounding_accepted(self):
        model, system, config = _setup(kappa=0.7, flux=100.0, duration_factor=30.0)
        nudged = PhaseModel(2, math.nextafter(0.7, 1.0))  # 1 ulp off: the same kappa
        rec = simulate_record(nudged, config)
        assert len(rec.t) == config.n_steps

    @pytest.mark.parametrize("field", ["kappa", "flux"])
    def test_parameter_mismatch_rejected(self, field):
        """The run's system comes from the model's kappa and the config's flux,
        so a config built for kappa or N off by 1e-6 either way no longer
        resolves that system's response time: dt is too coarse or the burn-in
        too short."""
        model, system, config = _setup(kappa=0.7, flux=100.0, duration_factor=30.0)
        for scale in (1 - 1e-6, 1 + 1e-6):
            if field == "kappa":
                run_model, run_config = PhaseModel(2, 0.7 * scale), config
            else:
                run_model = model
                run_config = HomodyneConfig(
                    photon_flux=100.0 * scale,
                    dt=config.dt,
                    duration=config.duration,
                    burn_in=config.burn_in,
                    seed=config.seed,
                )
            with pytest.raises(ValidationError, match="dt|burn_in"):
                simulate_record(run_model, run_config)
            with pytest.raises(ValidationError, match="dt|burn_in"):
                run_abc(run_model, run_config, math.sqrt(system.mu))

    def test_unresolved_damping_rejected_like_integrate_chain(self):
        """Both loops that integrate the chain, the filter's and the linearized
        exponential window's, reject an unresolved damping rate alike."""
        model, system, config = _setup(duration_factor=30.0)
        damped = PhaseModel(2, 1.0, (0.2 / config.dt,))
        with pytest.raises(ValidationError, match="damping") as sim_err:
            simulate_record(damped, config)
        with pytest.raises(ValidationError, match="damping") as abc_err:
            run_abc_linearized_trials(damped, 1.0, config.dt, 10.0, 1.0, 0, 2)
        assert str(sim_err.value) == str(abc_err.value)

    def test_damped_model_rejected_by_filter_loops(self):
        """The error-coordinate loop and its gain are for the undamped chain."""
        model, system, config = _setup(duration_factor=30.0)
        damped = PhaseModel(2, 1.0, (0.5,))
        with pytest.raises(ValidationError, match="undamped"):
            simulate_record(damped, config)
        with pytest.raises(ValidationError, match="undamped"):
            simulate_filter_trials(damped, config, 2, smoother=True)

    @pytest.mark.parametrize("estimator", ["filter", "smoother", "abc"])
    def test_ensembles_need_two_trials(self, estimator):
        """An ensemble's standard error is taken over trials, so each
        ensemble entry point rejects a single trial."""
        model, system, config = _setup(duration_factor=30.0)
        with pytest.raises(ValidationError, match="at least 2 trials"):
            if estimator == "abc":
                sim.run_abc_trials(model, config, 1, math.sqrt(system.mu))
            else:
                simulate_filter_trials(model, config, 1, smoother=estimator == "smoother")

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from(range(2, 21, 2)),
        log_kappa=st.floats(-2.0, 2.0),
        log_flux=st.floats(-1.0, 6.0),
        duration_factor=st.floats(1.0, 1000.0),
    )
    def test_default_config_satisfies_invariants(self, p, log_kappa, log_flux, duration_factor):
        """At the limits the runs check, dt_factor 0.01 and burn_in_factor 20,
        default_config's grid is the response time of the run's own system
        times each factor, bit for bit, and _run_system accepts it."""
        model, flux = PhaseModel(p, 10.0**log_kappa), 10.0**log_flux
        config = default_config(
            model, flux, seed=0, duration_factor=duration_factor, dt_factor=0.01, burn_in_factor=20.0
        )
        tau = build_lg_system(p, model.kappa, flux).time_scale
        assert sim._run_system(model, config, "filter", 2).time_scale == tau
        assert config.photon_flux == flux
        assert config.dt == 0.01 * tau
        assert config.burn_in == 20.0 * tau
        assert config.duration == duration_factor * tau + 2 * (20.0 * tau)


class TestSimulateRecord:
    def test_deterministic(self):
        model, system, config = _setup(duration_factor=30.0)
        a = simulate_record(model, config)
        b = simulate_record(model, config)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.phi_s, b.phi_s, equal_nan=True)

    def test_single_record_is_one_row(self):
        model, system, config = _setup(duration_factor=30.0)
        rec = simulate_record(model, config)
        assert rec.t.shape == (config.n_steps,)
        for path in (rec.phi, rec.theta, rec.y, rec.phi_s):
            assert path.shape == (1, config.n_steps)

    @pytest.mark.parametrize("linearized", [False, True], ids=["sin", "linearized"])
    def test_filter_record_skips_the_backward_pass(self, linearized):
        """A filter record, which simulate --estimator filter writes, runs no
        backward pass: phi_s is None and no time goes to the backward scan,
        and its other paths are the smoother record's bit for bit."""
        model, system, config = _setup(duration_factor=30.0, linearized=linearized)
        smoothed = simulate_record(model, config)
        rec = simulate_record(model, config, smoother=False)
        assert rec.phi_s is None and rec.stage_s["backward_scan"] == 0.0
        for name in ("t", "phi", "theta", "y"):
            assert np.array_equal(getattr(rec, name), getattr(smoothed, name)), name

    def test_backward_pass_leaves_causal_path_unchanged(self):
        """theta - phi and the residual are bit for bit the same with and
        without a smoother, on both loops, at 2 rows and at 64 and 128,
        the widths at which one map of both forward readouts would pick
        another BLAS kernel than the one-readout map: a linearized run reads
        w_f . e through its own map (_block_scan's ``also``) for that."""
        for linearized in (False, True):
            model, system, config = _setup(duration_factor=30.0, linearized=linearized)
            cov = covariance_set(system)
            for rows in (2, 64, 128):
                runs = []
                for smoothing in (None, sim._smoothing_weights(solve_filter_covariance(model.p), system.mu)):
                    dw, db = trial_noise(config.seed, rows, config.n_steps, config.dt)
                    runs.append((db,) + error_passes(model, system, config, dw, db, cov.vf, smoothing))
                (db_bare, err_bare, s_bare), (db_kept, err_kept, s_kept) = runs
                assert s_bare is None and s_kept.shape == (rows, config.n_steps)
                assert np.array_equal(err_kept, err_bare), (linearized, rows)
                assert np.array_equal(db_kept, db_bare), (linearized, rows)

    def test_feedback_is_the_causal_estimate(self):
        model, system, config = _setup(duration_factor=30.0)
        rec = simulate_record(model, config)
        assert rec.theta[0, 0] == 0.0

    def test_zero_flux_keeps_estimate_at_prior_mean(self):
        model = PhaseModel(2, 1.0)
        config = HomodyneConfig(photon_flux=0.0, dt=0.01, duration=20.0, burn_in=1.0, seed=3)
        rec = simulate_record(model, config)
        assert np.all(rec.theta == 0.0)  # zero gain: the filter never moves
        assert not np.all(rec.phi == 0.0)

    def test_zero_flux_ensemble_reports_filter_statistics_only(self):
        """An ensemble at flux 0 follows the record's rule: zero gain, so
        theta - phi = -phi, and nothing to smooth."""
        model = PhaseModel(4, 1.0)
        config = HomodyneConfig(photon_flux=0.0, dt=0.01, duration=20.0, burn_in=1.0, seed=3)
        res = simulate_filter_trials(model, config, 4, smoother=True, full_state_stats=True)
        assert res.smoother_mse is None and res.smoother_stderr is None
        assert np.all(np.isfinite([res.filter_mse, res.filter_stderr]))
        assert np.all(np.isfinite(res.error_cov)) and np.all(np.isfinite(res.error_cov_stderr))
        phi = sim._open_loop_phase(model, config.dt, trial_noise(config.seed, 4, config.n_steps, config.dt)[0])
        expected = mse_statistics(-phi, config.dt, config.burn_in)
        assert (res.filter_mse, res.filter_stderr) == pytest.approx(expected, rel=1e-12)

    def test_rescaled_signal_definition(self):
        model, system, config = _setup(duration_factor=30.0)
        rec = simulate_record(model, config)
        two_rn = 2 * math.sqrt(config.photon_flux)
        db = trial_noise(config.seed, 1, config.n_steps, config.dt)[1]
        current = two_rn * (rec.phi - rec.theta) * config.dt + db  # I dt of the linearized loop
        assert rec.y == pytest.approx(current / config.dt + two_rn * rec.theta, rel=1e-12)

    def test_causal_prefix_invariant_to_future(self):
        # extending the run (more future noise) must not change the past
        model, system, config = _setup(duration_factor=40.0, seed=11)
        tau = system.time_scale
        longer = HomodyneConfig(
            photon_flux=config.photon_flux,
            dt=config.dt,
            duration=config.duration + 40 * tau,
            burn_in=config.burn_in,
            seed=config.seed,
            linearized=config.linearized,
        )
        short = simulate_record(model, config)
        full = simulate_record(model, longer)
        n = len(short.t)
        assert np.array_equal(full.theta[:, :n], short.theta)
        assert np.array_equal(full.phi[:, :n], short.phi)


def _euler_filter(y: np.ndarray, system, vf: np.ndarray, dt: float) -> np.ndarray:
    """Causal Euler filter over a stored rescaled signal y (T,), in absolute
    states from zero: row i is the state before sample i is taken in."""
    closed = system.a - vf @ np.outer(system.c, system.c)
    gain = vf @ system.c
    xf = np.zeros((len(y) + 1, system.n_states))
    for i, y_i in enumerate(y):
        xf[i + 1] = xf[i] + closed @ xf[i] * dt + gain * y_i * dt
    return xf


def _bare_config(flux: float, n_steps: int, dt: float, linearized: bool = True) -> HomodyneConfig:
    """Config of n_steps samples with no burn-in, so every sample is interior."""
    return HomodyneConfig(
        photon_flux=flux,
        dt=dt,
        duration=n_steps * dt,
        burn_in=0.0,
        seed=0,
        linearized=linearized,
    )


def _pass_states(model, system, config, dw: np.ndarray, r: np.ndarray):
    """Full forward and backward error states of error_passes, one state
    component per run through unit weights. Entry i of the forward states is
    e before step i; entry i of the backward ones is the backward error that
    sample i adds to the smoothed error."""
    m = system.n_states
    vf = covariance_set(system).vf
    fwd = np.empty(r.shape + (m,))
    back = np.empty_like(fwd)
    zero = np.zeros(m)
    for k, unit in enumerate(np.eye(m)):
        for states, weights in ((fwd, (unit, zero)), (back, (zero, unit))):
            s_err = error_passes(model, system, config, dw.copy(), r.copy(), vf, weights)[1]
            states[..., k] = s_err / model.phase_scale
    return fwd, back


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trials=st.integers(1, 4),
    n_steps=st.integers(1, 600),
    dt=st.floats(1e-8, 10.0),
)
def test_trial_noise_is_scaled_normal_draws(seed, n_trials, n_steps, dt):
    noise = trial_noise(seed, n_trials, n_steps, dt)
    for got, ref in zip(noise, trial_noise_normal(seed, n_trials, n_steps, dt)):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestFilterPass:
    def test_offline_pass_reproduces_inline_filter(self):
        model, system, config = _setup(duration_factor=30.0)
        rec = simulate_record(model, config)
        xf = _euler_filter(rec.y[0], system, covariance_set(system).vf, config.dt)
        assert np.max(np.abs(model.phase_scale * xf[:-1, -1] - rec.theta[0])) < 1e-10

    def test_zero_signal_stays_at_zero(self):
        """Without phase or shot noise the error loop never leaves zero."""
        model = PhaseModel(4, 1.0)
        system = build_lg_system(4, 1.0, 10.0)
        cov = covariance_set(system)
        for linearized in (True, False):
            config = _bare_config(10.0, 100, 1e-4, linearized)
            quiet = np.zeros((1, 100))
            err = error_passes(model, system, config, quiet, quiet.copy(), cov.vf)[0]
            assert np.all(err == 0.0)

    def test_impulse_decay_rate_p2(self):
        """Closed-loop pole for p=2 is -sqrt(mu): A=0, V=1/sqrt(mu), C^2=mu."""
        model = PhaseModel(2, 1.0)
        system = build_lg_system(2, 1.0, 25.0)  # mu = 100
        cov = covariance_set(system)
        dt = 1e-4
        r = np.zeros((1, 4000))
        r[0, 0] = 1.0  # a unit impulse in the residual y dt
        config = _bare_config(25.0, 4000, dt)
        err = error_passes(model, system, config, np.zeros_like(r), r, cov.vf)[0][0]
        # log-linear fit over a window clear of the impulse itself
        i0, i1 = 100, 3000
        t = np.arange(r.shape[1]) * dt
        slope = np.polyfit(t[i0:i1], np.log(np.abs(err[i0:i1])), 1)[0]
        assert -slope == pytest.approx(math.sqrt(system.mu), rel=1e-2)

    def test_error_covariance_matches_prediction(self):
        """Linearized loop: stationary estimate-minus-truth covariance over
        all chain components equals the predicted causal covariance."""
        model, system, config = _setup(p=2, flux=100.0, duration_factor=300.0, seed=21)
        res = simulate_filter_trials(model, config, 24, full_state_stats=True)
        cov = covariance_set(system)
        dev = np.abs(res.error_cov - cov.vf) / res.error_cov_stderr
        assert np.max(dev) < 3.0


class TestRetrofilterPass:
    def test_zero_signal_stays_at_zero(self):
        model = PhaseModel(4, 1.0)
        system = build_lg_system(4, 1.0, 10.0)
        cov = covariance_set(system)
        config = _bare_config(10.0, 100, 1e-4)
        smoothing = sim._smoothing_weights(solve_filter_covariance(model.p), system.mu)
        quiet = np.zeros((1, 100))
        s_err = error_passes(model, system, config, quiet, quiet.copy(), cov.vf, smoothing)[1]
        assert np.all(s_err == 0.0)

    @pytest.mark.parametrize("p", [2, 4, 6, 8, 12, 20])
    def test_time_reversal_structure(self, p):
        """The backward pass equals a causal pass, with the drift step
        (I - A dt)^-1 in place of I + A dt, run on the reversed, sign-adjusted
        residuals from the forward error at the end of the record, with
        alternating state signs."""
        model = PhaseModel(p, 1.0)
        system = build_lg_system(p, 1.0, 5.0)
        cov = covariance_set(system)
        dt = 0.2 * system.time_scale * 0.01
        n_steps, n, m = 300, system.n, system.n_states
        r = np.random.default_rng(4).normal(size=(1, n_steps)) * dt
        config = _bare_config(5.0, n_steps, dt)
        fwd, back = _pass_states(model, system, config, np.zeros_like(r), r)
        gain = cov.vf @ system.c
        closed = system.a - np.outer(gain, system.c)
        e_end = fwd[0, -1] + closed @ fwd[0, -1] * dt + gain * r[0, -1]
        causal = np.linalg.inv(np.eye(m) - system.a * dt) - np.outer(gain, system.c) * dt
        parity = (-1.0) ** np.arange(m)
        forward = np.empty((n_steps, m))
        forward[0] = parity * e_end
        for k in range(n_steps - 1):
            forward[k + 1] = causal @ forward[k] + gain * ((-1.0) ** n) * r[0, n_steps - 1 - k]
        assert np.max(np.abs(back[0] - parity * forward[::-1])) < 1e-10

    def test_projection_matches_full_states(self):
        """The stored smoothed error is w_f . e_f + w_r . e_r of the full
        forward and backward error states, for any weights."""
        model = PhaseModel(6, 1.0)
        system = build_lg_system(6, 1.0, 5.0)
        cov = covariance_set(system)
        dt = 0.01 * system.time_scale
        noise = np.random.default_rng(5).normal(0.0, math.sqrt(dt), size=(2, 3, 400))
        w_f, w_r = np.random.default_rng(6).normal(size=(2, system.n_states))
        config = _bare_config(5.0, 400, dt)
        fwd, back = _pass_states(model, system, config, noise[0], noise[1])
        proj = error_passes(model, system, config, noise[0], noise[1], cov.vf, (w_f, w_r))[1]
        assert proj.shape == noise[1].shape
        assert np.allclose(proj / model.phase_scale, fwd @ w_f + back @ w_r, rtol=1e-12, atol=0.0)

    def test_retro_error_variance_p2(self):
        """Stationary anticausal phase error variance matches the predicted
        V_R (which equals V_F for p=2)."""
        model, system, config = _setup(p=2, flux=100.0, duration_factor=300.0, seed=31)
        cov = covariance_set(system)
        # weights (0, 1) keep the backward error alone; p = 2 has one state
        dw, db = trial_noise(config.seed, 24, config.n_steps, config.dt)
        smoothing = (np.zeros(1), np.ones(1))
        s_err = error_passes(model, system, config, dw, db, cov.vf, smoothing)[1]
        win = sim._interior_slice(config.n_steps, config.dt, config.burn_in)
        err = s_err[:, win] / model.phase_scale
        per_trial = np.mean(err**2, axis=1)
        est = per_trial.mean()
        se = per_trial.std(ddof=1) / math.sqrt(24)
        assert abs(est - retro_covariance(cov.vf)[0, 0]) < 3 * se


class TestCombineSmoothed:
    def test_equal_covariances_average(self):
        """At p = 2, V_F = V_R, so the information sum is the plain average
        and phi_s reads half of each pass's state, exactly, at any mu."""
        for mu in (1e-12, 1.0, 4e4, 1e12):
            w_f, w_r = sim._smoothing_weights(solve_filter_covariance(2), mu)
            assert w_f.tolist() == [0.5] and w_r.tolist() == [0.5], mu

    def test_smooth_record_interior_window(self):
        """phi_s is NaN outside the interior window and, inside it, the
        information sum w_f . xf + w_r . xr of an absolute-state forward
        filter and backward pass over rec.y, read off at the phase. The
        backward pass is seeded like the error-coordinate one: its error at
        the end of the record is the forward filter's."""
        for p in (2, 4, 6):
            model, system, config = _setup(p=p, duration_factor=60.0)
            rec = simulate_record(model, config)
            phi_s = rec.phi_s[0]
            k = int(round(config.burn_in / config.dt))
            assert np.all(np.isnan(phi_s[:k]))
            assert np.all(np.isnan(phi_s[-k:]))
            inner = phi_s[k : len(rec.t) - k]
            assert not np.any(np.isnan(inner))

            cov = covariance_set(system)
            dt, n, m = config.dt, config.n_steps, system.n_states
            xf = _euler_filter(rec.y[0], system, cov.vf, dt)
            dw = trial_noise(config.seed, 1, n, dt)[0][0]
            x_end = chain_cumsum(m, dt, dw)[-1]
            back = np.linalg.inv(np.eye(m) + system.a * dt)
            vr = retro_covariance(cov.vf)
            closed_r = back - np.outer(vr @ system.c, system.c) * dt
            xr = np.empty((n, m))
            xr[-1] = back @ x_end + xf[-1] - x_end
            for i in range(n - 1, 0, -1):
                xr[i - 1] = closed_r @ xr[i] + vr @ system.c * rec.y[0, i] * dt
            w_f, w_r = sim._smoothing_weights(solve_filter_covariance(p), system.mu)
            reference = model.phase_scale * (xf[:-1] @ w_f + xr @ w_r)[k : n - k]
            assert np.max(np.abs(inner - reference)) <= 1e-13 * np.max(np.abs(inner)), p

    def test_smoothing_beats_filtering(self):
        model, system, config = _setup(p=2, flux=100.0, duration_factor=300.0, seed=41)
        res = simulate_filter_trials(model, config, 16, smoother=True)
        assert res.smoother_mse < res.filter_mse


def _phase_update(ab, theta, flux):
    """The feedback loop's Newton update at photon flux N, run as the loop
    runs it: on the angle buffer i (theta, 2 theta) and its exponential,
    under the loop's errstate. Returns copies of theta after the update and
    of its hold mask."""
    angle = np.zeros((2, len(theta)), dtype=complex)
    angle.imag = theta, theta + theta
    update = sim._abc_phase_updater(flux, angle, np.exp(angle))
    with np.errstate(divide="ignore", invalid="ignore"):
        hold, n_held = update(ab)
    assert n_held == np.count_nonzero(hold)
    assert np.array_equal(angle.imag[1], angle.imag[0] + angle.imag[0])
    return angle.imag[0].copy(), hold.copy()


class TestAbc:
    @pytest.mark.parametrize("n_trials", [None, 3], ids=["run_abc", "run_abc_trials"])
    def test_no_signal_holds_initial_phase(self, n_trials):
        """At flux 0 the functionals carry no weight, so theta never moves
        and every trial-step holds: a record and a 3-trial ensemble each
        count trials x steps in diagnostics["indeterminate_steps"]."""
        model = PhaseModel(2, 1.0)
        config = HomodyneConfig(photon_flux=0.0, dt=0.01, duration=10.0, burn_in=1.0, seed=5)
        if n_trials is None:
            res = run_abc(model, config, chi=2.0)
            assert np.all(res.phi_abc == 0.0)
        else:
            res = sim.run_abc_trials(model, config, n_trials, chi=2.0)
        assert config.n_steps == 1000
        assert res.diagnostics["indeterminate_steps"] == (n_trials or 1) * config.n_steps

    def test_phase_update_holds_on_empty_statistics(self):
        theta = np.array([0.3, -1.0, 2.0])
        cand, hold = _phase_update(np.zeros((2, 3), complex), theta, 10.0)
        assert np.all(hold)

    def test_phase_update_stationary_at_constant_angle(self):
        # b accumulated at a fixed angle, no photocurrent weight: the
        # likelihood maximum sits exactly at that angle
        theta = np.array([0.7])
        ab = np.stack([np.zeros(1, complex), 0.5 * np.exp(2j * theta)])
        cand, hold = _phase_update(ab, theta, 10.0)
        assert not hold[0]
        assert cand[0] == pytest.approx(0.7, abs=1e-12)

    def test_deterministic(self):
        model, system, config = _setup(p=2, flux=100.0, duration_factor=30.0, linearized=False)
        chi = math.sqrt(system.mu)
        a = run_abc(model, config, chi)
        b = run_abc(model, config, chi)
        assert np.array_equal(a.phi_abc, b.phi_abc)

    def test_small_steps_between_updates(self):
        model, system, config = _setup(p=2, flux=100.0, duration_factor=60.0, linearized=False, seed=9)
        rec = run_abc(model, config, math.sqrt(system.mu))
        jumps = np.abs(np.diff(rec.phi_abc))
        assert np.max(jumps) <= math.pi + 1e-12

    def test_tracks_at_high_flux(self):
        model, system, config = _setup(p=2, flux=1.0e4, duration_factor=150.0, linearized=False, seed=13)
        chi = math.sqrt(system.mu)
        res = sim.run_abc_trials(model, config, 8, chi)
        from phasetrack.bounds import filter_mse_power_law

        assert res.mse == pytest.approx(filter_mse_power_law(2, 1.0, 1.0e4), rel=0.15)

    def test_rejects_bad_chi(self):
        model, system, config = _setup(duration_factor=30.0)
        with pytest.raises(ValidationError):
            run_abc(model, config, chi=0.0)

    @pytest.mark.parametrize("chi, match", [(0.0, "chi"), (-1.0, "chi"), (50.0, "too coarse")])
    def test_linearized_trials_reject_bad_chi(self, chi, match):
        """chi must be positive and resolved by the grid (dt chi < 0.1)."""
        model = PhaseModel(4, 1.0, (0.3, 0.0))
        with pytest.raises(ValidationError, match=match):
            run_abc_linearized_trials(model, chi, 0.005, 60.0, 10.0, 11, 6)

    def test_linearized_trials_reject_unresolved_damping(self):
        """The chain's damping rates must be resolved too (dt lambda < 0.1),
        as in integrate_chain: lambda = 30 at dt 0.005 gives 0.15."""
        model = PhaseModel(4, 1.0, (30.0, 0.0))
        with pytest.raises(ValidationError, match="damping"):
            run_abc_linearized_trials(model, 2.0, 0.005, 60.0, 10.0, 11, 4)

    def test_record_theta_is_previous_estimate(self):
        model, system, config = _setup(p=2, flux=100.0, duration_factor=30.0, linearized=False)
        rec = run_abc(model, config, math.sqrt(system.mu))
        assert rec.theta[0, 0] == 0.0
        assert np.array_equal(rec.theta[:, 1:], rec.phi_abc[:, :-1])
        assert rec.phi_s is None


def _per_array_phase_update(a, b, theta, phasor, flux):
    """The exponential-window Newton step on separate a and b arrays, one
    harmonic at a time: the loop's stacked update matches bit for bit."""
    two_sqrt_n = 2.0 * math.sqrt(flux)
    hold = two_sqrt_n * np.abs(a) + 2.0 * flux * np.abs(b) < sim._ABC_HOLD_THRESHOLD
    conj_a, conj_b = np.conj(a), np.conj(b)
    new = theta
    for k in range(3):
        z1 = conj_a * (np.exp(1j * new) if k else phasor)
        z2 = conj_b * np.exp(2j * new)
        slope = -two_sqrt_n * z1.imag - 2.0 * flux * z2.imag
        curv = -two_sqrt_n * z1.real - 4.0 * flux * z2.real
        ok = curv < 0.0
        step = np.where(ok, -slope / np.where(ok, curv, 1.0), 0.0)
        new = new + np.minimum(np.maximum(step, -1.0), 1.0)
    return np.where(hold, theta, new), hold


def _random_statistics(n, seed):
    """n trials of (a, b, theta): parts uniform in +-5 with some exact zeros,
    some trials with a = b = 0, some with statistics too small to define a
    phase at any flux up to 1e4 but large enough for a Newton step to move
    theta, and theta uniform in +-10."""
    rng = np.random.default_rng(seed)
    parts = rng.uniform(-5.0, 5.0, (4, n)) * (rng.random((4, n)) < 0.8)  # some exact zeros
    parts[:, rng.random(n) < 0.1] = 0.0  # and some a = b = 0
    parts[:, rng.random(n) < 0.1] *= 1e-18  # and some that hold
    return parts[0] + 1j * parts[1], parts[2] + 1j * parts[3], rng.uniform(-10.0, 10.0, n)


_PHASE_UPDATE_CASES = dict(
    n=st.sampled_from([1, 2, 3, 7, 4096]),
    seed=st.integers(0, 2**32 - 1),
    flux=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
)


@settings(max_examples=60, deadline=None)
@given(**_PHASE_UPDATE_CASES)
def test_stacked_phase_update_matches_per_array_step(n, seed, flux):
    """The stacked Newton step gives the per-array step's new theta and hold
    mask exactly: on trials that hold, that meet curv >= 0 (no step), and
    whose steps are clipped at +-1. A wide batch is needed to see a one-ulp
    change: swapping the operands of the complex product, which differ
    under fused multiply-add, moved 36 of 100 000 candidates at flux 10."""
    a, b, theta = _random_statistics(n, seed)
    theta_ref, hold_ref = _per_array_phase_update(a, b, theta, np.exp(1j * theta), flux)
    new, hold = _phase_update(np.stack([a, b]), theta, flux)
    assert np.array_equal(hold, hold_ref)
    assert np.array_equal(new, theta_ref)


@settings(max_examples=60, deadline=None)
@given(**_PHASE_UPDATE_CASES)
def test_phase_update_moves_theta_less_than_half_a_turn(n, seed, flux):
    """Three Newton steps, each clipped to +-1 rad, move a trial's theta by
    at most 3 rad < pi, plus rounding, so no result needs moving by whole
    turns back to within pi of theta. A trial that holds keeps its theta bit
    for bit, and at photon flux 0 every trial holds."""
    a, b, theta = _random_statistics(n, seed)
    new, hold = _phase_update(np.stack([a, b]), theta, flux)
    bound = 3.0 + 4.0 * np.spacing(np.abs(theta) + 3.0)  # three steps, each rounded once
    assert np.all((np.abs(new - theta) <= bound)[~hold])
    assert np.array_equal(new[hold].view(np.uint64), theta[hold].view(np.uint64))
    if flux == 0.0:
        assert np.all(hold)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    width=st.sampled_from([1, 2, 16, 33]),
    p=st.sampled_from([2, 4]),
    damped=st.booleans(),
    linearized=st.booleans(),
    grid=st.one_of(st.just(0.0), st.floats(3.0, 30.0), st.floats(30.0, 100.0)),
    n_steps=st.one_of(st.integers(1, 1000), st.sampled_from([sim._STREAM_BLOCK + 65, 2 * sim._STREAM_BLOCK + 5])),
    seed=st.integers(0, 2**16),
)
def test_abc_feedback_matches_reference_bit_for_bit(width, p, damped, linearized, grid, n_steps, seed):
    """The feedback loop on preallocated full-width operands returns the
    reference loop's phase, estimates and photocurrent with the same bit
    patterns, signed zeros included, and the same held count. Both take
    numpy's complex products on the same operands in the same order, so
    this holds on any host, while the ``==`` goldens hold only where those
    products round like a fused multiply-add. Grid 0 is photon flux 0, where
    every step holds; a damped model has a cutoff on its first stage."""
    dampings = (0.5,) + (0.0,) * (p // 2 - 1) if damped else ()
    if grid:
        model, system, flux = _golden_system(p, grid, dampings)
        dt, chi = 0.01 * system.time_scale, 1.0 / system.time_scale
    else:
        model, flux, dt, chi = PhaseModel(p, 1.0, dampings), 0.0, 0.01, 2.0
    config = HomodyneConfig(
        photon_flux=flux, dt=dt, duration=n_steps * dt, burn_in=0.0, seed=seed, linearized=linearized
    )
    got = abc_paths(model, config, width, chi)
    ref = abc_feedback_reference(model, config, width, chi)
    for name, a, b in zip(("phi", "est", "idt"), got, ref):
        assert a.shape == b.shape == (width, config.n_steps + (name == "est")), name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert got[3] == ref[3]
    if not grid:
        assert got[3] == width * config.n_steps


class TestMseStatistics:
    def test_perfect_estimate(self):
        truth = np.random.default_rng(0).normal(size=(3, 100))
        mse, se = mse_statistics(truth - truth, dt=0.1, burn_in=1.0)
        assert mse == 0.0
        assert se == 0.0

    def test_constant_offset(self):
        truth = np.random.default_rng(0).normal(size=(2, 100))
        mse, se = mse_statistics((truth + 0.1) - truth, dt=0.1, burn_in=1.0)
        assert mse == pytest.approx(0.01, rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-16)

    def test_two_trial_stderr(self):
        truth = np.zeros((2, 50))
        est = np.zeros((2, 50))
        est[0] += 1.0  # per-trial means 1.0 and 0.0
        mse, se = mse_statistics(est - truth, dt=1.0, burn_in=0.0)
        assert mse == pytest.approx(0.5)
        assert se == pytest.approx(abs(1.0 - 0.0) / 2)

    def test_wrap_option(self):
        truth = np.zeros((2, 10))
        est = np.full((2, 10), 2 * math.pi)  # a full turn away: no wrapped error
        mse, _ = mse_statistics(est - truth, dt=1.0, burn_in=0.0, wrap=True)
        assert mse == pytest.approx(0.0, abs=1e-25)

    def test_requires_two_trials(self):
        with pytest.raises(ValidationError):
            mse_statistics(np.zeros((1, 10)), dt=1.0, burn_in=0.0)

    def test_empty_window(self):
        with pytest.raises(ValidationError, match="window"):
            mse_statistics(np.zeros((2, 10)), dt=1.0, burn_in=5.0)


class TestWindowedMse:
    def test_growing_error_detected(self):
        t = np.arange(1, 2001, dtype=float) * 0.01
        truth = np.zeros((2, 2000))
        est = np.sqrt(t)[None, :] * np.ones((2, 1))  # variance grows linearly
        wins = windowed_mse(est - truth, dt=0.01, start=0.5)
        assert np.all(np.diff(wins) > 0)

    def test_wrap_option(self):
        truth = np.zeros((2, 400))
        est = np.full((2, 400), 0.1)
        est[:, 200:] += 2 * math.pi  # a slip half way: the wrapped error is unchanged
        wins = windowed_mse(est - truth, dt=0.01, start=0.5, wrap=True)
        assert wins == pytest.approx(np.full(4, 0.01), rel=1e-9)
        assert windowed_mse(est - truth, dt=0.01, start=0.5)[-1] > 39.0

    def test_stationary_error_not_flagged(self):
        rng = np.random.default_rng(2)
        truth = np.zeros((4, 4000))
        est = rng.normal(size=(4, 4000))
        wins = windowed_mse(est - truth, dt=0.01, start=1.0)
        assert not np.all(np.diff(wins) > 0)


class TestAbcWrappedWindows:
    def test_windows_match_wrapped_mse_at_low_flux(self):
        """At grid 3 cycle slips inflate unwrapped squares; with wrap_errors
        the divergence windows see the same wrapped errors as the MSE."""
        model, system, config = _setup(p=2, flux=9.0, duration_factor=20.0, linearized=False, seed=8)
        res = sim.run_abc_trials(model, config, 6, math.sqrt(system.mu), wrap_errors=True)
        assert np.all(res.window_mse < 4 * res.mse)
        assert not res.diverged


def _golden_system(p, grid, dampings=()):
    flux = grid ** (p / (p - 1.0))
    return PhaseModel(p, 1.0, dampings), build_lg_system(p, 1.0, flux), flux


def _whole_path_statistics(model, config, n_trials, smoother=True, moments=True, wrap=False, passes=None):
    """simulate_filter_trials' statistics through the records' path-keeping
    route: error_passes (or ``passes``, same arguments) on the whole
    noise of the same trials, then mse_statistics on the paths and the mean
    moment per interior step. Returns (filter mse, stderr, smoother mse,
    stderr, error_cov); the smoother's entries are None without it."""
    system = build_lg_system(model.p, model.kappa, config.photon_flux)
    vf_tilde = solve_filter_covariance(model.p)
    smoothing = sim._smoothing_weights(vf_tilde, system.mu) if smoother else None
    dw, db = trial_noise(config.seed, n_trials, config.n_steps, config.dt)
    moment = np.zeros((n_trials, system.n_states, system.n_states)) if moments else None
    err, s_err = (passes or error_passes)(
        model, system, config, dw, db, scale_covariance(vf_tilde, system.mu), smoothing, moment
    )[:2]
    stats = mse_statistics(err, config.dt, config.burn_in, wrap)
    stats += mse_statistics(s_err, config.dt, config.burn_in, wrap) if smoother else (None, None)
    win = sim._interior_slice(config.n_steps, config.dt, config.burn_in)
    return stats + ((moment / (win.stop - win.start)).mean(axis=0) if moments else None,)


def _whole_path_abc(model, config, n_trials, chi, wrap=False):
    """run_abc_trials' (mse, stderr, window MSEs, held steps) through the
    records' path-keeping route: mse_statistics and windowed_mse on the
    whole error path of abc_paths."""
    phi, est, _, held = abc_paths(model, config, n_trials, chi)
    err = est[:, 1:] - phi
    mse, se = mse_statistics(err, config.dt, config.burn_in, wrap)
    return mse, se, windowed_mse(err, config.dt, config.burn_in, wrap), held


class TestGoldenValues:
    """Ensemble statistics at fixed seeds. Filter and exponential-window MSEs
    must repeat bit for bit; the smoother and the state covariance may only
    reorder floating-point sums. The filter and smoother values were
    re-captured when the filter loop moved to error coordinates, and the
    linearized key again when linearized runs became one blocked scan
    (test_linearized_step_loop_keeps_earlier_values holds the step loop to
    the values before that). Since ensembles reduce their errors block by
    block, the earlier values hold through the whole-path route
    (_whole_path_statistics, _whole_path_abc), and the streamed values,
    which sum the same squares in another order, are pinned next to them.

    The sin() keys were re-captured when the sin() loop moved to the
    innovation form; the per-step loop in oracles, run in place of it,
    keeps their earlier values (test_sin_step_loop_keeps_earlier_values).
    The smoother values moved again, within their 1e-12, when the backward
    pass was folded into the forward one; the two-pass backward sweep in
    oracles, run in place of it, keeps the values from before
    (test_two_pass_smoother_keeps_earlier_values). The exponential-window
    values moved in their last digits when the loop's Newton steps began to
    move theta in place, without the wrap by whole turns, and the response
    gain became one rounded factor; oracles' earlier_abc_loop, run in place
    of the loop, keeps the values from before (test_abc_keeps_earlier_values,
    test_unwrapped_abc_windows_keep_earlier_values).

    Host dependency: the exponential-window values, new and earlier
    (test_abc, test_unwrapped_abc_windows and their earlier-value twins),
    were captured with numpy's SIMD complex multiply, which rounds like a
    fused multiply-add on an FMA-capable x86 host. A numpy build or CPU that
    takes the baseline two-rounding loop gives equally correct but different
    last bits, and fails these ``==`` checks. test_abc_feedback_matches_reference_bit_for_bit is the
    host-independent check: it holds the loop to the reference loop in
    oracles, which takes the same complex products, on any host. The sin()
    values rest on one BLAS gemm per step, e^ G: a BLAS kernel that sums its
    products in another order, or without fused multiply-adds, gives equally
    correct but different last bits."""

    FILTER = {
        # (p, grid, linearized, wrap, seed): (filter mse, stderr, smoother mse, stderr, error_cov diagonal)
        (4, 30.0, False, False, 5): (
            0.020609963629765974, 0.0025439650068320237, 0.003804005410285667, 0.0005871294568978799,
            (0.40181317999885663, 0.020609963629766057),
        ),
        (2, 3.0, False, True, 6): (
            0.18911765357531773, 0.026324053903938785, 0.08093454912555412, 0.012173578159771157,
            (0.18911765357531748,),
        ),
        (6, 100.0, True, False, 7): (
            0.007415712533124484, 0.0007533531926805906, 0.0011317735141486622, 0.00020476212895835183,
            (0.6494526284546283, 0.10505557844124465, 0.0074157125331244834),
        ),
    }
    # The filter (mse, stderr) of simulate_filter_trials, streamed in blocks
    FILTER_STREAMED = {
        (4, 30.0, False, False, 5): (0.020609963629765974, 0.0025439650068320233),
        (2, 3.0, False, True, 6): (0.18911765357531773, 0.026324053903938785),
        (6, 100.0, True, False, 7): (0.007415712533124484, 0.0007533531926805906),
    }
    # The sin() keys as the loop gave them before the innovation form, whole
    # and streamed alike: (filter mse, stderr, smoother mse, stderr, error_cov diagonal)
    SIN_STEP_LOOP = {
        (4, 30.0, False, False, 5): (
            0.020609963629765967, 0.0025439650068320215, 0.003804005410285655, 0.0005871294568978777,
            (0.40181317999885596, 0.02060996362976596),
        ),
        (2, 3.0, False, True, 6): (
            0.1891176535753177, 0.026324053903938785, 0.08093454912555417, 0.012173578159771159,
            (0.1891176535753177,),
        ),
    }
    # The whole-path smoother (mse, stderr) of each key as the two-pass
    # backward sweep gave it, before the sweep was folded into the forward pass
    TWO_PASS = {
        (4, 30.0, False, False, 5): (0.003804005410285667, 0.0005871294568978799),
        (2, 3.0, False, True, 6): (0.08093454912555412, 0.012173578159771157),
        (6, 100.0, True, False, 7): (0.0011317735141486622, 0.0002047621289583519),
    }
    # The linearized key as the per-step forward loop gave it
    STEP_LOOP = (
        0.007415712533124494, 0.0007533531926805919, 0.0011317735141486652, 0.00020476212895835267,
        (0.6494526284546277, 0.10505557844124445, 0.007415712533124494),
    )
    ABC = {
        # (grid, wrap, seed, cutoff): (mse, stderr, indeterminate steps)
        (3.0, True, 8, None): (0.36712537845172727, 0.10009497769759494, 0),
        (30.0, False, 9, None): (0.014174982579802283, 0.0020932054638856936, 0),
        (30.0, True, 10, 0.5): (0.016762315821272186, 0.0013962204138629184, 0),
    }
    ABC_STREAMED = {
        (3.0, True, 8, None): (0.36712537845172727, 0.10009497769759494, 0),
        (30.0, False, 9, None): (0.014174982579802283, 0.0020932054638856936, 0),
        (30.0, True, 10, 0.5): (0.016762315821272182, 0.001396220413862918, 0),
    }
    # The ABC keys as the loop gave them before its Newton steps moved theta
    # in place, whole-path and streamed
    ABC_EARLIER = {
        (3.0, True, 8, None): (0.3671253784517272, 0.10009497769759486, 0),
        (30.0, False, 9, None): (0.014174982579802287, 0.0020932054638856936, 0),
        (30.0, True, 10, 0.5): (0.016762315821272186, 0.0013962204138629182, 0),
    }
    ABC_EARLIER_STREAMED = {
        (3.0, True, 8, None): (0.3671253784517272, 0.10009497769759484, 0),
        (30.0, False, 9, None): (0.014174982579802285, 0.0020932054638856936, 0),
        (30.0, True, 10, 0.5): (0.016762315821272186, 0.0013962204138629189, 0),
    }

    @pytest.mark.parametrize("key", list(FILTER))
    def test_filter_and_smoother(self, key):
        p, grid, linearized, wrap, seed = key
        f_mse, f_se, s_mse, s_se, cov_diag = self.FILTER[key]
        model, system, flux = _golden_system(p, grid)
        config = default_config(model, flux, seed=seed, duration_factor=20.0, linearized=linearized)
        whole = _whole_path_statistics(model, config, 6, wrap=wrap)
        res = simulate_filter_trials(
            model, config, 6, smoother=True, full_state_stats=True, wrap_errors=wrap
        )
        streamed = (res.filter_mse, res.filter_stderr, res.smoother_mse, res.smoother_stderr, res.error_cov)
        assert whole[:2] == (f_mse, f_se)
        assert streamed[:2] == self.FILTER_STREAMED[key]
        assert streamed[:2] == pytest.approx((f_mse, f_se), rel=1e-13)
        for values in (whole, streamed):
            assert values[2] == pytest.approx(s_mse, rel=1e-12)
            assert values[3] == pytest.approx(s_se, rel=1e-12)
            assert np.diag(values[4]) == pytest.approx(cov_diag, rel=1e-12)

    def test_linearized_step_loop_keeps_earlier_values(self):
        """The oracle loop, run in place of the scan, reproduces the
        linearized key's values from before the scan bit for bit."""
        model, system, flux = _golden_system(6, 100.0)
        config = default_config(model, flux, seed=7, duration_factor=20.0, linearized=True)
        f_mse, f_se, s_mse, s_se, cov_diag = self.STEP_LOOP
        res = _whole_path_statistics(model, config, 6, passes=linearized_error_passes)
        assert res[:2] == (f_mse, f_se)
        assert tuple(np.diag(res[4]).tolist()) == cov_diag
        assert res[2] == pytest.approx(s_mse, rel=1e-12)
        assert res[3] == pytest.approx(s_se, rel=1e-12)

    @pytest.mark.parametrize("key", list(TWO_PASS))
    def test_two_pass_smoother_keeps_earlier_values(self, key):
        """The two-pass backward sweep in oracles, run in place of the
        folded one, reproduces each key's whole-path values from before the
        fold bit for bit: the smoother (mse, stderr) as pinned in TWO_PASS,
        and the filter (mse, stderr), which the fold leaves as they were."""
        p, grid, linearized, wrap, seed = key
        model, system, flux = _golden_system(p, grid)
        config = default_config(model, flux, seed=seed, duration_factor=20.0, linearized=linearized)
        res = _whole_path_statistics(model, config, 6, wrap=wrap, passes=two_pass_error_passes)
        assert res[:4] == self.FILTER[key][:2] + self.TWO_PASS[key]

    @pytest.mark.parametrize("key", list(SIN_STEP_LOOP))
    def test_sin_step_loop_keeps_earlier_values(self, key):
        """The oracle loop, run in place of the innovation form, reproduces
        the sin() keys' values from before it: the filter (mse, stderr) bit
        for bit, the smoother and the covariance to 1e-12, as pinned."""
        p, grid, linearized, wrap, seed = key
        f_mse, f_se, s_mse, s_se, cov_diag = self.SIN_STEP_LOOP[key]
        model, system, flux = _golden_system(p, grid)
        config = default_config(model, flux, seed=seed, duration_factor=20.0, linearized=linearized)
        res = _whole_path_statistics(model, config, 6, wrap=wrap, passes=linearized_error_passes)
        assert res[:2] == (f_mse, f_se)
        assert res[2] == pytest.approx(s_mse, rel=1e-12)
        assert res[3] == pytest.approx(s_se, rel=1e-12)
        assert np.diag(res[4]) == pytest.approx(cov_diag, rel=1e-12)

    def _check_abc(self, key, whole, streamed):
        grid, wrap, seed, cutoff = key
        model, system, flux = _golden_system(2, grid, (cutoff,) if cutoff else ())
        config = default_config(model, flux, seed=seed, duration_factor=20.0)
        chi = math.sqrt(system.mu)
        mse, se, _, held = _whole_path_abc(model, config, 6, chi, wrap)
        assert (mse, se, held) == whole
        res = sim.run_abc_trials(model, config, 6, chi, wrap_errors=wrap)
        assert (res.mse, res.stderr, res.indeterminate_steps) == streamed
        assert (res.mse, res.stderr) == pytest.approx(whole[:2], rel=1e-13)

    @pytest.mark.parametrize("key", list(ABC))
    def test_abc(self, key):
        self._check_abc(key, self.ABC[key], self.ABC_STREAMED[key])

    @pytest.mark.parametrize("key", list(ABC_EARLIER))
    def test_abc_keeps_earlier_values(self, key, monkeypatch):
        """earlier_abc_loop, run in place of the loop, gives each key's
        values from before the loop moved theta in place bit for bit, whole
        and streamed."""
        monkeypatch.setattr(sim, "_abc_loop", earlier_abc_loop)
        self._check_abc(key, self.ABC_EARLIER[key], self.ABC_EARLIER_STREAMED[key])

    def _check_unwrapped_abc_windows(self, whole, streamed):
        model, system, flux = _golden_system(2, 30.0)
        config = default_config(model, flux, seed=9, duration_factor=20.0)
        chi = math.sqrt(system.mu)
        assert _whole_path_abc(model, config, 6, chi)[2].tolist() == whole
        res = sim.run_abc_trials(model, config, 6, chi)
        assert res.window_mse.tolist() == streamed
        assert res.window_mse == pytest.approx(whole, rel=1e-13)

    def test_unwrapped_abc_windows(self):
        self._check_unwrapped_abc_windows(
            [0.011136557804413768, 0.017023538812433084, 0.01657961806096393, 0.017125094625108323],
            [0.011136557804413768, 0.017023538812433087, 0.01657961806096393, 0.01712509462510832],
        )

    def test_unwrapped_abc_windows_keep_earlier_values(self, monkeypatch):
        monkeypatch.setattr(sim, "_abc_loop", earlier_abc_loop)
        self._check_unwrapped_abc_windows(
            [0.011136557804413767, 0.017023538812433084, 0.016579618060963936, 0.017125094625108327],
            [0.011136557804413767, 0.017023538812433087, 0.016579618060963933, 0.017125094625108327],
        )

    def test_abc_linearized(self):
        model = PhaseModel(4, 1.0, (0.3, 0.0))
        mse, se = run_abc_linearized_trials(model, 2.0, 0.005, 60.0, 10.0, 11, 6)
        assert mse == pytest.approx(0.32676991895226487, rel=1e-12)
        assert se == pytest.approx(0.017071769821753353, rel=1e-12)


class TestGoldenRecords:
    """Single records at fixed seeds: the loop paths repeat bit for bit,
    phi_s to 1e-14 of its peak. The filter record was re-captured when the
    filter loop moved to error coordinates, and its theta again when the
    sin() loop moved to the innovation form; the per-step loop in oracles,
    run in place of it, keeps the earlier values.

    Host dependency: the ABC record's ``==`` values, new and earlier,
    depend on numpy's SIMD complex multiply rounding like a fused
    multiply-add, as in TestGoldenValues; a host whose numpy takes the
    baseline two-rounding loop fails them with equally correct numbers. There,
    test_abc_feedback_matches_reference_bit_for_bit still pins the loop to
    the reference loop bit for bit. The filter record's theta rests on the
    sin() loop's BLAS gemm, as TestGoldenValues' sin() keys do. The ABC
    record moved in its last digits when the loop began to move theta in
    place; earlier_abc_loop, run in place of the loop, keeps the values from
    before (test_abc_record_keeps_earlier_values)."""

    IDX = [0, 1, 999, 3500, 6999]
    PHI = [0.0, 0.0, 0.40334874302367, 14.452083736328422, 25.93784052828132]
    Y = [-11.267044836684741, -22.463563655072928, 3.0769558399630093, 283.2274324278396, 503.0951133778633]
    PHI_S_PEAK = 21.64976327098816
    PHI_S = [4.016862919930709, 14.493465368849296, 21.648633343639403]

    def _check_filter_record(self, phi, theta, y, phi_s, expected_theta):
        assert phi[0, self.IDX].tolist() == self.PHI
        assert theta[0, self.IDX].tolist() == expected_theta
        assert y[0, self.IDX].tolist() == self.Y
        peak = self.PHI_S_PEAK
        assert np.nanmax(np.abs(phi_s[0])) == pytest.approx(peak, abs=1e-14 * peak)
        assert np.max(np.abs(phi_s[0, [2000, 3500, 4999]] - self.PHI_S)) <= 1e-14 * peak

    def test_filter_record(self):
        model, system, flux = _golden_system(4, 30.0)
        config = default_config(model, flux, seed=12, duration_factor=30.0)
        rec = simulate_record(model, config)
        theta = [0.0, -0.00825177773570956, 0.4377811087170864, 14.45560362744147, 25.943367283045347]
        self._check_filter_record(rec.phi, rec.theta, rec.y, rec.phi_s, theta)

    def test_filter_record_step_loop_keeps_earlier_values(self):
        """The record formed from the oracle loop's paths, as simulate_record
        forms it, has the values from before the innovation form bit for bit."""
        model, system, flux = _golden_system(4, 30.0)
        config = default_config(model, flux, seed=12, duration_factor=30.0)
        vf_tilde = solve_filter_covariance(4)
        dw, r = trial_noise(config.seed, 1, config.n_steps, config.dt)
        err, s_err, _ = linearized_error_passes(
            model, system, config, dw, r, scale_covariance(vf_tilde, system.mu),
            sim._smoothing_weights(vf_tilde, system.mu),
        )
        phi = sim._open_loop_phase(model, config.dt, dw)
        y = r / config.dt + phi * (2.0 * math.sqrt(flux))
        theta = [0.0, -0.00825177773570956, 0.43778110871708636, 14.45560362744147, 25.943367283045347]
        self._check_filter_record(phi, err + phi, y, s_err + phi, theta)

    def _check_abc_record(self, phi_abc, theta, y):
        model, system, flux = _golden_system(2, 30.0)
        config = default_config(model, flux, seed=13, duration_factor=30.0)
        rec = run_abc(model, config, math.sqrt(system.mu))
        assert rec.phi_abc[0, self.IDX].tolist() == phi_abc
        assert rec.theta[0, self.IDX].tolist() == theta
        assert rec.y[0, self.IDX].tolist() == y
        assert rec.diagnostics["indeterminate_steps"] == 0

    def test_abc_record(self):
        self._check_abc_record(
            [-1.5567445703423068, -1.785728572123637, -0.41036641248810307, -0.8468997000137606,
             -1.2514185817061023],
            [0.0, -1.5567445703423068, -0.41052732067024816, -0.8574740168916338, -1.25712633434016],
            [-81.41052507597831, -111.96549169660656, -23.658267117720595, 11.57831279380968,
             -41.23183609900512],
        )

    def test_abc_record_keeps_earlier_values(self, monkeypatch):
        monkeypatch.setattr(sim, "_abc_loop", earlier_abc_loop)
        self._check_abc_record(
            [-1.5567445703423068, -1.7857285721236371, -0.410366412488103, -0.8468997000137604,
             -1.251418581706102],
            [0.0, -1.5567445703423068, -0.4105273206702482, -0.8574740168916337, -1.25712633434016],
            [-81.41052507597831, -111.96549169660658, -23.658267117720595, 11.578312793809673,
             -41.23183609900512],
        )


def _close_to_peak(a: np.ndarray, b: np.ndarray, rtol: float) -> bool:
    return np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


@settings(max_examples=12, deadline=None)
@given(p=st.sampled_from([2, 4, 6, 8]), linearized=st.booleans(), seed=st.integers(0, 2**16))
def test_single_record_is_row_zero_of_an_ensemble(p, linearized, seed):
    """A trial's noise depends only on (seed, trial index), so simulate_record
    and run_abc are row 0 of a 3-trial run of the same loop. Elementwise paths
    match exactly; the filter's matmul at batch width 3 may reorder sums. The
    record adds the phase to the loop's errors, so they are compared in its
    terms: theta = phi + (theta - phi), and the same for phi_s."""
    model, system, flux = _golden_system(p, 30.0)
    config = default_config(model, flux, seed=seed, duration_factor=3.0, linearized=linearized)
    cov = covariance_set(system)
    rec = simulate_record(model, config)
    dw, db = trial_noise(config.seed, 3, config.n_steps, config.dt)
    smoothing = sim._smoothing_weights(solve_filter_covariance(p), system.mu)
    err, s_err = error_passes(model, system, config, dw, db, cov.vf, smoothing)
    assert err.shape == (3, config.n_steps)
    assert _close_to_peak(rec.phi[0] + err[0], rec.theta[0], 1e-12)
    win = sim._interior_slice(config.n_steps, config.dt, config.burn_in)
    assert _close_to_peak((rec.phi + s_err)[0, win], rec.phi_s[0, win], 1e-12)

    chi = 1.0 / system.time_scale
    rec = run_abc(model, config, chi)
    phi, est, idt, _ = abc_paths(model, config, 3, chi)
    y = idt / config.dt
    y += 2.0 * math.sqrt(config.photon_flux) * est[:, :-1]
    rows = {"phi": phi, "theta": est[:, :-1], "phi_abc": est[:, 1:], "y": y}
    for name, path in rows.items():
        assert np.array_equal(getattr(rec, name)[0], path[0]), name
    assert y.shape == (3, config.n_steps)


@pytest.mark.parametrize("linearized", [False, True], ids=["sin", "linearized"])
@pytest.mark.parametrize("p", [2, 4, 8])
def test_record_is_an_ensemble_that_keeps_its_paths(p, linearized):
    """A record runs the ensembles' block driver and keeps what it yields,
    its phase integrated block by block. Over a run of several blocks, a
    smoother record's paths are those of the whole-path routes over the
    same trial's noise, bit for bit, NaNs included: phi is _open_loop_phase
    over the whole dW, theta and phi_s are phi plus the errors of
    error_passes, and y is r / dt + 2 sqrt(N) phi, with the r that
    error_passes writes over dB."""
    model, system, flux = _golden_system(p, 30.0)
    config = default_config(model, flux, seed=p, duration_factor=3.0, linearized=linearized)
    assert config.n_steps > sim._STREAM_BLOCK
    rec = simulate_record(model, config)
    vf_tilde = solve_filter_covariance(p)
    dw, db = trial_noise(config.seed, 1, config.n_steps, config.dt)
    err, smoothed = error_passes(
        model, system, config, dw, db, scale_covariance(vf_tilde, system.mu),
        sim._smoothing_weights(vf_tilde, system.mu),
    )
    phi = sim._open_loop_phase(model, config.dt, dw)
    y = db / config.dt + 2.0 * math.sqrt(config.photon_flux) * phi
    for name, path in {"phi": phi, "theta": err + phi, "phi_s": smoothed + phi, "y": y}.items():
        assert np.array_equal(getattr(rec, name), path, equal_nan=True), name


@settings(max_examples=10, deadline=None)
@given(
    p=st.sampled_from([2, 4]),
    grid=st.floats(3.0, 100.0),
    seed=st.integers(0, 2**16),
    n_trials=st.integers(2, 4),
    abc=st.booleans(),
    cutoff=st.booleans(),
)
def test_ensembles_repeat_per_seed(p, grid, seed, n_trials, abc, cutoff):
    """Rerunning an ensemble (filter with smoother, or exponential window
    with or without a cutoff) with the same seed returns the same floats;
    the next seed returns different ones."""
    model, system, flux = _golden_system(p, grid, (0.5,) + (0.0,) * (p // 2 - 1) if abc and cutoff else ())

    def run(s):
        config = default_config(model, flux, seed=s, duration_factor=3.0)
        if abc:
            res = sim.run_abc_trials(model, config, n_trials, 1.0 / system.time_scale)
            return (res.mse, res.stderr, *res.window_mse.tolist(), res.indeterminate_steps)
        res = simulate_filter_trials(model, config, n_trials, smoother=True)
        return (res.filter_mse, res.filter_stderr, res.smoother_mse, res.smoother_stderr)

    first = run(seed)
    assert run(seed) == first
    assert run(seed + 1) != first


def _step_scan(x, m, g_dw, g_db, w, h_dw, dw, db):
    """The recurrence of _block_scan one step at a time: its readout and
    final state."""
    out = np.empty(dw.shape, dtype=dw.dtype)
    for i in range(dw.shape[1]):
        out[:, i] = x @ w + dw[:, i] * h_dw
        x = x @ m + dw[:, i, None] * g_dw + db[:, i, None] * g_db
    return out, x


def _scan_args(p: int, backward: bool):
    """(m, g_dw, g_db, w, h_dw) of the forward or backward error pass at
    grid 30, with the state size n and the step dt."""
    _, system, _ = _golden_system(p, 30.0)
    cov = covariance_set(system)
    w_f, w_r = sim._smoothing_weights(solve_filter_covariance(p), system.mu)
    n, dt = system.n_states, 0.01 * system.time_scale
    if backward:
        back = np.linalg.inv(np.eye(n) + system.a * dt)
        vr = retro_covariance(cov.vf)
        m = (back - np.outer(vr @ system.c, system.c) * dt).T
        return (m, back[:, 0] @ m, vr @ system.c, w_r, back[:, 0] @ w_r), n, dt
    gain = cov.vf @ system.c
    m = np.eye(n) + (system.a - np.outer(gain, system.c)).T * dt
    return (m, -np.eye(n)[0], gain, w_f, 0.0), n, dt


_K = sim._SCAN_BLOCK


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from(range(2, 21, 2)),
    n_steps=st.sampled_from([1, _K - 1, _K, _K + 1, 3 * _K + 5]),
    width=st.sampled_from([1, 3]),
    backward=st.booleans(),
    reversed_views=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_block_scan_matches_step_loop(p, n_steps, width, backward, reversed_views, seed):
    """Blocks, the partial last block and reversed views all give the
    step-by-step recurrence, on the matrices of both error passes."""
    args, n, dt = _scan_args(p, backward)
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(width, n))
    dw, db, out = rng.normal(0.0, math.sqrt(dt), size=(3, width, n_steps))
    start = out.copy()
    if reversed_views:
        dw, db, out, start = dw[:, ::-1], db[:, ::-1], out[:, ::-1], start[:, ::-1]
    x = sim._block_scan(x0, *args, dw, db, out)
    ref_out, ref_x = _step_scan(x0, *args, dw, db)
    assert _close_to_peak(out - start, ref_out, 1e-12)
    assert _close_to_peak(x, ref_x, 1e-12)


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("p", range(2, 21, 2))
def test_block_scan_matches_extended_precision_step_loop(p, backward):
    """The blocked scan of both error passes, over whole blocks and a
    partial last one, stays within 1e-13 of peak of the same recurrence
    stepped in np.longdouble on the same float64 inputs."""
    args, n, dt = _scan_args(p, backward)
    rng = np.random.default_rng(p)
    x0 = rng.normal(size=(3, n))
    dw, db = rng.normal(0.0, math.sqrt(dt), size=(2, 3, 3 * _K + 5))
    out = np.zeros_like(dw)
    x = sim._block_scan(x0, *args, dw, db, out)
    wide = [np.asarray(a, dtype=np.longdouble) for a in (x0, *args, dw, db)]
    ref_out, ref_x = _step_scan(*wide)
    assert _close_to_peak(out, ref_out, 1e-13)
    assert _close_to_peak(x, ref_x, 1e-13)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from(range(2, 21, 2)),
    n_steps=st.sampled_from([1, _K - 1, _K, _K + 1, 3 * _K + 5]),
    width=st.sampled_from([1, 3]),
    burn=st.integers(0, 2 * _K),
    seed=st.integers(0, 2**16),
)
@example(p=2, n_steps=3 * _K + 5, width=1, burn=0, seed=10961)  # final state at a zero crossing
def test_linearized_scan_matches_step_loop(p, n_steps, width, burn, seed):
    """A linearized run's forward error is one blocked scan. Over whole
    blocks, a partial one and a lone tail, it stays within 1e-13 of peak of
    the per-step loop in theta - phi, phi_s - phi, the final state that
    seeds the backward pass, and the interior moment sum, also over a
    window that may cut any block."""
    model, system, flux = _golden_system(p, 30.0)
    cov = covariance_set(system)
    smoothing = sim._smoothing_weights(solve_filter_covariance(p), system.mu)
    config = _bare_config(flux, n_steps, 0.01 * system.time_scale)  # every sample interior
    dw, db = trial_noise(seed, width, n_steps, config.dt)
    dw[:, -1] = 0.0  # so the backward pass's first readout is its seed, unchanged
    moment, ref_moment = np.zeros((2, width, system.n_states, system.n_states))
    err, s_err = error_passes(model, system, config, dw, db, cov.vf, smoothing, moment)
    ref_err, ref_s_err, ref_e = linearized_error_passes(
        model, system, config, dw, db, cov.vf, smoothing, ref_moment
    )
    assert _close_to_peak(err, ref_err, 1e-13)
    assert _close_to_peak(s_err, ref_s_err, 1e-13)
    assert _close_to_peak(moment, ref_moment, 1e-13)
    # The backward pass reads its seed, the scan's own final state: with
    # w_f = 0 the smoothed error at the last sample is kappa^(n+1/2) times
    # the seed read along w_r, and unit reads give the seed exactly. Its
    # theta - phi entry is held to 1e-13 of the forward path's peak, end
    # included, since the final state may sit at a zero crossing; the read
    # along w_r to 1e-13 of the seed's peak entry, since it may cancel.
    def seed_read(w_r):
        smoothed = error_passes(model, system, config, dw, db, cov.vf, (0.0 * w_r, w_r))[1]
        return smoothed[:, -1] / model.phase_scale

    seed_state = np.column_stack([seed_read(unit) for unit in np.eye(system.n_states)])
    path_peak = max(np.max(np.abs(ref_err)), np.max(np.abs(ref_e[:, -1])) * model.phase_scale)
    assert np.max(np.abs(seed_state[:, -1] - ref_e[:, -1])) * model.phase_scale <= 1e-13 * path_peak
    w_r = np.random.default_rng(seed).normal(size=system.n_states)
    seed_dev = np.abs(seed_read(w_r) - seed_state @ w_r)
    assert np.all(seed_dev <= 1e-13 * np.max(np.abs(seed_state), axis=1) * np.sum(np.abs(w_r)))
    # A trimmed window's sum, to 1e-13 of the whole record's peak: a short
    # window's own sum may be far below the squares it adds up.
    trimmed = dataclasses.replace(config, burn_in=min(burn, (n_steps - 1) // 2) * config.dt)
    part, ref_part = np.zeros((2,) + moment.shape)
    error_passes(model, system, trimmed, dw, db, cov.vf, error_moment=part)
    linearized_error_passes(model, system, trimmed, dw, db, cov.vf, error_moment=ref_part)
    assert np.max(np.abs(part - ref_part)) <= 1e-13 * np.max(np.abs(ref_moment))


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from(range(2, 21, 2)),
    n_steps=st.sampled_from([1, _K - 1, _K, _K + 1, 3 * _K + 5, sim._STREAM_BLOCK + _K + 1, 2 * sim._STREAM_BLOCK + 5]),
    width=st.sampled_from([1, 3, 16, 64]),
    burn=st.integers(0, 2 * _K),
    seed=st.integers(0, 2**16),
)
def test_sin_passes_match_step_loop(p, n_steps, width, burn, seed):
    """The sin() loop computes only r and theta - phi; forward scans then
    read out the moments and replay the smoother's w_f . e, and the loop's
    own e seeds the backward pass. Against the per-step loop that sums
    e e^T as it goes, which steps e with the closed-loop matrix where the
    loop takes the innovation form: r, theta - phi, phi_s - phi and the
    moment sum within 1e-13 of their peaks, also over a window that may cut
    any block."""
    model, system, flux = _golden_system(p, 30.0)
    vf = covariance_set(system).vf
    smoothing = sim._smoothing_weights(solve_filter_covariance(p), system.mu)
    config = _bare_config(flux, n_steps, 0.01 * system.time_scale, linearized=False)  # every sample interior
    dw, db = trial_noise(seed, width, n_steps, config.dt)
    r, ref_r = db.copy(), db.copy()
    moment, ref_moment = np.zeros((2, width, system.n_states, system.n_states))
    err, s_err = error_passes(model, system, config, dw, r, vf, smoothing, moment)
    ref_err, ref_s_err, _ = linearized_error_passes(model, system, config, dw, ref_r, vf, smoothing, ref_moment)
    assert _close_to_peak(err, ref_err, 1e-13)
    assert _close_to_peak(r, ref_r, 1e-13)
    assert _close_to_peak(s_err, ref_s_err, 1e-13)
    assert _close_to_peak(moment, ref_moment, 1e-13)
    # A trimmed window's sum with no smoother, so the scan reads out
    # nothing else; held to the whole record's peak, since a short window's
    # own sum may be far below the squares it adds up.
    trimmed = dataclasses.replace(config, burn_in=min(burn, (n_steps - 1) // 2) * config.dt)
    part, ref_part = np.zeros((2,) + moment.shape)
    error_passes(model, system, trimmed, dw, db.copy(), vf, error_moment=part)
    linearized_error_passes(model, system, trimmed, dw, db.copy(), vf, error_moment=ref_part)
    assert np.max(np.abs(part - ref_part)) <= 1e-13 * np.max(np.abs(ref_moment))


def _sin_step_loop_wide(model, system, config, dw, db, vf):
    """The sin() loop stepped one sample at a time in np.longdouble on the
    same float64 inputs, with the closed-loop matrix: e' = e F^T + r K^T -
    dW e_0^T. Returns theta - phi, r, the final e and the peak of each
    state component over the run."""
    wide = np.longdouble
    c, gain = system.c.astype(wide), vf.astype(wide) @ system.c.astype(wide)
    dt = wide(config.dt)
    step_t = np.eye(system.n_states, dtype=wide) + (system.a - np.outer(gain, c)).T * dt
    sin_gain = 2 * np.sqrt(wide(config.photon_flux)) * dt
    scale = wide(model.phase_scale)
    e = np.zeros((dw.shape[0], system.n_states), dtype=wide)
    err, r = np.empty(dw.shape, dtype=wide), db.astype(wide)
    peak = np.zeros(system.n_states, dtype=wide)
    for i in range(dw.shape[1]):
        d = scale * e[:, -1]
        err[:, i] = d
        r[:, i] += sin_gain * (d - np.sin(d))
        e = e @ step_t + r[:, i, None] * gain
        e[:, 0] -= dw[:, i]
        peak = np.maximum(peak, np.max(np.abs(e), axis=0))
    return err, r, e, peak


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from(range(2, 21, 2)),
    n_steps=st.sampled_from([1, _K - 1, _K + 1, sim._STREAM_BLOCK + 65, 2 * sim._STREAM_BLOCK + 5]),
    width=st.sampled_from([1, 3, 16, 64]),
    seed=st.integers(0, 2**16),
)
def test_sin_loop_matches_extended_precision_step_loop(p, n_steps, width, seed):
    """The sin() loop's innovation form, one product of the [e^ | sin d |
    dB | dW] rows per step, stays within 1e-13 of peak of the closed-loop
    recurrence stepped in np.longdouble: in theta - phi, in r, and in each
    component of the final state, the backward pass's seed (read exactly
    through unit weights w_r, with the last dW zero), against that
    component's peak over the run. 1e-13 is the level the blocked scan
    keeps to the same kind of reference
    (test_block_scan_matches_extended_precision_step_loop)."""
    model, system, flux = _golden_system(p, 30.0)
    vf = covariance_set(system).vf
    config = _bare_config(flux, n_steps, 0.01 * system.time_scale, linearized=False)
    dw, db = trial_noise(seed, width, n_steps, config.dt)
    dw[:, -1] = 0.0  # so the backward pass's first readout is its seed
    r = db.copy()
    err = error_passes(model, system, config, dw, r, vf)[0]
    ref_err, ref_r, ref_e, peak = _sin_step_loop_wide(model, system, config, dw, db, vf)
    assert _close_to_peak(err, ref_err, 1e-13)
    assert _close_to_peak(r, ref_r, 1e-13)
    zero = np.zeros(system.n_states)
    for k, unit in enumerate(np.eye(system.n_states)):
        s_err = error_passes(model, system, config, dw, db.copy(), vf, (zero, unit))[1]
        assert np.max(np.abs(s_err[:, -1] / model.phase_scale - ref_e[:, k])) <= 1e-13 * peak[k]


def _count_calls(monkeypatch, name: str) -> list:
    """Patch np.<name> with a wrapper that counts its calls; returns the
    one-item list that holds the count."""
    calls, original = [0], getattr(np, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np, name, counted)
    return calls


@pytest.mark.parametrize("p", [2, 8])
def test_sin_loop_makes_one_sin_and_one_matmul_per_step(monkeypatch, p):
    """A sin() filter-only run binds np.sin and np.matmul when it starts and
    calls each once per step: over runs of 1 step, a scan block + 1 and a
    stream block + 65 steps, each count exceeds n_steps by the same number,
    the calls its set-up makes, so no per-step or per-chunk call was added."""
    model, system, flux = _golden_system(p, 30.0)
    dt = 0.01 * system.time_scale
    extra = set()
    for n_steps in (1, _K + 1, sim._STREAM_BLOCK + 65):
        config = _bare_config(flux, n_steps, dt, linearized=False)
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_MIN_BURN_IN_FACTOR", 0.0)
            sins, matmuls = _count_calls(patch, "sin"), _count_calls(patch, "matmul")
            simulate_filter_trials(model, config, 3)
        extra.add((sins[0] - n_steps, matmuls[0] - n_steps))
    assert len(extra) == 1
    assert min(extra.pop()) >= 0


@pytest.mark.parametrize("width", [1, 16])
def test_abc_loop_makes_three_exps_and_no_mod_per_step(monkeypatch, width):
    """An ABC run binds np.exp and np.mod when it starts and makes three
    complex exponentials per step, one for the step's harmonics and one
    before each of the second and third Newton steps, and no np.mod: over
    runs of 1 step, a stream block + 65 and 65 steps, the exp count exceeds
    3 n_steps by the same number, the calls its set-up makes, so theta moves
    without a wrap by whole turns and no per-step exponential was added."""
    model, system, flux = _golden_system(2, 30.0)
    dt = 0.01 * system.time_scale
    extra = set()
    for n_steps in (1, sim._STREAM_BLOCK + 65, 65):
        config = _bare_config(flux, n_steps, dt, linearized=False)
        with monkeypatch.context() as patch:
            exps, mods = _count_calls(patch, "exp"), _count_calls(patch, "mod")
            abc_paths(model, config, width, 1.0 / system.time_scale)
        assert mods[0] == 0
        extra.add(exps[0] - 3 * n_steps)
    assert len(extra) == 1
    assert extra.pop() >= 0


@pytest.mark.parametrize("moments", [False, True], ids=["no-moments", "moments"])
@pytest.mark.parametrize("smoother", [False, True], ids=["filter", "smoother"])
@pytest.mark.parametrize("linearized", [False, True], ids=["sin", "linearized"])
def test_one_forward_scan_serves_every_readout(monkeypatch, linearized, smoother, moments):
    """A run makes one forward scan for theta - phi and the smoother's
    w_f . e (linearized runs) and the moments together, and none when a
    sin() run wants no moments: the sin() loop reads w_f . e from its own
    states, so no second forward scan replays it. The smoother's backward
    scans, over a run of one block of _K + 1 steps: one over the block's
    trials from a zero seed, and one from an identity seed per scan-block
    length (_K and 1) for the seed's share."""
    p, n_trials = 4, 3
    model, system, flux = _golden_system(p, 30.0)
    config = _bare_config(flux, _K + 1, 0.01 * system.time_scale, linearized)
    vf = covariance_set(system).vf
    smoothing = sim._smoothing_weights(solve_filter_covariance(p), system.mu) if smoother else None
    moment = np.zeros((n_trials, system.n_states, system.n_states)) if moments else None
    dw, db = trial_noise(0, n_trials, config.n_steps, config.dt)
    calls = []
    scan = sim._block_scan

    def counting_scan(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(sim, "_block_scan", counting_scan)
    error_passes(model, system, config, dw, db, vf, smoothing, moment)
    gain = vf @ system.c
    forward_m = np.eye(system.n_states) + (system.a - np.outer(gain, system.c)).T * config.dt
    forward = [args for args in calls if np.array_equal(args[1], forward_m)]
    assert len(forward) == (linearized or moments)
    backward = sorted((len(args[0]), args[6].shape[1]) for args in calls if not np.array_equal(args[1], forward_m))
    n = system.n_states
    assert backward == ([(n, 1), (n, _K), (n_trials, _K + 1)] if smoother else [])


_S = sim._STREAM_BLOCK


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from(range(2, 21, 2)),
    linearized=st.booleans(),
    wrap=st.booleans(),
    n_steps=st.sampled_from([1, _K - 1, _K, _K + 1, _S - 1, _S, _S + 1, _S + _K + 1, 2 * _S + 5]),
    n_trials=st.integers(2, 3),
    data=st.data(),
)
def test_folded_backward_pass_matches_two_pass_references(p, linearized, wrap, n_steps, n_trials, data):
    """The backward pass folded into the forward one (each block scanned
    from a zero seed while its dW and r are at hand, the seed's share added
    in one sweep back) against the whole-path two-pass reference, whose
    forward error is stepped one sample at a time (linearized_error_passes),
    and the two-pass sweep it replaces (two_pass_error_passes): even
    p <= 20, the sin() and linearized loops, lengths at the scan-block and
    stream-block edges and an interior window that may start and end in any
    block. theta - phi is the two-pass route's bit for bit; phi_s - phi is
    NaN where theirs is and elsewhere within 1e-13 of the larger of their
    peak and theta - phi's: a short window's own peak may be far below the
    errors whose floats its values come from. The
    ensemble, which keeps no path unwrapped and the partial smoothed error
    wrapped, has the smoother MSE and standard error of the two-pass paths
    within 1e-12, wrapped or not. The run's burn-in floor of 20 response
    times is set to zero, so a window can start anywhere."""
    burn = data.draw(st.integers(0, (n_steps - 1) // 2), label="burn")
    model, system, flux = _golden_system(p, 30.0)
    dt = 0.01 * system.time_scale
    config = HomodyneConfig(
        photon_flux=flux, dt=dt, duration=n_steps * dt, burn_in=burn * dt,
        seed=data.draw(st.integers(0, 2**16), label="seed"), linearized=linearized,
    )
    vf_tilde = solve_filter_covariance(p)
    vf = scale_covariance(vf_tilde, system.mu)
    smoothing = sim._smoothing_weights(vf_tilde, system.mu)
    dw, db = trial_noise(config.seed, n_trials, n_steps, dt)
    err, s_err = error_passes(model, system, config, dw, db.copy(), vf, smoothing)
    old_err, old_s_err = two_pass_error_passes(model, system, config, dw, db.copy(), vf, smoothing)
    ref_s_err = linearized_error_passes(model, system, config, dw, db.copy(), vf, smoothing)[1]
    assert np.array_equal(err, old_err)
    win = sim._interior_slice(n_steps, dt, config.burn_in)
    for ref in (old_s_err, ref_s_err):
        assert np.array_equal(np.isnan(s_err), np.isnan(ref))
        peak = max(np.max(np.abs(ref[:, win])), np.max(np.abs(err)))
        assert np.max(np.abs(s_err[:, win] - ref[:, win])) <= 1e-13 * peak
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_MIN_BURN_IN_FACTOR", 0.0)
        res = simulate_filter_trials(model, config, n_trials, smoother=True, wrap_errors=wrap)
    expected = mse_statistics(old_s_err, dt, config.burn_in, wrap)
    assert (res.smoother_mse, res.smoother_stderr) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    p=st.sampled_from(range(2, 21, 2)),
    dt_factor=st.floats(0.0025, 0.01),
    seed=st.integers(0, 2**16),
)
def test_linearized_ensemble_meets_discrete_filter_target(p, dt_factor, seed):
    """The linearized filter error is an Euler recurrence, whose own
    stationary covariance exceeds V_F by 0.5 % (p = 2) to 3.3 % (p = 20) at
    dt_factor 0.01. Ensembles land within 3 SE of that discrete target in
    the filter MSE and in every diagonal entry of the state covariance."""
    model, system, flux = _golden_system(p, 30.0)
    config = default_config(
        model, flux, seed=seed, duration_factor=400.0, dt_factor=dt_factor, linearized=True
    )
    res = simulate_filter_trials(model, config, 32, full_state_stats=True)
    target = scale_covariance(discrete_filter_covariance(p, dt_factor), system.mu)
    assert abs(res.filter_mse - model.phase_scale**2 * target[-1, -1]) <= 3.0 * res.filter_stderr
    dev = np.abs(np.diag(res.error_cov) - np.diag(target))
    assert np.all(dev <= 3.0 * np.diag(res.error_cov_stderr))


def _smoother_alloc_peak(p: int, n_trials: int = 8, n_steps: int = 6000, linearized: bool = False) -> int:
    """tracemalloc peak of a smoother ensemble: the sin() loop by default;
    linearized, with the full-state moments too."""
    model, system, flux = _golden_system(p, 30.0)
    dt = 0.01 * system.time_scale
    config = HomodyneConfig(
        photon_flux=flux, dt=dt, duration=n_steps * dt, burn_in=n_steps / 3 * dt, seed=p,
        linearized=linearized,
    )
    return _alloc_peak(
        lambda: simulate_filter_trials(model, config, n_trials, smoother=True, full_state_stats=linearized)
    )


@settings(max_examples=4, deadline=None)
@given(p=st.sampled_from([4, 8, 12, 16, 20]))
def test_smoother_memory_does_not_grow_with_p(p):
    """Only scalar (trials, steps) arrays, block buffers, are stored, so at
    fixed trials x steps the allocation peak grows with the chain length
    only by the per-run arrays of n states: the loop's chunk, the scan map
    and the seed's share of one scan block."""
    assert _smoother_alloc_peak(p) <= 1.15 * _smoother_alloc_peak(2)


@pytest.mark.parametrize("p", [4, 12, 20])
def test_linearized_moments_do_not_grow_with_p(p):
    """The linearized scan sums e e^T once per block from that block's
    states, so no (trials, steps, states) path is stored (42 MB at p = 20
    and 16 trials x 30000 steps): at each p the peak stays within the
    footprint check's estimate for the run, which counts its block
    buffers, its per-block sums and the maps, the moments' wide one among
    them."""
    n_states = _golden_system(p, 30.0)[1].n_states
    budget = sim._check_footprint("smoother", 16, 30000, n_states, moments=True)
    assert _smoother_alloc_peak(p, 16, 30000, True) <= budget


def test_scan_holds_one_block_map_at_a_time():
    """At 8 trials x 6000 steps, which ends in a partial block, a p = 20
    block map with moments (138 x 714 floats, 0.79 MB) is the largest array
    a linearized smoother holds. The peak stays within the footprint
    check's estimate for the run, which counts one such map beside the
    backward scan's and that of the second forward readout. Building the
    last block's shorter map (0.46 MB) while the full one is still held,
    or any (trials, steps, states) array (3.8 MB), exceeds it."""
    p, n_trials, n_steps = 20, 8, 6000
    budget = sim._check_footprint("smoother", n_trials, n_steps, p // 2, moments=True)
    assert _smoother_alloc_peak(p, n_trials, n_steps, True) <= budget


def _alloc_peak(run) -> int:
    """tracemalloc peak of run(). A full collection first empties CPython's
    free lists, so the objects the run frees into them count alike whatever
    ran earlier in the process."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("estimator", ["filter", "abc"])
def test_streamed_ensemble_memory_does_not_grow_with_duration(estimator, monkeypatch):
    """Filter-only and ABC ensembles keep only block buffers, so ten times
    the run length peaks within 10 % of the shorter run (a kept path of
    the longer run, 3.3 MB, would be several times the whole peak). To
    run 104 000 steps in about a second under tracemalloc, the filter runs
    linearized and the ABC loop body is a stand-in that writes the phase
    as its estimate; the real body allocates nothing per step
    (_abc_loop's contract, held bit for bit to the reference loop by
    test_abc_feedback_matches_reference_bit_for_bit)."""
    model, system, flux = _golden_system(2 if estimator == "abc" else 4, 30.0)
    chi = math.sqrt(system.mu)

    def stand_in(phi, idt, est):
        np.copyto(est, phi)
        return 0  # trial-steps held

    monkeypatch.setattr(sim, "_abc_loop", lambda config, n_trials, chi: stand_in)

    def peak(duration_factor):
        config = default_config(model, flux, seed=2, duration_factor=duration_factor, linearized=True)
        if estimator == "abc":
            return _alloc_peak(lambda: sim.run_abc_trials(model, config, 4, chi))
        return _alloc_peak(lambda: simulate_filter_trials(model, config, 4))

    assert peak(1000.0) <= 1.1 * peak(100.0)


def test_unwrapped_smoother_memory_does_not_grow_with_duration():
    """An unwrapped smoother ensemble keeps no path: per block of
    _STREAM_BLOCK steps only its span, the backward state x0 and the sums
    q0 and q1, 2 n + 1 floats per trial, so ten times the run length peaks
    within 10 % of the shorter run (a kept path of the longer run, 2.9 MB,
    would be several times the whole peak). It runs linearized, as the
    filter-only case of test_streamed_ensemble_memory_does_not_grow_with_duration
    does, to keep 104 000 steps under tracemalloc to about a second."""
    model, system, flux = _golden_system(4, 30.0)

    def peak(duration_factor):
        config = default_config(model, flux, seed=2, duration_factor=duration_factor, linearized=True)
        return _alloc_peak(lambda: simulate_filter_trials(model, config, 4, smoother=True))

    assert peak(1000.0) <= 1.1 * peak(100.0)


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([2, 4, 8]),
    linearized=st.booleans(),
    n_trials=st.integers(2, 3),
    n_steps=st.one_of(
        st.integers(1, sim._STREAM_BLOCK),
        st.sampled_from([sim._STREAM_BLOCK + d for d in (-1, 1, 65, sim._STREAM_BLOCK + 5)]),
    ),
    seed=st.integers(0, 2**16),
)
def test_streamed_smoother_matches_kept_noise(p, linearized, n_trials, n_steps, seed):
    """A smoother ensemble keeps no noise path: each block's dW and r live
    in block buffers, and its backward scan runs while the forward pass
    holds them, so it draws each span's noise once, in order. Its
    statistics equal those of the same run with dW and dB (over which the
    loop writes r) kept whole, bit for bit: over one span, a span +- 1
    step, a partial last span (+ 65) and two spans and a partial scan
    block, which has a span of its own (2 spans + 5)."""
    model, system, flux = _golden_system(p, 30.0)
    dt = 0.01 * system.time_scale
    config = HomodyneConfig(
        photon_flux=flux, dt=dt, duration=n_steps * dt, burn_in=n_steps // 4 * dt, seed=seed, linearized=linearized
    )
    draws, drawn = sim._noise_draws, []

    def logged_noise(seed, n_trials, dt, longest, clock):
        draw = draws(seed, n_trials, dt, longest, clock)

        def logged(span):
            drawn.append(span)
            return draw(span)

        return logged

    def kept_noise(seed, n_trials, dt, longest, clock):
        whole = draws(seed, n_trials, dt, n_steps, clock)(slice(0, n_steps))
        return lambda span: tuple(a[:, span] for a in whole)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_MIN_BURN_IN_FACTOR", 0.0)
        patch.setattr(sim, "_noise_draws", logged_noise)
        res = simulate_filter_trials(model, config, n_trials, smoother=True)
        patch.setattr(sim, "_noise_draws", kept_noise)
        ref = simulate_filter_trials(model, config, n_trials, smoother=True)
    assert drawn == list(sim._block_spans(n_steps))
    assert (res.filter_mse, res.filter_stderr) == (ref.filter_mse, ref.filter_stderr)
    assert (res.smoother_mse, res.smoother_stderr) == (ref.smoother_mse, ref.smoother_stderr)


@pytest.fixture(autouse=True)
def abc_stand_in(request, monkeypatch):
    """A case marked abc_stand_in runs the exponential-window loop with the
    stand-in body of test_streamed_ensemble_memory_does_not_grow_with_duration,
    which writes the phase as its estimate."""

    def stand_in(phi, idt, est):
        np.copyto(est, phi)
        return 0  # trial-steps held

    if request.node.get_closest_marker("abc_stand_in"):
        monkeypatch.setattr(sim, "_abc_loop", lambda config, n_trials, chi: stand_in)


@pytest.mark.parametrize(
    "kind, linearized, p, duration_factor, n_trials",
    [
        ("filter", False, 2, 20.0, 16), ("filter", True, 2, 20.0, 16), ("smoother", False, 2, 20.0, 16),
        ("smoother", True, 2, 20.0, 16), ("wrapped_smoother", False, 2, 20.0, 16), ("smoother", True, 4, 6000.0, 2),
        ("abc", False, 2, 20.0, 16), ("record", False, 2, 200.0, 1), ("record", True, 2, 200.0, 1),
        ("abc_record", False, 2, 200.0, 1), ("record", False, 2, 20.0, 1), ("record", True, 2, 20.0, 1),
        ("record", False, 20, 20.0, 1), ("record", True, 20, 20.0, 1), ("record", True, 2, 1000.0, 1),
        ("abc_record", False, 2, 1000.0, 1), ("filter", True, 2, 25000.0, 2),
        pytest.param("abc", False, 2, 10000.0, 2, marks=pytest.mark.abc_stand_in),
    ],
    ids=[
        "filter-sin", "filter-linearized", "smoother", "smoother-linearized", "wrapped_smoother",
        "smoother-linearized-604000", "abc", "record-sin", "record-linearized", "abc_record",
        "record-sin-6000-p2", "record-linearized-6000-p2", "record-sin-6000-p20", "record-linearized-6000-p20",
        "record-linearized-104000", "abc_record-104000", "filter-linearized-2504000", "abc-stand-in-1004000",
    ],
)
def test_ensemble_peak_within_footprint(kind, linearized, p, duration_factor, n_trials):
    """The memory estimate of the footprint check bounds what an ensemble
    or a record allocates: the arrays that _peak_arrays declares for the
    run (its whole paths, block buffers of _STREAM_BLOCK steps, the scan
    maps it holds at once and what a backward pass keeps per block) and
    the Python objects per run and per trial. A warm-up call first makes
    the process's one-time allocations, which a first call would count
    (about twice the estimate for a filter ensemble of 16 trials).
    Ensembles run 16 trials of 6000 steps, and a smoother 2 trials of
    604 000, where the per-block arrays outweigh the fixed ones. Records
    run one trial of simulate's default 24 000 steps; of 6000 steps,
    where the two block maps of a record's smoother, a fixed 0.13 MB at
    p = 2 and 0.16 MB at p = 20, weigh about three of its paths; and of
    a default sweep point's 104 000 steps, where its paths outweigh the
    rest. Two-trial filter and exponential-window ensembles of 2 504 000
    and 1 004 000 steps would overrun the estimate if a block left Python
    objects behind; the exponential window's runs the stand-in loop body
    (abc_stand_in), since those objects would come from the block driver."""
    model, system, flux = _golden_system(p, 30.0)
    config = default_config(model, flux, seed=3, duration_factor=duration_factor, linearized=linearized)
    n_steps = config.n_steps
    if kind == "abc":
        def run():
            sim.run_abc_trials(model, config, n_trials, math.sqrt(system.mu))
    elif kind == "abc_record":
        def run():
            run_abc(model, config, math.sqrt(system.mu))
    elif kind == "record":
        def run():
            simulate_record(model, config)
    else:
        def run():
            simulate_filter_trials(
                model, config, n_trials, smoother=kind != "filter", wrap_errors=kind == "wrapped_smoother"
            )
    run()
    assert _alloc_peak(run) <= sim._check_footprint(kind, n_trials, n_steps, system.n_states)


@st.composite
def _footprint_runs(draw):
    """A run that the run checks accept, built through default_config, as
    (kind, p, n_trials, duration_factor, dt_factor, linearized, moments,
    option): every kind, the filter's at p in {2, 4, 8, 12, 20} and the
    exponential window's at p = 2, ensembles of 2, 3, 4 or 16 trials and
    one-trial records. ``moments`` are a filter ensemble's full-state
    statistics; ``option`` is wrap_errors of an exponential-window
    ensemble and smoother=False of a filter record."""
    kind = draw(st.sampled_from(["filter", "smoother", "wrapped_smoother", "abc", "record", "abc_record"]))
    p = 2 if kind.startswith("abc") else draw(st.sampled_from([2, 4, 8, 12, 20]))
    n_trials = 1 if kind.endswith("record") else draw(st.sampled_from([2, 3, 4, 16]))
    duration_factor, dt_factor = draw(st.sampled_from([0.5, 3.0, 20.0])), draw(st.sampled_from([0.01, 0.005]))
    linearized = draw(st.booleans()) and kind != "abc_record"
    moments = draw(st.booleans()) and kind in ("filter", "smoother", "wrapped_smoother")
    return kind, p, n_trials, duration_factor, dt_factor, linearized, moments, draw(st.booleans())


@settings(max_examples=12, deadline=None)
@example(run=("abc", 2, 3, 20.0, 0.01, False, False, False))
@given(run=_footprint_runs())
def test_run_peak_within_footprint(run):
    """The footprint check's estimate bounds what any run it accepts
    allocates, as tracemalloc counts it after a warm-up call, whatever the
    kind, p, trials and grid. The example, a 3-trial exponential-window
    ensemble of 6000 steps, needs the chain's temporaries and the Python
    objects per run and per trial in the estimate."""
    kind, p, n_trials, duration_factor, dt_factor, linearized, moments, option = run
    model, system, flux = _golden_system(p, 30.0)
    config = default_config(model, flux, 3, duration_factor, dt_factor, linearized=linearized)
    chi = math.sqrt(system.mu)
    calls = {
        "abc": lambda: sim.run_abc_trials(model, config, n_trials, chi, wrap_errors=option),
        "abc_record": lambda: run_abc(model, config, chi),
        "record": lambda: simulate_record(model, config, smoother=not option),
    }
    call = calls.get(kind, lambda: simulate_filter_trials(
        model, config, n_trials, kind != "filter", full_state_stats=moments, wrap_errors=kind == "wrapped_smoother"
    ))
    call()
    assert _alloc_peak(call) <= sim._check_footprint(kind, n_trials, config.n_steps, system.n_states, moments)


@settings(max_examples=300, deadline=None)
@given(
    window=st.tuples(st.integers(0, 70), st.integers(0, 70)),
    start=st.integers(0, 50),
    k=st.integers(1, 20),
)
def test_columns_are_the_window_within_the_block(window, start, k):
    """_columns, which every run uses to find an interior or a window in a
    block, picks out of a block of k steps the columns that a boolean mask
    of the window over the whole run marks, empty windows included, as a
    slice whose ends lie in [0, k]."""
    win, span = slice(*window), slice(start, start + k)
    mask = np.zeros(80, dtype=bool)
    mask[win] = True
    cols = sim._columns(win, span)
    assert 0 <= cols.start <= k and 0 <= cols.stop <= k
    assert np.array_equal(np.arange(k)[cols], np.flatnonzero(mask[span]))


_L = 2 * sim._SCAN_BLOCK  # the block length the block-edge property streams with


@settings(max_examples=40, deadline=None)
@given(
    estimator=st.sampled_from(["filter", "abc"]),
    p=st.sampled_from([2, 4, 6]),
    linearized=st.booleans(),
    wrap=st.booleans(),
    n_steps=st.sampled_from([1, 3, _K - 1, _K, _K + 1, _L - 1, _L, _L + 1, 2 * _L - 1, 2 * _L + 1, 3 * _L - 5, 3 * _L]),
    n_trials=st.integers(2, 3),
    data=st.data(),
)
def test_streamed_statistics_match_whole_paths(estimator, p, linearized, wrap, n_steps, n_trials, data):
    """Ensembles reduce their errors block by block. Against mse_statistics
    and windowed_mse on the whole paths of the same trials (the records'
    path-keeping route), over 1 to 3 blocks of _L steps, lengths at a
    block or scan block +- 1 and interior windows that start and end
    inside a block: the filter, ABC and window MSEs and their standard
    errors within 1e-13, the smoother's within 1e-12, error_cov within
    1e-12 of its peak entry, and the same divergence flag. The streamed
    block length is set to _L, and the run's burn-in floor of 20 response
    times to zero, so a few hundred steps span three blocks."""
    if estimator == "abc":  # p = 2, and windows that start after step 0
        p, n_steps = 2, max(n_steps, 3)
    burn = data.draw(st.integers(estimator == "abc", (n_steps - 1) // 2), label="burn")
    model, system, flux = _golden_system(p, 30.0)
    dt = 0.01 * system.time_scale
    config = HomodyneConfig(
        photon_flux=flux, dt=dt, duration=n_steps * dt, burn_in=burn * dt,
        seed=data.draw(st.integers(0, 2**16), label="seed"), linearized=linearized,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_STREAM_BLOCK", _L)
        patch.setattr(sim, "_MIN_BURN_IN_FACTOR", 0.0)
        if estimator == "abc":
            chi = 1.0 / system.time_scale
            mse, se, wins, held = _whole_path_abc(model, config, n_trials, chi, wrap)
            res = sim.run_abc_trials(model, config, n_trials, chi, wrap_errors=wrap)
            assert (res.mse, res.stderr) == pytest.approx((mse, se), rel=1e-13)
            assert res.window_mse == pytest.approx(wins, rel=1e-13)
            assert res.diverged == bool(np.all(np.diff(wins) > 0))
            assert res.indeterminate_steps == held
            return
        whole = _whole_path_statistics(model, config, n_trials, wrap=wrap)
        res = simulate_filter_trials(model, config, n_trials, smoother=True, full_state_stats=True, wrap_errors=wrap)
    assert (res.filter_mse, res.filter_stderr) == pytest.approx(whole[:2], rel=1e-13)
    assert (res.smoother_mse, res.smoother_stderr) == pytest.approx(whole[2:4], rel=1e-12)
    assert _close_to_peak(res.error_cov, whole[4], 1e-12)


def _per_slice_sums(slices, blocks, n_trials, wrap):
    """Per-trial sums of err^2 over each slice, each slice that a block
    overlaps squaring its own copy of that part of the block."""
    sums = np.zeros((len(slices), n_trials))
    for start, err in blocks:
        for total, s in zip(sums, slices):
            lo, hi = max(s.start - start, 0), min(s.stop - start, err.shape[1])
            if lo < hi:
                part = err[:, lo:hi]
                if wrap:
                    part = part + math.pi
                    np.mod(part, 2.0 * math.pi, out=part)
                    part -= math.pi
                total += np.sum(np.square(part), axis=1)
    return sums


@settings(max_examples=60, deadline=None)
@given(
    cuts=st.lists(st.integers(1, 90), min_size=1, max_size=3),
    n_trials=st.integers(2, 3),
    wrap=st.booleans(),
    windows=st.booleans(),
    reverse=st.booleans(),
    scale=st.sampled_from([0.1, 10.0]),
    data=st.data(),
)
def test_error_sums_square_each_block_once(cuts, n_trials, wrap, windows, reverse, scale, data):
    """_ErrorSums squares each block once and sums every slice from that
    array. Over 1 to 3 blocks, fed in order or reversed as views into a
    wider NaN buffer, wrapped or not, with the interior and log-spaced
    window edges anywhere in a block, its sums == those of squaring each
    slice's own copy of the block."""
    cuts[-1] += max(3 - sum(cuts), 0)  # room for a burn-in step at each end
    n_steps = sum(cuts)
    burn = data.draw(st.integers(1, (n_steps - 1) // 2), label="burn")
    config = HomodyneConfig(photon_flux=1.0, dt=1.0, duration=float(n_steps), burn_in=float(burn), seed=0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    err = rng.normal(0.0, scale, size=(n_trials, n_steps))
    edges = np.cumsum([0] + cuts)
    blocks = []
    for a, b in zip(edges, edges[1:]):
        wide = np.full((n_trials, max(cuts) + 3), np.nan)  # a driver's block buffer
        wide[:, : b - a] = err[:, a:b]
        blocks.append((a, wide[:, : b - a]))
    blocks = blocks[::-1] if reverse else blocks
    sums = sim._ErrorSums(n_trials, config, wrap, windows)
    for start, block in blocks:
        sums.add(start, block)
    assert np.array_equal(sums.sums, _per_slice_sums(sums.slices, blocks, n_trials, wrap))


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([2, 4, 6]),
    damped=st.booleans(),
    cuts=st.lists(st.integers(1, 200), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_chain_in_blocks_is_one_whole_call(p, damped, cuts, seed):
    """The phase integrated block by block, each block starting from the
    carry of the one before, has the floats of one call over the whole
    record, bit for bit, damped stages included."""
    model = PhaseModel(p, 1.0, (0.5,) + (0.0,) * (p // 2 - 1) if damped else ())
    edges = np.cumsum([0] + cuts)
    dw = np.random.default_rng(seed).normal(0.0, 0.1, size=(3, edges[-1]))
    carry = []
    blocks = [sim._open_loop_phase(model, 0.01, dw[:, a:b], carry) for a, b in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate(blocks, axis=1), sim._open_loop_phase(model, 0.01, dw))


@pytest.mark.parametrize("run", ["filter", "smoother", "abc", "record", "abc_record"])
def test_stage_times_cover_the_run(run):
    """Every result carries stage_s with each stage of _STAGES, all >= 0,
    and on a run of 6000 steps the stages add up to at least 90 % of the
    call's wall time."""
    model, system, flux = _golden_system(2, 30.0)
    config = default_config(model, flux, seed=4, duration_factor=20.0)
    assert config.n_steps >= 5000
    chi = math.sqrt(system.mu)
    calls = {
        "filter": lambda: simulate_filter_trials(model, config, 4),
        "smoother": lambda: simulate_filter_trials(model, config, 4, smoother=True, full_state_stats=True),
        "abc": lambda: sim.run_abc_trials(model, config, 4, chi),
        "record": lambda: simulate_record(model, config),
        "abc_record": lambda: run_abc(model, config, chi),
    }
    start = time.perf_counter()
    res = calls[run]()
    wall = time.perf_counter() - start
    assert list(res.stage_s) == list(sim._STAGES)
    assert all(v >= 0.0 for v in res.stage_s.values())
    assert sum(res.stage_s.values()) >= 0.9 * wall


_err_arrays = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 5), st.integers(12, 60)),
    elements=st.floats(-3.0, 3.0),
)


@settings(max_examples=50, deadline=None)
@given(err=_err_arrays, k=st.integers(0, 5))
def test_mse_statistics_is_interior_mean_of_squares(err, k):
    """Mean over trials of each trial's interior mean of err^2; the stderr
    is the sample std of those means over sqrt(trials)."""
    k = min(k, (err.shape[1] - 1) // 2)
    per_trial = [np.mean(row[k : len(row) - k] ** 2) for row in err]
    mse, se = mse_statistics(err, dt=1.0, burn_in=float(k))
    assert mse == pytest.approx(np.mean(per_trial), rel=1e-12)
    assert se == pytest.approx(np.std(per_trial, ddof=1) / math.sqrt(len(err)), rel=1e-9, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(err=_err_arrays, data=st.data())
def test_wrapped_reductions_ignore_whole_turns(err, data):
    """With wrap=True, adding 2 pi k to any entry (a cycle slip) leaves both
    reductions unchanged."""
    turns = data.draw(hnp.arrays(np.int64, err.shape, elements=st.integers(-50, 50)))
    slipped = err + 2.0 * math.pi * turns
    mse, se = mse_statistics(err, dt=0.5, burn_in=1.0, wrap=True)
    assert mse_statistics(slipped, dt=0.5, burn_in=1.0, wrap=True) == pytest.approx((mse, se), abs=1e-9)
    wins = windowed_mse(err, dt=0.5, start=1.0, wrap=True)
    assert windowed_mse(slipped, dt=0.5, start=1.0, wrap=True) == pytest.approx(wins, abs=1e-9)


def _accuracy_ratios(p: int, duration_factor: float, n_trials: int) -> tuple[float, float]:
    """filter_mse / lg_filter_mse and p * smoother_mse / lg_filter_mse of a
    linearized ensemble at grid 30, seed 1; both tend to 1."""
    model, system, flux = _golden_system(p, 30.0)
    config = default_config(model, flux, seed=1, duration_factor=duration_factor, linearized=True)
    res = simulate_filter_trials(model, config, n_trials, smoother=True)
    lg = lg_filter_mse(system)
    return res.filter_mse / lg, p * res.smoother_mse / lg


class TestErrorCoordinates:
    """The loops carry only the estimation error, so the filter and the
    smoother reach their stationary MSEs for every even p <= 20, even when
    the chain state itself outgrows float64's resolution of that error."""

    @pytest.mark.parametrize("p", range(2, 21, 2))
    def test_ratios_near_one(self, p):
        ratios = _accuracy_ratios(p, 50.0, 16)
        assert ratios == pytest.approx((1.0, 1.0), abs=0.15)

    @pytest.mark.parametrize("p", [6, 20])
    def test_ratios_near_one_in_long_runs(self, p):
        ratios = _accuracy_ratios(p, 1000.0, 4)
        assert ratios == pytest.approx((1.0, 1.0), abs=0.15)

    @pytest.mark.parametrize("p", range(2, 21, 2))
    def test_smoothing_weights_sum_to_phase_row(self, p):
        """w_f[-1] + w_r[-1] = e_n, which turns the information sum of the
        two estimates into the same sum of their errors."""
        _, system, _ = _golden_system(p, 30.0)
        w_f, w_r = sim._smoothing_weights(solve_filter_covariance(p), system.mu)
        unit = np.zeros(system.n_states)
        unit[-1] = 1.0
        assert np.max(np.abs(w_f + w_r - unit)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(range(2, 21, 2)), log_mu=st.floats(-12.0, 12.0))
def test_closed_form_smoothing_weights(p, log_mu):
    """The weights built from the closed forms Vt_S and Vt_R = Vt_F^-1 sum
    to e_n within 1e-12 of their peak at every even p <= 20 and mu in
    10^[-12, 12]; float inverses of the information sum miss by up to
    1.5e-9. They agree with those inverse-based weights within
    32 eps cond(Vt_F) of the peak, the inverses' own error scale (the
    largest ratio seen in 40 000 draws was 20, at p = 6)."""
    mu = 10.0**log_mu
    vt = solve_filter_covariance(p)
    w_f, w_r = sim._smoothing_weights(vt, mu)
    peak = max(np.max(np.abs(w_f)), np.max(np.abs(w_r)))
    assert np.max(np.abs(w_f + w_r - np.eye(p // 2)[-1])) <= 1e-12 * peak
    ref_f, ref_r = smoothing_weights_inverse(scale_covariance(vt, mu))
    tol = 32 * np.finfo(float).eps * np.linalg.cond(vt) * peak
    assert np.max(np.abs(w_f - ref_f)) <= tol
    assert np.max(np.abs(w_r - ref_r)) <= tol


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(range(2, 21, 2)), log_dt=st.floats(-8.0, 0.0))
def test_backward_constants_are_the_inverse_forms(p, log_dt):
    """The backward pass's scan takes V_R C^T as the forward gain signed
    (-1)^(n-k), bit for bit retro_covariance(V_F) C^T, and B = (I + A dt)^-1
    as (-dt)^k on its k-th subdiagonal, within 1e-15 of the float inverse.
    It scans (B - V_R C^T C dt)^T, and C = sqrt(mu) e_n^T changes only the
    last column of B, which is e_n, so every other column reads back as B's."""
    model, system, flux = _golden_system(p, 30.0)
    dt = 10.0**log_dt
    vf = covariance_set(system).vf
    scans = []
    scan = sim._block_scan

    def recording_scan(*args):
        scans.append(args)
        return scan(*args)

    quiet = np.zeros((1, 2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_block_scan", recording_scan)
        smoothing = sim._smoothing_weights(solve_filter_covariance(p), system.mu)
        error_passes(model, system, _bare_config(flux, 2, dt), quiet, quiet.copy(), vf, smoothing)
    back_t, _, retro_gain = scans[-1][1:4]
    assert np.array_equal(retro_gain, retro_covariance(vf) @ system.c)
    n = system.n_states
    back = np.linalg.inv(np.eye(n) + system.a * dt)
    assert np.all(np.abs(back_t.T[:, :-1] - back[:, :-1]) <= 1e-15)
