"""Feedback-loop simulation, offline passes, smoothing, and MSE statistics."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    abc_feedback_reference,
    chain_cumsum,
    discrete_filter_covariance,
    linearized_error_passes,
    run_abc_linearized_trials,
    smoothing_weights_inverse,
    trial_noise_normal,
)

from phasetrack.errors import ValidationError
from phasetrack.lg import build_lg_system, covariance_set, lg_filter_mse, retro_covariance, scale_covariance
from phasetrack.lg import solve_filter_covariance
from phasetrack.phase_process import PhaseModel
from phasetrack import simulation as sim
from phasetrack.simulation import (
    HomodyneConfig,
    default_config,
    mse_statistics,
    run_abc,
    simulate_filter_trials,
    simulate_record,
    windowed_mse,
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
        assert sim._run_system(model, config).time_scale == tau
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

    def test_backward_pass_leaves_causal_path_unchanged(self):
        model, system, config = _setup(duration_factor=30.0)
        cov = covariance_set(system)
        runs = []
        for smoothing in (None, sim._smoothing_weights(solve_filter_covariance(model.p), system.mu)):
            dw, db = sim._trial_noise(config.seed, 2, config.n_steps, config.dt)
            runs.append((db,) + sim._error_passes(model, system, config, dw, db, cov.vf, smoothing))
        (db_bare, err_bare, s_bare), (db_kept, err_kept, s_kept) = runs
        assert s_bare is None and s_kept.shape == (2, config.n_steps)
        assert np.array_equal(err_kept, err_bare)
        assert np.array_equal(db_kept, db_bare)

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

    def test_rescaled_signal_definition(self):
        model, system, config = _setup(duration_factor=30.0)
        rec = simulate_record(model, config)
        two_rn = 2 * math.sqrt(config.photon_flux)
        db = sim._trial_noise(config.seed, 1, config.n_steps, config.dt)[1]
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
    """Full forward and backward error states of _error_passes, one state
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
            s_err = sim._error_passes(model, system, config, dw.copy(), r.copy(), vf, weights)[1]
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
    noise = sim._trial_noise(seed, n_trials, n_steps, dt)
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
            err = sim._error_passes(model, system, config, quiet, quiet.copy(), cov.vf)[0]
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
        err = sim._error_passes(model, system, config, np.zeros_like(r), r, cov.vf)[0][0]
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
        s_err = sim._error_passes(model, system, config, quiet, quiet.copy(), cov.vf, smoothing)[1]
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
        proj = sim._error_passes(model, system, config, noise[0], noise[1], cov.vf, (w_f, w_r))[1]
        assert proj.shape == noise[1].shape
        assert np.allclose(proj / model.phase_scale, fwd @ w_f + back @ w_r, rtol=1e-12, atol=0.0)

    def test_retro_error_variance_p2(self):
        """Stationary anticausal phase error variance matches the predicted
        V_R (which equals V_F for p=2)."""
        model, system, config = _setup(p=2, flux=100.0, duration_factor=300.0, seed=31)
        cov = covariance_set(system)
        # weights (0, 1) keep the backward error alone; p = 2 has one state
        dw, db = sim._trial_noise(config.seed, 24, config.n_steps, config.dt)
        smoothing = (np.zeros(1), np.ones(1))
        s_err = sim._error_passes(model, system, config, dw, db, cov.vf, smoothing)[1]
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
            dw = sim._trial_noise(config.seed, 1, n, dt)[0][0]
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
    runs it: seeded with e^(i theta), e^(2i theta), under the loop's
    errstate. Returns copies of its (cand, hold) buffers."""
    update = sim._abc_phase_updater(flux, len(theta))
    with np.errstate(divide="ignore", invalid="ignore"):
        cand, hold = update(ab, theta, np.exp([[1j], [2j]] * theta))
    return cand.copy(), hold.copy()


class TestAbc:
    def test_no_signal_holds_initial_phase(self):
        # flux 0: the functionals carry no weight, so theta never moves
        model = PhaseModel(2, 1.0)
        config = HomodyneConfig(photon_flux=0.0, dt=0.01, duration=10.0, burn_in=1.0, seed=5)
        rec = run_abc(model, config, chi=2.0)
        assert np.all(rec.phi_abc == 0.0)
        assert rec.abc_indeterminate_steps == len(rec.t)

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
    cand = theta + np.mod(new - theta + np.pi, 2.0 * np.pi) - np.pi
    return cand, hold


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 7, 4096]),
    seed=st.integers(0, 2**32 - 1),
    flux=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
)
def test_stacked_phase_update_matches_per_array_step(n, seed, flux):
    """The stacked Newton step gives the per-array step's candidates and hold
    mask exactly: on trials that hold, that meet curv >= 0 (no step), and
    whose steps are clipped at +-1. A wide batch is needed to see a one-ulp
    change: swapping the operands of the complex product, which differ
    under fused multiply-add, moved 36 of 100 000 candidates at flux 10."""
    rng = np.random.default_rng(seed)
    parts = rng.uniform(-5.0, 5.0, (4, n)) * (rng.random((4, n)) < 0.8)  # some exact zeros
    parts[:, rng.random(n) < 0.1] = 0.0  # and some a = b = 0
    a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    theta = rng.uniform(-10.0, 10.0, n)
    cand_ref, hold_ref = _per_array_phase_update(a, b, theta, np.exp(1j * theta), flux)
    cand, hold = _phase_update(np.stack([a, b]), theta, flux)
    assert np.array_equal(hold, hold_ref)
    assert np.array_equal(cand, cand_ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    width=st.sampled_from([1, 2, 16, 33]),
    p=st.sampled_from([2, 4]),
    damped=st.booleans(),
    linearized=st.booleans(),
    grid=st.one_of(st.just(0.0), st.floats(3.0, 30.0), st.floats(30.0, 100.0)),
    n_steps=st.integers(1, 1000),
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
    got = sim._run_abc_feedback(model, config, width, chi)
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


class TestGoldenValues:
    """Ensemble statistics at fixed seeds. Filter and exponential-window MSEs
    must repeat bit for bit; the smoother and the state covariance may only
    reorder floating-point sums. The filter and smoother values were
    re-captured when the filter loop moved to error coordinates, and the
    linearized key again when linearized runs became one blocked scan
    (test_linearized_step_loop_keeps_earlier_values holds the step loop to
    the values before that).

    Host dependency: the exponential-window values (test_abc,
    test_unwrapped_abc_windows) were captured with numpy's SIMD complex
    multiply, which rounds like a fused multiply-add on an FMA-capable x86
    host. A numpy build or CPU that takes the baseline two-rounding loop
    gives equally correct but different last bits, and fails these ``==``
    checks. test_abc_feedback_matches_reference_bit_for_bit is the
    host-independent check: it holds the loop to the reference loop in
    oracles, which takes the same complex products, on any host."""

    FILTER = {
        # (p, grid, linearized, wrap, seed): (filter mse, stderr, smoother mse, stderr, error_cov diagonal)
        (4, 30.0, False, False, 5): (
            0.020609963629765967, 0.0025439650068320215, 0.003804005410285655, 0.0005871294568978777,
            (0.40181317999885596, 0.02060996362976596),
        ),
        (2, 3.0, False, True, 6): (
            0.1891176535753177, 0.026324053903938785, 0.08093454912555417, 0.012173578159771159,
            (0.1891176535753177,),
        ),
        (6, 100.0, True, False, 7): (
            0.007415712533124484, 0.0007533531926805906, 0.0011317735141486622, 0.00020476212895835183,
            (0.6494526284546283, 0.10505557844124465, 0.0074157125331244834),
        ),
    }
    # The linearized key as the per-step forward loop gave it
    STEP_LOOP = (
        0.007415712533124494, 0.0007533531926805919, 0.0011317735141486652, 0.00020476212895835267,
        (0.6494526284546277, 0.10505557844124445, 0.007415712533124494),
    )
    ABC = {
        # (grid, wrap, seed, cutoff): (mse, stderr, indeterminate steps)
        (3.0, True, 8, None): (0.3671253784517272, 0.10009497769759486, 0),
        (30.0, False, 9, None): (0.014174982579802287, 0.0020932054638856936, 0),
        (30.0, True, 10, 0.5): (0.016762315821272186, 0.0013962204138629182, 0),
    }

    @pytest.mark.parametrize("key", list(FILTER))
    def test_filter_and_smoother(self, key):
        p, grid, linearized, wrap, seed = key
        f_mse, f_se, s_mse, s_se, cov_diag = self.FILTER[key]
        model, system, flux = _golden_system(p, grid)
        config = default_config(model, flux, seed=seed, duration_factor=20.0, linearized=linearized)
        res = simulate_filter_trials(
            model, config, 6, smoother=True, full_state_stats=True, wrap_errors=wrap
        )
        assert (res.filter_mse, res.filter_stderr) == (f_mse, f_se)
        assert res.smoother_mse == pytest.approx(s_mse, rel=1e-12)
        assert res.smoother_stderr == pytest.approx(s_se, rel=1e-12)
        assert np.diag(res.error_cov) == pytest.approx(cov_diag, rel=1e-12)

    def test_linearized_step_loop_keeps_earlier_values(self, monkeypatch):
        """The oracle loop, run in place of the scan, reproduces the
        linearized key's values from before the scan bit for bit."""
        monkeypatch.setattr(sim, "_error_passes", lambda *args: linearized_error_passes(*args)[:2])
        model, system, flux = _golden_system(6, 100.0)
        config = default_config(model, flux, seed=7, duration_factor=20.0, linearized=True)
        res = simulate_filter_trials(model, config, 6, smoother=True, full_state_stats=True)
        f_mse, f_se, s_mse, s_se, cov_diag = self.STEP_LOOP
        assert (res.filter_mse, res.filter_stderr) == (f_mse, f_se)
        assert tuple(np.diag(res.error_cov).tolist()) == cov_diag
        assert res.smoother_mse == pytest.approx(s_mse, rel=1e-12)
        assert res.smoother_stderr == pytest.approx(s_se, rel=1e-12)

    @pytest.mark.parametrize("key", list(ABC))
    def test_abc(self, key):
        grid, wrap, seed, cutoff = key
        model, system, flux = _golden_system(2, grid, (cutoff,) if cutoff else ())
        config = default_config(model, flux, seed=seed, duration_factor=20.0)
        res = sim.run_abc_trials(model, config, 6, math.sqrt(system.mu), wrap_errors=wrap)
        assert (res.mse, res.stderr, res.indeterminate_steps) == self.ABC[key]

    def test_unwrapped_abc_windows(self):
        model, system, flux = _golden_system(2, 30.0)
        config = default_config(model, flux, seed=9, duration_factor=20.0)
        res = sim.run_abc_trials(model, config, 6, math.sqrt(system.mu))
        assert res.window_mse.tolist() == [
            0.011136557804413767, 0.017023538812433084, 0.016579618060963936, 0.017125094625108327
        ]

    def test_abc_linearized(self):
        model = PhaseModel(4, 1.0, (0.3, 0.0))
        mse, se = run_abc_linearized_trials(model, 2.0, 0.005, 60.0, 10.0, 11, 6)
        assert mse == pytest.approx(0.32676991895226487, rel=1e-12)
        assert se == pytest.approx(0.017071769821753353, rel=1e-12)


class TestGoldenRecords:
    """Single records at fixed seeds: the loop paths repeat bit for bit,
    phi_s to 1e-14 of its peak. The filter record was re-captured when the
    filter loop moved to error coordinates.

    Host dependency: test_abc_record's ``==`` values depend on numpy's SIMD
    complex multiply rounding like a fused multiply-add, as in
    TestGoldenValues; a host whose numpy takes the baseline two-rounding
    loop fails them with equally correct numbers. There,
    test_abc_feedback_matches_reference_bit_for_bit still pins the loop to
    the reference loop bit for bit."""

    IDX = [0, 1, 999, 3500, 6999]

    def test_filter_record(self):
        model, system, flux = _golden_system(4, 30.0)
        config = default_config(model, flux, seed=12, duration_factor=30.0)
        rec = simulate_record(model, config)
        assert rec.phi[0, self.IDX].tolist() == [
            0.0, 0.0, 0.40334874302367, 14.452083736328422, 25.93784052828132
        ]
        assert rec.theta[0, self.IDX].tolist() == [
            0.0, -0.00825177773570956, 0.43778110871708636, 14.45560362744147, 25.943367283045347
        ]
        assert rec.y[0, self.IDX].tolist() == [
            -11.267044836684741, -22.463563655072928, 3.0769558399630093, 283.2274324278396, 503.0951133778633
        ]
        phi_s = rec.phi_s[0]
        peak = 21.64976327098816
        assert np.nanmax(np.abs(phi_s)) == pytest.approx(peak, abs=1e-14 * peak)
        expected = [4.016862919930709, 14.493465368849296, 21.648633343639403]
        assert np.max(np.abs(phi_s[[2000, 3500, 4999]] - expected)) <= 1e-14 * peak

    def test_abc_record(self):
        model, system, flux = _golden_system(2, 30.0)
        config = default_config(model, flux, seed=13, duration_factor=30.0)
        rec = run_abc(model, config, math.sqrt(system.mu))
        assert rec.phi_abc[0, self.IDX].tolist() == [
            -1.5567445703423068, -1.7857285721236371, -0.410366412488103, -0.8468997000137604,
            -1.251418581706102,
        ]
        assert rec.theta[0, self.IDX].tolist() == [
            0.0, -1.5567445703423068, -0.4105273206702482, -0.8574740168916337, -1.25712633434016
        ]
        assert rec.y[0, self.IDX].tolist() == [
            -81.41052507597831, -111.96549169660658, -23.658267117720595, 11.578312793809673,
            -41.23183609900512,
        ]
        assert rec.abc_indeterminate_steps == 0


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
    dw, db = sim._trial_noise(config.seed, 3, config.n_steps, config.dt)
    smoothing = sim._smoothing_weights(solve_filter_covariance(p), system.mu)
    err, s_err = sim._error_passes(model, system, config, dw, db, cov.vf, smoothing)
    assert err.shape == (3, config.n_steps)
    assert _close_to_peak(rec.phi[0] + err[0], rec.theta[0], 1e-12)
    win = sim._interior_slice(config.n_steps, config.dt, config.burn_in)
    assert _close_to_peak((rec.phi + s_err)[0, win], rec.phi_s[0, win], 1e-12)

    chi = 1.0 / system.time_scale
    rec = run_abc(model, config, chi)
    phi, est, idt, _ = sim._run_abc_feedback(model, config, 3, chi)
    y = idt / config.dt
    y += 2.0 * math.sqrt(config.photon_flux) * est[:, :-1]
    rows = {"phi": phi, "theta": est[:, :-1], "phi_abc": est[:, 1:], "y": y}
    for name, path in rows.items():
        assert np.array_equal(getattr(rec, name)[0], path[0]), name
    assert y.shape == (3, config.n_steps)


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
    dw, db = sim._trial_noise(seed, width, n_steps, config.dt)
    dw[:, -1] = 0.0  # so the backward pass's first readout is its seed, unchanged
    moment, ref_moment = np.zeros((2, width, system.n_states, system.n_states))
    err, s_err = sim._error_passes(model, system, config, dw, db, cov.vf, smoothing, moment)
    ref_err, ref_s_err, ref_e = linearized_error_passes(
        model, system, config, dw, db, cov.vf, smoothing, ref_moment
    )
    assert _close_to_peak(err, ref_err, 1e-13)
    assert _close_to_peak(s_err, ref_s_err, 1e-13)
    assert _close_to_peak(moment, ref_moment, 1e-13)
    # With w_f = 0 the smoothed error at the last sample is
    # kappa^(n+1/2) times the seed read along w_r; held to 1e-13 of the
    # seed's peak entry, since the read itself may cancel.
    w_r = np.random.default_rng(seed).normal(size=system.n_states)
    seed_read = sim._error_passes(model, system, config, dw, db, cov.vf, (0.0 * w_r, w_r))[1][:, -1]
    seed_dev = np.abs(seed_read / model.phase_scale - ref_e @ w_r)
    assert np.all(seed_dev <= 1e-13 * np.max(np.abs(ref_e)) * np.sum(np.abs(w_r)))
    # A trimmed window's sum, to 1e-13 of the whole record's peak: a short
    # window's own sum may be far below the squares it adds up.
    trimmed = dataclasses.replace(config, burn_in=min(burn, (n_steps - 1) // 2) * config.dt)
    part, ref_part = np.zeros((2,) + moment.shape)
    sim._error_passes(model, system, trimmed, dw, db, cov.vf, error_moment=part)
    linearized_error_passes(model, system, trimmed, dw, db, cov.vf, error_moment=ref_part)
    assert np.max(np.abs(part - ref_part)) <= 1e-13 * np.max(np.abs(ref_moment))


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
    tracemalloc.start()
    try:
        simulate_filter_trials(model, config, n_trials, smoother=True, full_state_stats=linearized)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(max_examples=4, deadline=None)
@given(p=st.sampled_from([4, 8, 12, 16, 20]))
def test_smoother_memory_does_not_grow_with_p(p):
    """Only (trials, steps) scalar paths are stored, so at fixed trials x
    steps the allocation peak is the same for every chain length."""
    assert _smoother_alloc_peak(p) <= 1.15 * _smoother_alloc_peak(2)


@pytest.mark.parametrize("p", [4, 12, 20])
def test_linearized_moments_do_not_grow_with_p(p):
    """The linearized scan sums e e^T once per block from that block's
    states, so no (trials, steps, states) path is stored: at fixed
    trials x steps the peak stays within 15 % of p = 2's, where the
    block maps and the per-block states (about 1 MB at p = 20) are small
    next to the scalar paths."""
    assert _smoother_alloc_peak(p, 16, 30000, True) <= 1.15 * _smoother_alloc_peak(2, 16, 30000, True)


def test_scan_holds_one_block_map_at_a_time():
    """At 8 trials x 6000 steps, which ends in a partial block, a p = 20
    block map with moments (138 x 778 floats, 0.86 MB) is about two scalar
    paths. Building the last block's shorter map while the full one is
    still held reached 1.59 x the p = 2 peak; releasing it first gives
    1.42."""
    assert _smoother_alloc_peak(20, 8, 6000, True) <= 1.5 * _smoother_alloc_peak(2, 8, 6000, True)


def test_abc_ensemble_memory_is_three_paths():
    """run_abc_trials holds at most three (trials, steps) paths at once:
    the photocurrent is written over the shot noise, the error over the
    phase, and the reductions square one error path."""
    model, system, flux = _golden_system(2, 30.0)
    config = default_config(model, flux, seed=3, duration_factor=20.0)
    n_trials = 16
    tracemalloc.start()
    try:
        sim.run_abc_trials(model, config, n_trials, math.sqrt(system.mu))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * n_trials * config.n_steps * 8


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
        sim._error_passes(model, system, _bare_config(flux, 2, dt), quiet, quiet.copy(), vf, smoothing)
    back_t, _, retro_gain = scans[-1][1:4]
    assert np.array_equal(retro_gain, retro_covariance(vf) @ system.c)
    n = system.n_states
    back = np.linalg.inv(np.eye(n) + system.a * dt)
    assert np.all(np.abs(back_t.T[:, :-1] - back[:, :-1]) <= 1e-15)
