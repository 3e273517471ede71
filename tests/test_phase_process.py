"""Spectrum and trajectory tests for the integrator-chain phase process."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import autocovariance, chain_cumsum, open_loop_phase_lfilter
from scipy.signal import welch

from phasetrack.errors import NumericalError, ValidationError
from phasetrack.phase_process import PhaseModel, spectrum
from phasetrack.simulation import _open_loop_phase


def _noise(dt, n_steps, seeds):
    """(len(seeds), n_steps) Wiener increments, row j drawn from seeds[j]."""
    rngs = (np.random.default_rng(np.random.SeedSequence(s)) for s in seeds)
    return np.stack([rng.normal(0.0, np.sqrt(dt), n_steps) for rng in rngs])


def _phase_and_noise(model, dt, n_steps, seed):
    """One phase path driven by n_steps Wiener increments drawn from the
    seed, entry i the phase before increment i, and those increments. At
    p = 2 and kappa = 1 the phase is the chain stage x_0."""
    dw = _noise(dt, n_steps, [seed])
    return _open_loop_phase(model, dt, dw)[0], dw[0]


def _phase_path(model, dt, n_steps, seed):
    return _phase_and_noise(model, dt, n_steps, seed)[0]


def _phase_paths(model, dt, n_steps, seeds):
    """The paths of _phase_path for each seed, one row each, run as one
    batch: a damped stage steps every trial at once."""
    return _open_loop_phase(model, dt, _noise(dt, n_steps, seeds))


class TestPhaseModel:
    def test_rejects_exponent_at_or_below_one(self):
        with pytest.raises(ValidationError, match="exponent-out-of-range"):
            PhaseModel(1.0, 1.0)
        with pytest.raises(ValidationError, match="exponent-out-of-range"):
            PhaseModel(0.5, 1.0)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValidationError):
            PhaseModel(2, 0.0)

    def test_rejects_negative_damping(self):
        with pytest.raises(ValidationError):
            PhaseModel(2, 1.0, (-1.0,))

    def test_rejects_wrong_damping_count(self):
        with pytest.raises(ValidationError):
            PhaseModel(4, 1.0, (1.0,))  # p=4 needs two stage rates

    def test_rejects_damping_for_noninteger_exponent(self):
        with pytest.raises(ValidationError, match="chain-requires-even-p"):
            PhaseModel(2.5, 1.0, (1.0,))

    def test_chain_index(self):
        assert PhaseModel(2, 1.0).n == 0
        assert PhaseModel(8, 1.0).n == 3
        with pytest.raises(ValidationError, match="chain-requires-even-p"):
            PhaseModel(3, 1.0).n


class TestSpectrum:
    def test_power_law_value(self):
        # kappa^(p-1)/|w|^p at p=2, kappa=1, w=2
        assert spectrum(PhaseModel(2, 1.0), 2.0) == pytest.approx(0.25, rel=1e-12)

    def test_damped_value_matches_periodogram_oracle(self):
        """Oracle: averaged Welch periodogram of long sampled trajectories.

        A one-sided PSD over frequency in Hz equals twice the two-sided
        density at omega = 2 pi f.
        """
        model = PhaseModel(4, 1.0, (1.0, 0.0))
        dt = 0.02
        vals = []
        freq = None
        for phi in _phase_paths(model, dt, 2**19, range(8)):
            f, pxx = welch(phi, fs=1.0 / dt, nperseg=2**14, detrend="linear")
            k = np.argmin(np.abs(f - 1.0 / (2 * np.pi)))
            freq = 2 * np.pi * f[k]
            vals.append(pxx[k] / 2.0)
        vals = np.asarray(vals)
        est = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        target = spectrum(model, freq)
        assert abs(est - target) < 3 * se
        # frozen value from the oracle run: S(1) = 0.5 for lambda = (1, 0)
        assert spectrum(model, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_damping_negligible_at_high_frequency(self):
        damped = PhaseModel(4, 1.0, (1.0, 0.0))
        plain = PhaseModel(4, 1.0)
        w = 1.0e4
        assert spectrum(damped, w) / spectrum(plain, w) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("model", [PhaseModel(3, 2.0), PhaseModel(4, 1.0, (0.5, 0.2))])
    def test_even_function(self, model):
        for w in (1e-3, 0.7, 5.0, 1e3):
            assert spectrum(model, w) == spectrum(model, -w)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_undamped_matches_power_law_exactly(self, p):
        model = PhaseModel(p, 1.3)
        for w in (1e-3, 1.0, 1e3):
            assert spectrum(model, w) == pytest.approx(1.3 ** (p - 1) / abs(w) ** p, rel=1e-14)

    def test_damped_below_undamped_and_converging(self):
        plain = PhaseModel(4, 1.0)
        w = 0.8
        prev = 0.0
        for lam in (1.0, 0.1, 0.01, 1e-4):  # shrinking cutoff approaches the plain law
            s = spectrum(PhaseModel(4, 1.0, (lam, lam)), w)
            assert s <= spectrum(plain, w)
            assert s >= prev * (1 - 1e-12)
            prev = s
        assert prev == pytest.approx(spectrum(plain, w), rel=1e-6)

    def test_divergent_at_zero(self):
        with pytest.raises(NumericalError, match="spectrum-divergent-at-zero"):
            spectrum(PhaseModel(2, 1.0), 0.0)
        # a partially damped chain still has an undamped stage at omega = 0
        with pytest.raises(NumericalError, match="spectrum-divergent-at-zero"):
            spectrum(PhaseModel(4, 1.0, (1.0, 0.0)), 0.0)
        # fully damped models are finite there
        assert np.isfinite(spectrum(PhaseModel(4, 1.0, (1.0, 0.5)), 0.0))


class TestTrajectories:
    def test_zero_noise_stays_at_zero(self):
        model = PhaseModel(4, 1.0, (0.3, 0.1))
        phi = _open_loop_phase(model, 0.01, np.zeros((1, 500)))
        assert phi.shape == (1, 500)
        assert np.all(phi == 0.0)

    def test_determinism(self):
        model = PhaseModel(4, 2.0)
        a_x, a_dw = _phase_and_noise(model, 0.01, 2000, 123)
        b_x, b_dw = _phase_and_noise(model, 0.01, 2000, 123)
        assert np.array_equal(a_x, b_x)
        assert np.array_equal(a_dw, b_dw)
        c_x, _ = _phase_and_noise(model, 0.01, 2000, 124)
        assert not np.array_equal(a_x, c_x)

    def test_wiener_increment_variance(self):
        """Oracle: increments of the driving stage over windows tau have
        variance tau."""
        x = _phase_path(PhaseModel(2, 1.0), 0.01, 200_000, 3)
        tau_steps = 500
        inc = np.diff(x[::tau_steps])
        var = np.var(inc, ddof=1)
        se = var * np.sqrt(2.0 / (len(inc) - 1))
        assert abs(var - tau_steps * 0.01) < 3 * se

    def test_damped_stage_reaches_ou_variance(self):
        """Oracle: stationary variance 1/(2 lambda) of the damped stage."""
        model = PhaseModel(2, 1.0, (2.0,))
        dt = 0.005
        per_traj = []
        for x in _phase_paths(model, dt, 100_000, range(7, 23)):
            per_traj.append(np.mean(x[int(10 / dt):] ** 2))
        per_traj = np.asarray(per_traj)
        est = per_traj.mean()
        se = per_traj.std(ddof=1) / 4.0
        assert abs(est - 0.25) < 3 * se

    def test_phase_scaling_invariant(self):
        model = PhaseModel(4, 3.0)
        phi, dw = _phase_and_noise(model, 0.01, 100, 5)
        assert np.allclose(phi, 3.0**1.5 * chain_cumsum(2, 0.01, dw)[:-1, -1])

    def test_states_iterable(self):
        x = _phase_path(PhaseModel(2, 1.0), 0.1, 10, 0)
        assert x.shape == (10,)
        assert x[0] == 0.0
        trials = _open_loop_phase(PhaseModel(4, 1.0), 0.1, np.ones((3, 10)))
        assert trials.shape == (3, 10)
        assert trials[:, 3] == pytest.approx(0.3)  # x_1 = dt (0 + 1 + 2) before increment 3

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="chain-requires-even-p"):
            _open_loop_phase(PhaseModel(3, 1.0), 0.01, np.zeros((1, 100)))

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from(range(2, 21, 2)),
        kappa=st.floats(0.1, 10.0),
        dt=st.floats(1e-4, 0.1),
        n_steps=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_running_sum_chain(self, p, kappa, dt, n_steps, seed):
        """The undamped phase is kappa^(n+1/2) times the last stage of the
        running-sum chain, for a 1-D path and row by row for a batch."""
        model = PhaseModel(p, kappa)
        dw = np.random.default_rng(seed).normal(0.0, math.sqrt(dt), size=(3, n_steps))
        pairs = [(_open_loop_phase(model, dt, dw[0]), dw[0]), *zip(_open_loop_phase(model, dt, dw), dw)]
        for phi, row in pairs:
            ref = model.phase_scale * chain_cumsum(p // 2, dt, row)[:-1, -1]
            assert phi.shape == (n_steps,)
            assert np.max(np.abs(phi - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from(range(2, 21, 2)),
        kappa=st.floats(0.1, 10.0),
        dt=st.floats(1e-4, 0.1),
        n_steps=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_direct_form_filter(self, p, kappa, dt, n_steps, seed, data):
        """Damped, partly damped and undamped chains equal the stage-by-stage
        lfilter reference bit for bit, signs of zeros included, for a 1-D
        path and a batch."""
        rate = st.one_of(st.just(0.0), st.floats(0.0, 0.0999 / dt))  # lambda dt < 0.1, or an undamped stage
        model = PhaseModel(p, kappa, tuple(data.draw(st.lists(rate, min_size=p // 2, max_size=p // 2))))
        dw = np.random.default_rng(seed).normal(0.0, math.sqrt(dt), size=(3, n_steps))
        dw[1, 0] = -0.0  # x_0[1] is 0 + dw[0]: +0.0 in the filter, not -0.0
        for noise in (dw, dw[0], dw[1]):
            phi, ref = _open_loop_phase(model, dt, noise), open_loop_phase_lfilter(model, dt, noise)
            assert phi.shape == noise.shape
            assert np.array_equal(phi, ref)
            assert np.array_equal(np.signbit(phi), np.signbit(ref))


class TestAutocovariance:
    def test_rejects_undamped(self):
        with pytest.raises(ValidationError):
            autocovariance(PhaseModel(2, 1.0), 0.5)
        with pytest.raises(ValidationError):
            autocovariance(PhaseModel(4, 1.0, (1.0, 0.0)), 0.5)

    def test_matches_empirical_autocorrelation(self):
        """Long-trajectory autocorrelation of the phase vs the inverse
        Fourier transform of the spectrum, within 5% where the
        autocorrelation is above 10% of its peak."""
        model = PhaseModel(4, 1.0, (1.0, 0.6))
        dt = 0.02
        n_steps = 2**17
        burn = int(40 / dt)
        n_keep = 3000
        acfs = []
        for phi in _phase_paths(model, dt, n_steps, range(100, 132))[:, burn:]:
            phi = phi - phi.mean()
            n = len(phi)
            fx = np.fft.rfft(phi, 2 * n)
            ac = np.fft.irfft(fx * np.conj(fx))[:n] / np.arange(n, 0, -1)
            acfs.append(ac[:n_keep])
        acf = np.mean(acfs, axis=0)
        lags = np.arange(n_keep) * dt
        mask = acf > 0.1 * acf[0]
        test_lags = lags[mask][::25]
        empirical = acf[mask][::25]
        theory = autocovariance(model, test_lags)
        assert len(test_lags) >= 5
        rel = np.abs(empirical - theory) / np.abs(theory)
        assert np.max(rel) < 0.05
