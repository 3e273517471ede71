"""Spectrum and trajectory tests for the integrator-chain phase process."""

import numpy as np
import pytest
from scipy.signal import welch

from phasetrack.errors import NumericalError, ValidationError
from phasetrack.phase_process import PhaseModel, autocovariance, chain_stages, spectrum
from phasetrack.simulation import _open_loop_phase


def _chain_path(model, dt, n_steps, seed):
    """Stages of one chain path driven by n_steps Wiener increments drawn
    from the seed: (n_steps, n+1), row i the state before increment i."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dw = rng.normal(0.0, np.sqrt(dt), size=n_steps)
    return np.stack(list(chain_stages(model, dt, dw)), axis=-1), dw


def _phase_path(model, dt, n_steps, seed):
    return model.phase_scale * _chain_path(model, dt, n_steps, seed)[0][:, -1]


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
        for seed in range(8):
            phi = _phase_path(model, dt, 2**19, seed)
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
        stages = list(chain_stages(model, 0.01, np.zeros(500)))
        assert len(stages) == 2
        assert all(np.all(x == 0.0) for x in stages)
        assert np.all(_open_loop_phase(model, 0.01, np.zeros((1, 500))) == 0.0)

    def test_determinism(self):
        model = PhaseModel(4, 2.0)
        a_x, a_dw = _chain_path(model, 0.01, 2000, 123)
        b_x, b_dw = _chain_path(model, 0.01, 2000, 123)
        assert np.array_equal(a_x, b_x)
        assert np.array_equal(a_dw, b_dw)
        c_x, _ = _chain_path(model, 0.01, 2000, 124)
        assert not np.array_equal(a_x, c_x)

    def test_wiener_increment_variance(self):
        """Oracle: increments of the driving stage over windows tau have
        variance tau."""
        x, _ = _chain_path(PhaseModel(2, 1.0), 0.01, 200_000, 3)
        tau_steps = 500
        inc = np.diff(x[::tau_steps, 0])
        var = np.var(inc, ddof=1)
        se = var * np.sqrt(2.0 / (len(inc) - 1))
        assert abs(var - tau_steps * 0.01) < 3 * se

    def test_damped_stage_reaches_ou_variance(self):
        """Oracle: stationary variance 1/(2 lambda) of the damped stage."""
        model = PhaseModel(2, 1.0, (2.0,))
        dt = 0.005
        per_traj = []
        for seed in range(16):
            x, _ = _chain_path(model, dt, 100_000, seed + 7)
            per_traj.append(np.mean(x[int(10 / dt):, 0] ** 2))
        per_traj = np.asarray(per_traj)
        est = per_traj.mean()
        se = per_traj.std(ddof=1) / 4.0
        assert abs(est - 0.25) < 3 * se

    def test_phase_scaling_invariant(self):
        model = PhaseModel(4, 3.0)
        x, dw = _chain_path(model, 0.01, 100, 5)
        assert np.allclose(_open_loop_phase(model, 0.01, dw[None]), 3.0**1.5 * x[:, -1])

    def test_states_iterable(self):
        x, _ = _chain_path(PhaseModel(2, 1.0), 0.1, 10, 0)
        assert x.shape == (10, 1)
        assert np.all(x[0] == 0.0)
        trials = list(chain_stages(PhaseModel(4, 1.0), 0.1, np.ones((3, 10))))
        assert [s.shape for s in trials] == [(3, 10), (3, 10)]
        assert trials[0][:, 3] == pytest.approx(3.0)  # x_0 before increment 3

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="chain-requires-even-p"):
            next(chain_stages(PhaseModel(3, 1.0), 0.01, np.zeros(100)))


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
        for seed in range(32):
            phi = _phase_path(model, dt, n_steps, seed + 100)[burn:]
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
