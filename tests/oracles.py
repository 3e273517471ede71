"""Reference implementations that the tests check the package against.

The package does not call any of them. Each reaches a quantity that the
package computes by another route: an extended-precision dense solve, the
differential Riccati equation integrated to stationarity, the closed-form
smoother MSE, the autocovariance as an inverse Fourier transform of the
spectrum, the linearized exponential-window error as two open-loop
recurrences, the undamped integrator chain as running sums, the
(damped) phase chain through scipy's direct-form linear filter, the trial
noise as scaled normal draws, the tabulated spectrum through np.interp,
the filter error of the sin() and linearized loops stepped one sample
at a time, the smoothing weights by float inverses of the information sum, the
stationary covariance of that Euler recurrence as a discrete Lyapunov
solve, the exponential-window feedback loop with scalar and broadcast
operands, also as stepped before its Newton steps moved theta in place
(earlier_abc_loop), the ensemble MSE and windowed MSE reduced over whole error
paths (mse_statistics, windowed_mse), which every run sums block by block,
and the smoother's backward pass as a second sweep over the blocks that
replays the forward readout (two_pass_error_passes), which every run folds
into its forward pass.

Two are seams instead, which run the package's own code on whole arrays
for the references and the tests to compare with: trial_noise, the noise
of a run's trials as its block driver draws it, and error_passes, the
filter and smoother errors over given noise, collected into whole paths.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_discrete_lyapunov
from scipy.signal import lfilter

from phasetrack.errors import NumericalError, ValidationError
from phasetrack.lg import (
    LgSystem,
    build_lg_system,
    retro_covariance,
    scale_covariance,
    smoother_covariance,
    smoother_covariance_closed_form,
    solve_filter_covariance,
)
from phasetrack.phase_process import PhaseModel, _check_damping, spectrum
from phasetrack.simulation import (
    HomodyneConfig,
    _ABC_HOLD_THRESHOLD,
    _BackwardPass,
    _StageClock,
    _block_scan,
    _block_spans,
    _error_blocks,
    _interior_slice,
    _noise_draws,
    _open_loop_phase,
    _trial_statistics,
    _window_slices,
)


def solve_gauss(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense linear solve with partial pivoting, preserving the input dtype.

    Runs in extended precision (np.longdouble), which LAPACK-backed numpy
    solves do not support; the acceptance gate uses it as the reference for
    the float inverses of the covariances.
    """
    a = np.array(a, copy=True)
    b = np.array(b, copy=True)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValidationError(f"incompatible solve shapes {a.shape}, {b.shape}")
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0:
            raise NumericalError("singular matrix in dense solve")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        f = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= f[:, None] * a[k, k:]
        b[k + 1 :] -= np.multiply.outer(f, b[k]) if b.ndim > 1 else f * b[k]
    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def solve_filter_covariance_ode(system: LgSystem, tol: float = 1e-12, max_steps: int = 500_000) -> np.ndarray:
    """Physical stationary covariance by integrating dV/dt = AV + VA^T + EE^T - VC^TCV.

    Classical fixed-step RK4 from V(0) = I mu^(-1/p) until |dV/dt| < tol |V|
    (Frobenius). Independent of the closed form; used as its oracle after
    rescaling.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if system.mu <= 0:
        raise ValidationError("stationary covariance undefined for mu = 0")
    a, c = system.a, system.c
    ee = np.zeros_like(a)
    ee[0, 0] = 1.0  # E E^T: the noise drives stage 0

    def rhs(v: np.ndarray) -> np.ndarray:
        # Assembled so the result is exactly symmetric for symmetric input.
        g = a @ v
        vc = v @ c
        return g + g.T + ee - np.outer(vc, vc)

    tau = system.time_scale
    h = 0.05 * tau
    v = np.eye(system.n_states) * tau
    for _ in range(max_steps):
        k1 = rhs(v)
        if np.linalg.norm(k1) < tol * np.linalg.norm(v):
            return v
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    raise NumericalError(f"riccati-ode-stalled: no stationary point within {max_steps} steps")


def lg_smoother_mse(system: LgSystem) -> float:
    """Predicted stationary phase MSE of the two-sided estimator, kappa^(2n+1) V_S[n, n]."""
    v = scale_covariance(smoother_covariance_closed_form(system.p), system.mu)
    return system.kappa ** (2 * system.n + 1) * float(v[-1, -1])


def autocovariance(model: PhaseModel, tau) -> float | np.ndarray:
    """Stationary autocovariance of the phase at lag tau.

    Inverse Fourier transform of the spectrum, (1/pi) * int_0^inf S(w) cos(w tau) dw,
    evaluated with an oscillatory-weight quadrature. Defined only for fully
    damped models; the undamped chain has no stationary marginal.
    """
    lam = model.damping_rates()
    if not model.is_damped or np.any(lam == 0.0):
        raise ValidationError(
            "autocovariance undefined: model has an undamped stage (nonstationary)"
        )
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.empty_like(taus)
    for i, t_lag in enumerate(taus):
        val, _ = quad(
            lambda w: spectrum(model, w),
            0.0,
            np.inf,
            weight="cos",
            wvar=abs(t_lag),
            limit=400,
        )
        out[i] = val / np.pi
    return float(out[0]) if np.ndim(tau) == 0 else out


def _squared_error(err: np.ndarray, wrap: bool) -> np.ndarray:
    """err^2 in one new array; with ``wrap`` the error is first reduced to
    (-pi, pi]."""
    if not wrap:
        return np.square(err)
    sq = err + math.pi
    np.mod(sq, 2.0 * math.pi, out=sq)
    sq -= math.pi
    return np.square(sq, out=sq)


def mse_statistics(err: np.ndarray, dt: float, burn_in: float, wrap: bool = False) -> tuple[float, float]:
    """Ensemble MSE of an estimation error: time average of err^2 per trial
    over the interior window, mean across trials, standard error from
    inter-trial scatter.

    err is (n_trials, T) with n_trials >= 2. With ``wrap=True`` the error is
    reduced to (-pi, pi] before squaring, the slip-insensitive metric for
    low-flux runs where the feedback loop hops between physically equivalent
    lock points 2 pi apart (on the real line those hops make the long-run
    average grow without bound).
    """
    err = np.asarray(err, dtype=float)
    if err.ndim != 2:
        raise ValidationError(f"need an (n_trials, T) error array, got shape {err.shape}")
    if err.shape[0] < 2:
        raise ValidationError("need at least 2 trials for a standard error")
    win = _interior_slice(err.shape[1], dt, burn_in)
    return _trial_statistics(np.mean(_squared_error(err[:, win], wrap), axis=1))


def windowed_mse(err: np.ndarray, dt: float, start: float, wrap: bool = False) -> np.ndarray:
    """Ensemble-mean squared error over logarithmically spaced time windows.

    Splits [start, T] into four log-spaced segments and averages err^2 of
    all trials within each; a strictly increasing result is the
    signature of an estimator with no stationary error. ``wrap`` reduces
    the error to (-pi, pi] first, as in mse_statistics.
    """
    err = np.asarray(err, dtype=float)
    windows = _window_slices(err.shape[-1], dt, start)
    sq = _squared_error(err, wrap)
    return np.array([float(np.mean(sq[..., w])) for w in windows])


def run_abc_linearized_trials(
    model: PhaseModel, chi: float, dt: float, duration: float, burn_in: float, seed: int, n_trials: int
) -> tuple[float, float]:
    """Ensemble stationary MSE of the linearized exponential-window estimator.

    Simulates the error e(t) = int e^(chi(u-t)) [phi(u) - phi(t)] du + h(t)
    with h an independent Ornstein-Uhlenbeck noise of stationary variance
    1/(2 chi), the decomposition whose stationary second moment the closed
    form abc_linearized_mse gives.
    """
    if not chi > 0:
        raise ValidationError(f"chi must be positive, got {chi}")
    if dt * chi >= 0.1:
        raise ValidationError(f"dt={dt} too coarse for chi={chi}")
    _check_damping(model, dt)
    if n_trials < 2:
        raise ValidationError("need at least 2 trials")
    dw, db = trial_noise(seed, n_trials, int(round(duration / dt)), dt)
    phi = _open_loop_phase(model, dt, dw)
    del dw
    # Both terms are first-order recurrences in time, value before step i at i:
    # g <- (1 - chi dt) g + phi dt is int e^(chi(u-t)) phi(u) du, and
    # h <- (1 - chi dt) h + dB an OU noise of stationary variance 1/(2 chi).
    decay = [1.0, -(1.0 - chi * dt)]
    err = lfilter([0.0, dt], decay, phi, axis=-1)
    err -= phi / chi
    err += lfilter([0.0, 1.0], decay, db, axis=-1)
    return mse_statistics(err, dt, burn_in)


def chain_cumsum(n_stages: int, dt: float, dw: np.ndarray) -> np.ndarray:
    """Undamped integrator chain x_0 -> ... -> x_(n_stages-1) driven by the
    1-D increments dw, by running sums from zero: (T + 1, n_stages), row i
    the state before increment i and row T the state after the last one.
    x_0 sums the increments; each later stage sums dt times the stage
    before it, one step behind."""
    dw = np.asarray(dw, dtype=float)
    x = np.zeros((len(dw) + 1, n_stages))
    x[1:, 0] = np.cumsum(dw)
    for k in range(1, n_stages):
        x[1:, k] = np.cumsum(dt * x[:-1, k - 1])
    return x


def open_loop_phase_lfilter(model: PhaseModel, dt: float, dw: np.ndarray) -> np.ndarray:
    """The open-loop phase of _open_loop_phase, each chain stage run as the
    order-1 filter x_k[i+1] = (1 - lambda_k dt) x_k[i] + g x_(k-1)[i] by
    lfilter along the time axis, with g = 1 (dW) or dt."""
    stage = np.asarray(dw, dtype=float)
    for k, c in enumerate(1.0 - model.damping_rates() * dt):
        stage = lfilter([0.0, 1.0 if k == 0 else dt], [1.0, -c], stage, axis=-1)
    return model.phase_scale * stage


def trial_noise(seed: int, n_trials: int, n_steps: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (phase, measurement) Gaussian increment arrays, each trial
    drawn from two independent child streams of its own derived seed: the
    runs' _noise_draws over one span of n_steps."""
    return _noise_draws(seed, n_trials, dt, n_steps, _StageClock())(slice(0, n_steps))


def error_passes(
    model: PhaseModel,
    system: LgSystem,
    config: HomodyneConfig,
    dw: np.ndarray,
    db: np.ndarray,
    vf: np.ndarray,
    smoothing: tuple[np.ndarray, np.ndarray] | None = None,
    error_moment: np.ndarray | None = None,
):
    """_error_blocks over given (n_trials, T) increments, its errors
    collected into whole paths: returns theta - phi and phi_s - phi
    (None without ``smoothing``, the weights (w_f[-1], w_r[-1])); the sin()
    loop writes r over db."""
    return _error_passes(model, system, config, dw, db, vf, smoothing, error_moment)[:2]


def _error_passes(model, system, config, dw, db, vf, smoothing=None, error_moment=None):
    """error_passes and, last, its backward pass (None without smoothing),
    which keeps the seed of its sweep, the forward error at the end of the
    record, as ``seed``."""
    clock = _StageClock()
    back = None
    if smoothing is not None:
        back = _SeedKeepingPass(model, system, config, vf, smoothing, len(dw), clock, "record")
    blocks = _error_blocks(
        model, system, config, vf, back, dw.shape, lambda span: (dw[:, span], db[:, span]), clock, error_moment
    )
    err = np.empty(dw.shape)
    for span, values, _, _ in blocks:
        err[:, span] = values
    return err, None if back is None else back.path, back


class _SeedKeepingPass(_BackwardPass):
    """A record's _BackwardPass that keeps the seed its sweep starts from."""

    def sweep(self, x):
        self.seed = x
        super().sweep(x)


def two_pass_error_passes(
    model: PhaseModel,
    system: LgSystem,
    config: HomodyneConfig,
    dw: np.ndarray,
    db: np.ndarray,
    vf: np.ndarray,
    smoothing: tuple[np.ndarray, np.ndarray],
    error_moment: np.ndarray | None = None,
):
    """error_passes with the smoother's backward pass as the package ran it
    before the pass was folded into the forward one: a second sweep over the
    spans in reverse, which per span replays w_f . e by a forward scan from
    the forward error at the span's start and then scans backward, seeded
    with the forward error at the end of the record and carried from span
    to span. The forward error at a span's start is that of the driver run
    over the steps before it, which steps the same chunks and scan blocks
    as the whole run, so it has the whole run's floats. Returns
    (theta - phi, phi_s - phi); the sin() loop writes r over db."""
    n_trials, n_steps = dw.shape
    n, dt = system.n_states, config.dt
    spans = list(_block_spans(n_steps))

    def forward_error(stop):
        prefix = dataclasses.replace(config, duration=stop * dt, burn_in=0.0)
        moment = None if error_moment is None else np.zeros_like(error_moment)
        return _error_passes(model, system, prefix, dw[:, :stop], db[:, :stop].copy(), vf, smoothing, moment)[2].seed

    starts = [np.zeros((n_trials, n))] + [forward_error(span.start) for span in spans[1:]]
    err, _, back = _error_passes(model, system, config, dw, db, vf, smoothing, error_moment)
    gain = vf @ system.c
    forward = (np.eye(n) + (system.a - np.outer(gain, system.c)).T * dt, -np.eye(n)[0], gain)
    win = _interior_slice(n_steps, dt, config.burn_in)
    smoothed = np.empty_like(dw)
    x, maps, replay_maps = back.seed, {}, {}
    for span, start in zip(spans[::-1], starts[::-1]):
        proj = np.zeros((n_trials, span.stop - span.start))
        _block_scan(start, *forward, smoothing[0], 0.0, dw[:, span], db[:, span], proj, None, slice(0), replay_maps)
        x = _block_scan(
            x, *back.scan, dw[:, span][:, ::-1], db[:, span][:, ::-1], proj[:, ::-1], None, slice(0), maps
        )
        proj *= model.phase_scale
        proj[:, : max(win.start - span.start, 0)] = np.nan
        proj[:, max(win.stop - span.start, 0) :] = np.nan
        smoothed[:, span] = proj
    return err, smoothed


def trial_noise_normal(seed: int, n_trials: int, n_steps: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The (phase, measurement) increments of trial_noise, each trial's rows
    drawn as normal(0, sqrt(dt), n_steps) from the two child streams of its
    derived seed."""
    dw = np.empty((n_trials, n_steps))
    db = np.empty((n_trials, n_steps))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        phase_ss, meas_ss = child.spawn(2)
        dw[i] = np.random.default_rng(phase_ss).normal(0.0, math.sqrt(dt), n_steps)
        db[i] = np.random.default_rng(meas_ss).normal(0.0, math.sqrt(dt), n_steps)
    return dw, db


def tabulated_density_interp(omega_tab: np.ndarray, density_tab: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The tabulated spectrum at the points omega, by np.interp in log-log
    coordinates, with both tails extrapolated along the edge segments; the
    table must be sorted by omega."""
    lw, ls = np.log(omega_tab), np.log(density_tab)
    slope_lo = (ls[1] - ls[0]) / (lw[1] - lw[0])
    slope_hi = (ls[-1] - ls[-2]) / (lw[-1] - lw[-2])
    x = np.log(np.abs(omega))
    y = np.interp(x, lw, ls)
    y = np.where(x < lw[0], ls[0] + slope_lo * (x - lw[0]), y)
    y = np.where(x > lw[-1], ls[-1] + slope_hi * (x - lw[-1]), y)
    return np.exp(y)


def linearized_error_passes(
    model: PhaseModel,
    system: LgSystem,
    config: HomodyneConfig,
    dw: np.ndarray,
    db: np.ndarray,
    vf: np.ndarray,
    smoothing: tuple[np.ndarray, np.ndarray] | None = None,
    error_moment: np.ndarray | None = None,
):
    """error_passes with the forward error stepped one sample at a time,
    the interior e e^T added before each step: e += e (A - K C)^T dt + r K^T,
    then e_0 -= dW. A linearized run takes r = dB; the sin() loop writes
    r = dB + 2 sqrt(N) (sin(phi - theta) - (phi - theta)) dt over db, with
    theta - phi = kappa^(n+1/2) e_n. Returns (theta - phi, phi_s - phi or
    None, the final e); the smoother replays the forward error and runs the
    backward pass as blocked scans, seeded with that final e, with
    B = (I + A dt)^-1 and V_R C^T taken by a float inverse and a product."""
    n_trials, n_steps = dw.shape
    n = system.n_states
    dt = config.dt
    gain = vf @ system.c
    closed_t = (system.a - np.outer(gain, system.c)).T * dt
    sin_gain = 2.0 * math.sqrt(config.photon_flux) * dt
    win = _interior_slice(n_steps, dt, config.burn_in)
    err = np.empty_like(dw)
    e = np.zeros((n_trials, n))
    for i in range(n_steps):
        d = model.phase_scale * e[:, -1]
        err[:, i] = d
        r = db[:, i]
        if not config.linearized:
            r += sin_gain * (d - np.sin(d))
        if error_moment is not None and win.start <= i < win.stop:
            error_moment += e[:, :, None] * e[:, None, :]
        e += e @ closed_t
        e += r[:, None] * gain
        e[:, 0] -= dw[:, i]
    if smoothing is None:
        return err, None, e
    w_f, w_r = smoothing
    vr = retro_covariance(vf)
    proj = np.zeros_like(dw)
    _block_scan(np.zeros_like(e), np.eye(n) + closed_t, -np.eye(n)[0], gain, w_f, 0.0, dw, db, proj)
    back = np.linalg.inv(np.eye(n) + system.a * dt)
    back_t = (back - np.outer(vr @ system.c, system.c) * dt).T
    drive = back[:, 0]
    _block_scan(
        e, back_t, drive @ back_t, vr @ system.c, w_r, drive @ w_r,
        dw[:, ::-1], db[:, ::-1], proj[:, ::-1],
    )
    proj *= model.phase_scale
    proj[:, : win.start] = np.nan
    proj[:, win.stop :] = np.nan
    return err, proj, e


def smoothing_weights_inverse(vf: np.ndarray):
    """Last rows (w_f[-1], w_r[-1]) of the information sum xs = w_f xf + w_r xr
    for the physical causal covariance vf, by float inverses:
    w_f = V_S V_F^-1 and w_r = V_S V_R^-1, with V_S = smoother_covariance."""
    vr = retro_covariance(vf)
    vs = smoother_covariance(vf, vr)
    return (vs @ np.linalg.inv(vf))[-1], (vs @ np.linalg.inv(vr))[-1]


def discrete_filter_covariance(p, dt_factor: float) -> np.ndarray:
    """Normalized stationary covariance of the Euler recurrence that the
    linearized filter error follows, e' = F e + K dB - e_0 dW with
    F = I + (A - K C) dt and K = V_F C^T: the solution of

        P = F P F^T + dt (K K^T + e_0 e_0^T)

    at mu = 1, where dt = dt_factor. Like Vt_F, which it tends to as
    dt_factor -> 0, it scales to physical units with scale_covariance."""
    system = build_lg_system(p, 1.0, 0.25)  # mu = 4 N kappa^(p-1) = 1
    gain = solve_filter_covariance(p) @ system.c
    f = np.eye(system.n_states) + (system.a - np.outer(gain, system.c)) * dt_factor
    drive = np.outer(gain, gain)
    drive[0, 0] += 1.0
    return solve_discrete_lyapunov(f, dt_factor * drive)


_HARMONICS = np.array([[1j], [2j]])  # exp(_HARMONICS * theta) = (e^(i theta), e^(2i theta))


def _abc_phase_update_stacked(ab, theta, e, flux, wrap=False):
    """The Newton update of the exponential-window estimate on the stacked
    (2, n_trials) functionals ab = (a, b), with scalar, per-harmonic (2, 1)
    and (2, 1, 2) weights broadcast over the trials and a masked divide.
    e holds e^(i theta) and e^(2i theta). Returns the last Newton iterate,
    moved with ``wrap`` by whole turns to within pi of theta, and the mask
    of trials that hold theta."""
    two_sqrt_n = 2.0 * math.sqrt(flux)
    hold_w = np.array([[two_sqrt_n], [2.0 * flux]])
    newton_w = np.array([[[-two_sqrt_n, -two_sqrt_n]], [[4.0 * flux, 2.0 * flux]]])
    size = np.abs(ab) * hold_w
    hold = size[0] + size[1] < _ABC_HOLD_THRESHOLD
    conj_ab = np.conj(ab)
    new = theta
    for k in range(3):
        if k:
            e = np.exp(_HARMONICS * new)
        terms = (conj_ab * e).view(float).reshape(2, -1, 2) * newton_w
        diff = terms[0] - terms[1]
        curv, slope = diff[:, 0], diff[:, 1]
        ok = curv < 0.0
        step = np.divide(slope, curv, out=np.zeros(len(theta)), where=ok)
        new = new - np.minimum(np.maximum(step, -1.0), 1.0)
    if wrap:
        new = theta + np.mod(new - theta + np.pi, 2.0 * np.pi) - np.pi
    return new, hold


def _abc_reference_loop(config: HomodyneConfig, n_trials: int, chi: float, earlier: bool = False):
    """_abc_loop's step(phi, idt, est) -> held on operands allocated each
    step, Python-scalar and broadcast, with complex products taken against
    real factors: the a and b updates are one product e^(i theta) (i,
    e^(i theta)) times the real drive (I dt, dt). With ``earlier``, the
    loop as the package stepped it before its Newton steps moved theta in
    place: the response gain in two roundings, (sin(phi - theta) 2 sqrt(N))
    dt, and each new theta moved by whole turns to within pi of the last."""
    if not 0 < chi < math.inf:
        raise ValidationError(f"chi must be positive and finite, got {chi}")
    dt = config.dt
    two_sqrt_n = 2.0 * math.sqrt(config.photon_flux)
    decay = math.exp(-chi * dt)
    ab = np.zeros((2, n_trials), dtype=complex)
    rot = np.empty((3, n_trials), dtype=complex)  # (i, e^(i theta), e^(2i theta))
    rot[0] = 1j
    phasor, harmonics, update = rot[1], rot[1:], rot[:2]
    drive = np.empty((2, n_trials))
    drive[1] = dt
    meas = drive[0]
    theta = np.zeros(n_trials)

    def step(phi, idt, est):
        nonlocal ab, theta
        held = 0
        for i in range(phi.shape[1]):
            delta = phi[:, i] - theta
            resp = delta if config.linearized else np.sin(delta, out=delta)
            np.add(two_sqrt_n * resp * dt if earlier else resp * (two_sqrt_n * dt), idt[:, i], out=meas)
            idt[:, i] = meas
            np.exp(_HARMONICS * theta, out=harmonics)
            ab *= decay
            ab += phasor * update * drive
            cand, hold = _abc_phase_update_stacked(ab, theta, harmonics, config.photon_flux, earlier)
            held += int(hold.sum())
            theta = np.where(hold, theta, cand)
            est[:, i] = theta
        return held

    return step


def earlier_abc_loop(config: HomodyneConfig, n_trials: int, chi: float):
    """The exponential-window loop as the package stepped it before its
    Newton steps moved theta in place (_abc_reference_loop with
    ``earlier``), in _abc_loop's protocol: run in place of _abc_loop, it
    gives the values from before that change bit for bit."""
    return _abc_reference_loop(config, n_trials, chi, earlier=True)


def abc_feedback_reference(model: PhaseModel, config: HomodyneConfig, n_trials: int, chi: float):
    """_run_abc_feedback through _abc_reference_loop over the whole run: the
    same (phi, est, idt, held)."""
    step = _abc_reference_loop(config, n_trials, chi)
    dw, idt = trial_noise(config.seed, n_trials, config.n_steps, config.dt)
    phi = _open_loop_phase(model, config.dt, dw)
    est = np.empty((n_trials, config.n_steps + 1))
    est[:, 0] = 0.0
    held = step(phi, idt, est[:, 1:])
    return phi, est, idt, held
