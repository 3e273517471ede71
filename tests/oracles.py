"""Reference implementations that the tests check the package against.

The package does not call any of them. Each reaches a quantity that the
package computes by another route: an extended-precision dense solve, the
differential Riccati equation integrated to stationarity, the closed-form
smoother MSE, the autocovariance as an inverse Fourier transform of the
spectrum, the linearized exponential-window error as two open-loop
recurrences, the undamped integrator chain as running sums, the
(damped) phase chain through scipy's direct-form linear filter, the trial
noise as scaled normal draws, the tabulated spectrum through np.interp,
the linearized filter error stepped one sample at a time, the
smoothing weights by float inverses of the information sum, the
stationary covariance of that Euler recurrence as a discrete Lyapunov
solve, and the exponential-window feedback loop with scalar and broadcast
operands.
"""

from __future__ import annotations

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
    _block_scan,
    _interior_slice,
    _open_loop_phase,
    _trial_noise,
    mse_statistics,
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
    dw, db = _trial_noise(seed, n_trials, int(round(duration / dt)), dt)
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


def trial_noise_normal(seed: int, n_trials: int, n_steps: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The (phase, measurement) increments of _trial_noise, each trial's rows
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
    """_error_passes of a linearized run with the forward error stepped one
    sample at a time: e += e (A - K C)^T dt + dB K^T, then e_0 -= dW, the
    interior e e^T added before each step. Returns (theta - phi, phi_s - phi
    or None, the final e); the smoother replays the forward error and runs
    the backward pass as blocked scans, seeded with that final e, with
    B = (I + A dt)^-1 and V_R C^T taken by a float inverse and a product."""
    n_trials, n_steps = dw.shape
    n = system.n_states
    dt = config.dt
    gain = vf @ system.c
    closed_t = (system.a - np.outer(gain, system.c)).T * dt
    win = _interior_slice(n_steps, dt, config.burn_in)
    err = np.empty_like(dw)
    e = np.zeros((n_trials, n))
    for i in range(n_steps):
        err[:, i] = model.phase_scale * e[:, -1]
        if error_moment is not None and win.start <= i < win.stop:
            error_moment += e[:, :, None] * e[:, None, :]
        e += e @ closed_t
        e += db[:, i, None] * gain
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


def _abc_phase_update_stacked(ab, theta, e, flux):
    """The Newton update of the exponential-window estimate on the stacked
    (2, n_trials) functionals ab = (a, b), with scalar, per-harmonic (2, 1)
    and (2, 1, 2) weights broadcast over the trials and a masked divide.
    e holds e^(i theta) and e^(2i theta). Returns the candidate angles and
    the mask of trials that hold theta."""
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
    cand = theta + np.mod(new - theta + np.pi, 2.0 * np.pi) - np.pi
    return cand, hold


def abc_feedback_reference(model: PhaseModel, config: HomodyneConfig, n_trials: int, chi: float):
    """_run_abc_feedback as a loop that allocates its temporaries each step:
    the same (phi, est, idt, held), with Python-scalar and broadcast
    operands and complex products taken against real factors. The a and b
    updates are one product e^(i theta) (i, e^(i theta)) times the real
    drive (I dt, dt)."""
    if not 0 < chi < math.inf:
        raise ValidationError(f"chi must be positive and finite, got {chi}")
    n_steps = config.n_steps
    dt = config.dt
    two_sqrt_n = 2.0 * math.sqrt(config.photon_flux)
    decay = math.exp(-chi * dt)
    dw, idt = _trial_noise(config.seed, n_trials, n_steps, dt)
    phi = _open_loop_phase(model, dt, dw)
    est = np.empty((n_trials, n_steps + 1))
    est[:, 0] = 0.0
    ab = np.zeros((2, n_trials), dtype=complex)
    rot = np.empty((3, n_trials), dtype=complex)  # (i, e^(i theta), e^(2i theta))
    rot[0] = 1j
    phasor, harmonics, update = rot[1], rot[1:], rot[:2]
    drive = np.empty((2, n_trials))
    drive[1] = dt
    meas = drive[0]
    theta = np.zeros(n_trials)
    held = np.zeros(n_trials, dtype=np.int64)
    for i in range(n_steps):
        delta = phi[:, i] - theta
        resp = delta if config.linearized else np.sin(delta, out=delta)
        np.add(two_sqrt_n * resp * dt, idt[:, i], out=meas)
        idt[:, i] = meas
        np.exp(_HARMONICS * theta, out=harmonics)
        ab *= decay
        ab += phasor * update * drive
        cand, hold = _abc_phase_update_stacked(ab, theta, harmonics, config.photon_flux)
        held += hold
        theta = np.where(hold, theta, cand)
        est[:, i + 1] = theta
    return phi, est, idt, int(held.sum())
