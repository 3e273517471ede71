"""Adaptive homodyne simulation with feedback, two-pass smoothing, and the
exponential-window (ABC) estimator.

Per step of size dt, with theta the controller's current phase estimate:

    I dt = 2 sqrt(N) sin(phi - theta) dt + dB        (or (phi - theta) when
                                                      the loop is linearized)
    y    = I + 2 sqrt(N) theta                       (rescaled signal)

The causal estimator integrates dxf = A xf dt + V_F C^T I dt and feeds back
theta = kappa^(n+1/2) xf[n]. Since C xf = 2 sqrt(N) theta, the loop needs
only the chain error e = xf - x,

    de = (A - V_F C^T C) e dt + V_F C^T r - e_0 dW,
    r  = I dt - 2 sqrt(N) (phi - theta) dt           (= dB when linearized),

with theta - phi = kappa^(n+1/2) e_n; the chain state x, which grows like
t^(n+1/2), is never formed. Only the sin() loop steps one sample at a
time, since its residual r depends on theta - phi. A linearized run has no
per-step loop: r = dB is known in advance, so the forward error is one
blocked scan. Given the stored dW and r, the forward readout and the
anticausal pass (seeded with the forward error at the end of the record)
are linear recurrences, run as blocked scans, and combine into the smoothed
error through the information sum (the two-filter form). Only records add
the open-loop phase back, to write phi, theta, y and phi_s. Phase is
tracked on the real line throughout; nothing is wrapped mod 2 pi.

The exponential-window loop is not linear in the state and runs on the
phase itself, integrated open-loop before the loop. It keeps its two
discounted functionals (a, b) as one stacked (2, trials) array of harmonics
1 and 2, so one exponential gives both rotations of a step and one complex
product both Newton derivatives; the floats are those of the per-array form.

The four entry points take (model, config, ...): p and kappa come from the
PhaseModel, the photon flux N from the HomodyneConfig, and the
linear-Gaussian system (A, C, mu = 4 N kappa^(p-1)) follows from them, so a
run states each parameter once.

Both feedback loops keep one contract: a loop writes what it measured over
the shot-noise buffer (the residual r, or the photocurrent I dt) and returns
(trials, steps) paths. Only simulate_record and run_abc assemble a
SimulationRecord, whose single row is the one-trial case; ensembles reduce
an error path directly, and mse_statistics and windowed_mse take that one
error array.

Noise streams: each trial owns one seed; the phase's Wiener increments and
the shot noise come from two independent child streams of it, so measurement
noise never correlates with the phase increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .lg import LgSystem, build_lg_system, covariance_set, smoother_covariance
from .phase_process import PhaseModel, _check_damping

__all__ = [
    "HomodyneConfig",
    "SimulationRecord",
    "default_config",
    "simulate_record",
    "simulate_filter_trials",
    "run_abc",
    "run_abc_trials",
    "mse_statistics",
    "windowed_mse",
]

_ABC_HOLD_THRESHOLD = 1e-12
_HARMONICS = np.array([[1j], [2j]])  # exp(_HARMONICS * theta) = (e^(i theta), e^(2i theta))
_SCAN_BLOCK = 64  # steps per matrix product in _block_scan
_N_WINDOWS = 4  # log-spaced windows of windowed_mse and the ABC divergence check
# Grid limits in units of the response time mu^(-1/p), for runs and sweep specs
_MAX_DT_FACTOR = 0.01
_MIN_BURN_IN_FACTOR = 20.0


@dataclass(frozen=True)
class HomodyneConfig:
    """Run parameters for one simulated measurement record."""

    photon_flux: float
    dt: float
    duration: float
    burn_in: float
    seed: int
    linearized: bool = False

    def __post_init__(self):
        if self.photon_flux < 0:
            raise ValidationError(f"photon_flux must be >= 0, got {self.photon_flux}")
        if not 0 < self.dt < math.inf:
            raise ValidationError(f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.duration < math.inf:
            raise ValidationError(f"duration must be positive and finite, got {self.duration}")
        if not 0 <= self.burn_in < math.inf:
            raise ValidationError(f"burn_in must be >= 0 and finite, got {self.burn_in}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.duration <= 2 * self.burn_in:
            raise ValidationError(
                f"duration {self.duration} leaves no interior window after "
                f"trimming burn_in {self.burn_in} from both ends"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


def default_config(
    model: PhaseModel,
    flux: float,
    seed: int,
    duration_factor: float = 1000.0,
    dt_factor: float = 0.01,
    burn_in_factor: float = 20.0,
    linearized: bool = False,
) -> HomodyneConfig:
    """Config at photon flux N with all times in units of the closed-loop
    response time mu^(-1/p), mu = 4 N kappa^(p-1) from the model's p and kappa.

    dt resolves the fastest filter mode (100 steps per time constant by
    default) and the burn-in covers the startup transient.
    """
    tau = build_lg_system(model.p, model.kappa, flux).time_scale
    burn = burn_in_factor * tau
    return HomodyneConfig(
        photon_flux=flux,
        dt=dt_factor * tau,
        duration=duration_factor * tau + 2 * burn,
        burn_in=burn,
        seed=seed,
        linearized=linearized,
    )


def _run_system(model: PhaseModel, config: HomodyneConfig) -> LgSystem:
    """Linear-Gaussian system of a run: p and kappa from the model, photon
    flux from the config. Rejects a grid that does not resolve the
    closed-loop response time mu^(-1/p) or the model's damping rates."""
    system = build_lg_system(model.p, model.kappa, config.photon_flux)
    if system.mu > 0:
        tau = system.time_scale
        if config.dt > _MAX_DT_FACTOR * tau * (1 + 1e-9):
            raise ValidationError(
                f"dt={config.dt:.3g} too coarse: must be <= {_MAX_DT_FACTOR} mu^(-1/p) = "
                f"{_MAX_DT_FACTOR * tau:.3g}"
            )
        if config.burn_in < _MIN_BURN_IN_FACTOR * tau * (1 - 1e-9):
            raise ValidationError(
                f"burn_in={config.burn_in:.3g} too short: must be >= {_MIN_BURN_IN_FACTOR:g} mu^(-1/p) = "
                f"{_MIN_BURN_IN_FACTOR * tau:.3g}"
            )
    _check_damping(model, config.dt)
    return system


@dataclass(eq=False)
class SimulationRecord:
    """Trajectories of one or more trials on a shared 1-D time grid ``t``.

    Every path is (n_trials, T), one row per trial; a single record is the
    one-row case. ``y`` is the rescaled signal I + 2 sqrt(N) theta as a
    rate, and ``theta`` is the estimate fed back at each step. Filter-mode
    records are built from the loop's errors: theta = phi + (theta - phi),
    the causal estimate, and phi_s = phi + (phi_s - phi) is NaN outside the
    interior window (None without a measurement). ABC-mode records carry
    phi_abc, the estimate after each step, instead of phi_s.
    """

    config: HomodyneConfig
    t: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    y: np.ndarray
    phi_s: Optional[np.ndarray] = None
    phi_abc: Optional[np.ndarray] = None
    abc_indeterminate_steps: int = 0


def _interior_slice(n_steps: int, dt: float, burn_in: float) -> slice:
    """Index window with burn_in trimmed from both ends of the grid."""
    k = int(round(burn_in / dt))
    if n_steps - 2 * k < 1:
        raise ValidationError("window empty after burn-in trimming")
    return slice(k, n_steps - k)


def _trial_noise(seed: int, n_trials: int, n_steps: int, dt: float):
    """Per-trial (phase, measurement) Gaussian increment arrays, each trial
    drawn from two independent child streams of its own derived seed."""
    root = np.random.SeedSequence(seed)
    dw = np.empty((n_trials, n_steps))
    db = np.empty((n_trials, n_steps))
    for i, child in enumerate(root.spawn(n_trials)):
        phase_ss, meas_ss = child.spawn(2)
        np.random.default_rng(phase_ss).standard_normal(out=dw[i])
        np.random.default_rng(meas_ss).standard_normal(out=db[i])
    # normal(0, sd) draws the same standard normals and returns 0 + sd z,
    # which is sd z to the bit for every z != 0
    sd = math.sqrt(dt)
    dw *= sd
    db *= sd
    return dw, db


def _open_loop_phase(model: PhaseModel, dt: float, dw: np.ndarray) -> np.ndarray:
    """True phase path of every trial, (n_trials, T) with entry i at t_i,
    the value before Wiener increment dw[:, i].

    The phase never depends on the estimate, so the chain is integrated
    open-loop, apart from any feedback loop, by explicit Euler from zero:
    dx_0 = -lambda_0 x_0 dt + dW, dx_(k+1) = (x_k - lambda_(k+1) x_(k+1)) dt,
    and phi = kappa^(n+1/2) x_n. Each stage is a first-order linear
    recurrence x_k[i+1] = c x_k[i] + g x_(k-1)[i] from x_k[0] = 0, with
    c = 1 - lambda_k dt and drive g x_(k-1) = dW (stage 0) or dt x_(k-1),
    so at most two stages are live at a time. An undamped stage (c == 1) is
    a cumsum of its drive shifted one step; a damped one steps the
    recurrence once per time index for all trials. Both round each step as
    c x_k[i] + (g x_(k-1)[i]), the arithmetic of an order-1 direct-form
    filter.
    """
    stage = np.asarray(dw, dtype=float)
    for k, c in enumerate(1.0 - model.damping_rates() * dt):
        x = np.zeros(stage.shape)
        np.multiply(stage[..., :-1], 1.0 if k == 0 else dt, out=x[..., 1:])
        if c == 1.0:
            np.cumsum(x, axis=-1, out=x)
        else:
            steps = x.reshape(-1, x.shape[-1]).T  # a view: steps[i] is x_k[i] of every trial
            for prev, now in zip(steps, steps[1:]):
                now += c * prev
        stage = x
    stage *= model.phase_scale
    return stage


def _smoothing_weights(vf: np.ndarray, vr: np.ndarray):
    """Last rows (w_f[-1], w_r[-1]) of the information sum xs = w_f xf + w_r xr,
    with w_f = V_S V_F^-1 and w_r = V_S V_R^-1: the rows that give phi_s."""
    vs = smoother_covariance(vf, vr)
    return (vs @ np.linalg.inv(vf))[-1], (vs @ np.linalg.inv(vr))[-1]


def _scan_matrix(m, g_dw, g_db, w, h_dw, k: int) -> np.ndarray:
    """(n + 2k, kq + n) map from [x_0, dW_0..k-1, r_0..k-1] to
    [out_0..k-1, x_k] over k steps of the recurrence in _block_scan, where
    out_i holds the q readouts of step i (q = 1 for a vector w).

    Built by stepping that recurrence once on the n + 2k unit inputs: row j
    of the map is the response to input j set to 1 and all others to 0, so
    the inputs dW_i and r_i enter only at step i.
    """
    n = m.shape[0]
    q = np.size(w) // n
    x = np.eye(n + 2 * k, n)
    out = np.empty((n + 2 * k, k * q + n))
    for i in range(k):
        cols = slice(i * q, (i + 1) * q)
        out[:, cols] = (x @ w).reshape(-1, q)
        out[n + i, cols] += h_dw
        x = x @ m
        x[n + i] += g_dw
        x[n + k + i] += g_db
    out[:, k * q :] = x
    return out


def _block_scan(x, m, g_dw, g_db, w, h_dw, dw, db, out, moment=None, win=slice(0)):
    """Add x_i w + dW_i h_dw into out[:, i] along the affine recurrence
    x_(i+1) = x_i m + dW_i g_dw + r_i g_db, with r = db; return the final x.
    With ``moment`` (rows, n, n), also add x_i^T x_i into it for i in ``win``.

    x is (rows, n) and dw, db are (rows, T), possibly reversed views. The
    readout w is a vector (n,) with out (rows, T), or q of them as columns
    (n, q) with out (rows, T, q); h_dw is a scalar or one value per readout.
    The scan advances _SCAN_BLOCK steps per matrix product (a chunked form
    of the parallel prefix scan over the affine recurrence); the last
    partial block uses its own, shorter map. A moment reads each block's
    states out next to the readouts and sums their outer products once per
    block, so no state path outlives its block.
    """
    n = m.shape[0]
    rows, n_steps = dw.shape
    q = np.size(w) // n
    if moment is not None:
        w = np.column_stack((w, np.eye(n)))
        h_dw = np.append(np.broadcast_to(h_dw, q), np.zeros(n))
    block = _scan_matrix(m, g_dw, g_db, w, h_dw, _SCAN_BLOCK)
    for start in range(0, n_steps, _SCAN_BLOCK):
        k = min(_SCAN_BLOCK, n_steps - start)
        if k < _SCAN_BLOCK:
            block = _scan_matrix(m, g_dw, g_db, w, h_dw, k)
        span = slice(start, start + k)
        step = np.concatenate((x, dw[:, span], db[:, span]), axis=1) @ block
        reads = step[:, :-n].reshape(rows, k, -1)
        target = out[:, span]
        target += reads[..., :q].reshape(target.shape)
        if moment is not None:
            states = reads[:, max(win.start - start, 0) : max(win.stop - start, 0), q:]
            moment += states.transpose(0, 2, 1) @ states
        x = step[:, -n:]
    return x


def _error_passes(
    model: PhaseModel,
    system: LgSystem,
    config: HomodyneConfig,
    dw: np.ndarray,
    db: np.ndarray,
    vf: np.ndarray,
    smoothing: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    error_moment: Optional[np.ndarray] = None,
):
    """Causal estimator in the feedback loop and, with ``smoothing``, the
    backward pass, both on the chain error e = x_hat - x, batched over trials.

    dw and db are the (n_trials, T) phase and shot-noise increments; the
    sin() loop overwrites db in place with the residual
    r = I dt - 2 sqrt(N) (phi - theta) dt, which a linearized run leaves
    equal to dB. Returns theta - phi and, with
    ``smoothing = (V_R, w_f[-1], w_r[-1])``, phi_s - phi (NaN outside the
    interior window), else None. ``error_moment`` (n_trials, n+1, n+1)
    accumulates the interior sum of e e^T.

    Only the sin() loop steps one sample at a time. Given r, the forward
    error is the affine recurrence e' = e F^T + r K^T - dW e_0^T with
    F = I + (A - K C) dt and K = V_F C^T. A linearized run knows r = dB in
    advance and runs it as one blocked scan, which reads out theta - phi,
    the smoother's w_f . e and the moments together; after the sin() loop
    the same scan replays it for w_f . e alone.
    """
    if model.is_damped:
        raise ValidationError("the filter loop needs an undamped phase model")
    n_trials, n_steps = dw.shape
    n = system.n_states
    dt = config.dt
    scale = model.phase_scale
    gain = vf @ system.c
    closed_t = (system.a - np.outer(gain, system.c)).T * dt
    forward = (np.zeros((n_trials, n)), np.eye(n) + closed_t, -np.eye(n)[0], gain)
    win = _interior_slice(n_steps, dt, config.burn_in)

    if config.linearized:
        readouts = [scale * np.eye(n)[-1]] + ([smoothing[1]] if smoothing else [])
        paths = np.zeros(dw.shape + (len(readouts),))
        e = _block_scan(*forward, np.column_stack(readouts), 0.0, dw, db, paths, error_moment, win)
        err, proj = paths[..., 0], paths[..., -1]
    else:
        err = np.empty_like(dw)  # theta - phi = kappa^(n+1/2) e_n
        e = np.zeros((n_trials, n))  # updated in place
        e_first, e_last = e[:, 0], e[:, -1]
        sin_gain = 2.0 * math.sqrt(config.photon_flux) * dt
        for i in range(n_steps):
            d = scale * e_last
            err[:, i] = d
            r = db[:, i]  # r = dB + 2 sqrt(N) (sin(phi - theta) - (phi - theta)) dt
            r += sin_gain * (d - np.sin(d))
            if error_moment is not None and win.start <= i < win.stop:
                error_moment += e[:, :, None] * e[:, None, :]
            e += e @ closed_t
            e += r[:, None] * gain
            e_first -= dw[:, i]
        if smoothing is not None:
            proj = np.zeros_like(dw)
            _block_scan(*forward, smoothing[1], 0.0, dw, db, proj)
    if smoothing is None:
        return err, None

    # The backward pass, x_i = B (x_(i+1) - e_0 dW_i) with B = (I + A dt)^-1,
    # is a blocked scan too: its anticausal estimate takes in the residual
    # r_i = y_i dt - C x_i dt of each sample. It is seeded with the forward
    # error at the end of the record and runs on reversed views.
    vr, _, w_r = smoothing
    back = np.linalg.inv(np.eye(n) + system.a * dt)
    back_t = (back - np.outer(vr @ system.c, system.c) * dt).T
    drive = back[:, 0]
    _block_scan(
        e, back_t, drive @ back_t, vr @ system.c, w_r, drive @ w_r,
        dw[:, ::-1], db[:, ::-1], proj[:, ::-1],
    )
    proj *= scale  # w_f + w_r = I, so the sum is the smoothed error
    proj[:, : win.start] = np.nan
    proj[:, win.stop :] = np.nan
    return err, proj


def _abc_weights(flux: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-harmonic weights of _abc_phase_update at photon flux N: the hold
    test's (2 sqrt(N), 2N) and, for the (real, imag) parts of the two Newton
    products, (-2 sqrt(N), -2 sqrt(N)) and (4N, 2N), as the minuend and
    subtrahend of (curv, slope)."""
    two_sqrt_n = 2.0 * math.sqrt(flux)
    hold = np.array([[two_sqrt_n], [2.0 * flux]])
    newton = np.array([[[-two_sqrt_n, -two_sqrt_n]], [[4.0 * flux, 2.0 * flux]]])
    return hold, newton


def _abc_phase_update(
    ab: np.ndarray, theta: np.ndarray, e: np.ndarray, weights: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """New phase estimate from the discounted functionals ab = (a, b).

    a and b are sufficient statistics of the recent photocurrent: the
    log-likelihood of a locally constant phase value v is

        ln L(v) = 2 sqrt(N) Re[a* e^(iv)] + N Re[b* e^(2iv)] + const.

    The estimate is the maximizer nearest the previous theta (Newton steps
    seeded there, then continued to the closest 2 pi branch). ab and e are
    (2, n_trials), the two harmonics stacked: e holds e^(i theta) and
    e^(2i theta), the first iterate's rotations, and each iterate takes
    both harmonics' terms from one product conj(ab) e, whose (real, imag)
    parts times the weights give curv and slope in one row difference.
    ``weights`` comes from _abc_weights. Returns the candidate angles and a
    mask of trials whose statistics are too small to define one (those hold
    the previous theta).
    """
    hold_w, newton_w = weights
    size = np.abs(ab) * hold_w  # 2 sqrt(N) |a| and 2N |b|
    hold = size[0] + size[1] < _ABC_HOLD_THRESHOLD
    conj_ab = np.conj(ab)
    new = theta
    for k in range(3):
        if k:
            e = np.exp(_HARMONICS * new)
        terms = (conj_ab * e).view(float).reshape(2, -1, 2) * newton_w
        diff = terms[0] - terms[1]
        curv, slope = diff[:, 0], diff[:, 1]
        ok = curv < 0.0  # only step toward a maximum
        step = np.divide(slope, curv, out=np.zeros(len(theta)), where=ok)
        # new - clip(slope / curv) is new + clip(-slope / curv), bit for bit
        new = new - np.minimum(np.maximum(step, -1.0), 1.0)  # np.clip, less overhead
    cand = theta + np.mod(new - theta + np.pi, 2.0 * np.pi) - np.pi
    return cand, hold


def _run_abc_feedback(model: PhaseModel, config: HomodyneConfig, n_trials: int, chi: float):
    """Exponential-window estimator in the feedback loop, batched over trials.

    The two functionals are one (2, n_trials) array ab = (a, b), updated in
    place; one exponential gives both harmonics e^(i theta), e^(2i theta) of
    each step, for the a and b updates and the first Newton iterate.
    Returns (phi, est, idt, held): the (n_trials, T) phase; est, one column
    longer, with est[:, i] the theta fed back at step i and est[:, i + 1]
    the estimate after it; the photocurrent I dt, written over the shot
    noise dB; and the number of trial-steps that held theta.
    """
    if not 0 < chi < math.inf:
        raise ValidationError(f"chi must be positive and finite, got {chi}")
    n_steps = config.n_steps
    dt = config.dt
    two_sqrt_n = 2.0 * math.sqrt(config.photon_flux)
    decay = math.exp(-chi * dt)
    weights = _abc_weights(config.photon_flux)

    dw, idt = _trial_noise(config.seed, n_trials, n_steps, dt)
    phi = _open_loop_phase(model, dt, dw)
    del dw
    est = np.empty((n_trials, n_steps + 1))
    est[:, 0] = 0.0
    ab = np.zeros((2, n_trials), dtype=complex)
    # rot = (i, e^(i theta), e^(2i theta)). Rows 1-2 are the harmonics;
    # e^(i theta) times rows 0-1 gives the rotations of the a and b updates,
    # whose real factors are drive = (I dt, dt). The b update squares
    # e^(i theta), which can differ from e^(2i theta) in the last bit.
    rot = np.empty((3, n_trials), dtype=complex)
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
        idt[:, i] = meas  # I dt, written over dB

        # Discounted functionals, phasors taken at the physical oscillator
        # phase theta + pi/2 (the sin() photocurrent is that quadrature).
        np.exp(_HARMONICS * theta, out=harmonics)
        ab *= decay
        ab += phasor * update * drive
        cand, hold = _abc_phase_update(ab, theta, harmonics, weights)
        held += hold
        theta = np.where(hold, theta, cand)
        est[:, i + 1] = theta
    return phi, est, idt, int(held.sum())


def simulate_record(model: PhaseModel, config: HomodyneConfig) -> SimulationRecord:
    """One trial with the causal estimator in the feedback loop, as a one-row
    record. With a measurement (mu > 0) the backward pass runs too and
    phi_s is filled on the interior window."""
    system = _run_system(model, config)
    dw, db = _trial_noise(config.seed, 1, config.n_steps, config.dt)
    if system.mu > 0:
        cov = covariance_set(system)
        smoothing = (cov.vr, *_smoothing_weights(cov.vf, cov.vr))
        err, s_err = _error_passes(model, system, config, dw, db, cov.vf, smoothing)
    else:  # no measurement: zero gain, nothing to smooth
        vf = np.zeros((system.n_states, system.n_states))
        err, s_err = _error_passes(model, system, config, dw, db, vf)
    phi = _open_loop_phase(model, config.dt, dw)
    y = db / config.dt  # y dt = C x dt + r
    y += 2.0 * math.sqrt(config.photon_flux) * phi
    theta = phi + err
    return SimulationRecord(
        config,
        np.arange(config.n_steps) * config.dt,
        phi,
        theta,
        y,
        phi_s=None if s_err is None else phi + s_err,
    )


def run_abc(model: PhaseModel, config: HomodyneConfig, chi: float) -> SimulationRecord:
    """One trial with the exponential-window estimator in the feedback loop,
    as a one-row record.

    Per step the two discounted photocurrent functionals update as
    a <- a e^(-chi dt) + e^(i Phi) I dt and b <- b e^(-chi dt) - e^(2 i Phi) dt
    with Phi = theta + pi/2 the oscillator phase, and the new theta is the
    likelihood maximizer nearest the previous one (see _abc_phase_update).
    Steps whose statistics are too small to define a phase hold theta and
    are counted in abc_indeterminate_steps.
    """
    _run_system(model, config)
    phi, est, y, held = _run_abc_feedback(model, config, 1, chi)
    theta = est[:, :-1]
    y /= config.dt  # y dt = I dt + 2 sqrt(N) theta dt
    y += 2.0 * math.sqrt(config.photon_flux) * theta
    return SimulationRecord(
        config,
        np.arange(config.n_steps) * config.dt,
        phi,
        theta,
        y,
        phi_abc=est[:, 1:],
        abc_indeterminate_steps=held,
    )


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
    n_trials = err.shape[0]
    if n_trials < 2:
        raise ValidationError("need at least 2 trials for a standard error")
    win = _interior_slice(err.shape[1], dt, burn_in)
    per_trial = np.mean(_squared_error(err[:, win], wrap), axis=1)
    mse = float(np.mean(per_trial))
    stderr = float(np.std(per_trial, ddof=1) / math.sqrt(n_trials))
    return mse, stderr


def windowed_mse(err: np.ndarray, dt: float, start: float, wrap: bool = False) -> np.ndarray:
    """Ensemble-mean squared error over logarithmically spaced time windows.

    Splits [start, T] into four log-spaced segments and averages err^2 of
    all trials within each; a strictly increasing result is the
    signature of an estimator with no stationary error. ``wrap`` reduces
    the error to (-pi, pi] first, as in mse_statistics.
    """
    err = np.asarray(err, dtype=float)
    n_steps = err.shape[-1]
    t_end = n_steps * dt
    if not 0 < start < t_end:
        raise ValidationError(f"window start {start} outside (0, {t_end})")
    edges = np.exp(np.linspace(math.log(start), math.log(t_end), _N_WINDOWS + 1))
    sq = _squared_error(err, wrap)
    out = np.empty(_N_WINDOWS)
    for k in range(_N_WINDOWS):
        i0 = int(edges[k] / dt)
        i1 = max(int(edges[k + 1] / dt), i0 + 1)
        out[k] = float(np.mean(sq[..., i0:min(i1, n_steps)]))
    return out


@dataclass(eq=False)
class FilterTrialResult:
    """Ensemble statistics of filter-feedback trials (and optional smoothing)."""

    n_trials: int
    filter_mse: float
    filter_stderr: float
    smoother_mse: Optional[float] = None
    smoother_stderr: Optional[float] = None
    error_cov: Optional[np.ndarray] = None  # mean interior-state error covariance
    error_cov_stderr: Optional[np.ndarray] = None


def simulate_filter_trials(
    model: PhaseModel,
    config: HomodyneConfig,
    n_trials: int,
    smoother: bool = False,
    full_state_stats: bool = False,
    wrap_errors: bool = False,
) -> FilterTrialResult:
    """Run an ensemble of feedback trials and reduce to MSE statistics.

    Trials are keyed by (config.seed, trial index); rerunning with the same
    arguments reproduces the ensemble exactly.
    """
    if n_trials < 2:
        raise ValidationError("need at least 2 trials")
    system = _run_system(model, config)
    cov = covariance_set(system)
    smoothing = (cov.vr, *_smoothing_weights(cov.vf, cov.vr)) if smoother else None
    moment = np.zeros((n_trials, system.n_states, system.n_states)) if full_state_stats else None
    dw, db = _trial_noise(config.seed, n_trials, config.n_steps, config.dt)
    err, s_err = _error_passes(model, system, config, dw, db, cov.vf, smoothing, moment)
    del dw, db
    mse, se = mse_statistics(err, config.dt, config.burn_in, wrap=wrap_errors)
    result = FilterTrialResult(n_trials=n_trials, filter_mse=mse, filter_stderr=se)
    del err

    if full_state_stats:
        win = _interior_slice(config.n_steps, config.dt, config.burn_in)
        per_trial = moment / (win.stop - win.start)
        result.error_cov = per_trial.mean(axis=0)
        result.error_cov_stderr = per_trial.std(axis=0, ddof=1) / math.sqrt(n_trials)

    if smoother:
        s_mse, s_se = mse_statistics(s_err, config.dt, config.burn_in, wrap=wrap_errors)
        result.smoother_mse = s_mse
        result.smoother_stderr = s_se
    return result


@dataclass(eq=False)
class AbcTrialResult:
    n_trials: int
    mse: float
    stderr: float
    window_mse: np.ndarray
    diverged: bool
    indeterminate_steps: int


def run_abc_trials(
    model: PhaseModel,
    config: HomodyneConfig,
    n_trials: int,
    chi: float,
    wrap_errors: bool = False,
) -> AbcTrialResult:
    """Ensemble of exponential-window feedback trials with divergence check.

    ``diverged`` is set when the ensemble windowed MSE increases strictly
    across four log-spaced windows after burn-in; with ``wrap_errors`` the
    windows square wrapped errors, like the MSE itself.
    """
    if n_trials < 2:
        raise ValidationError("need at least 2 trials")
    _run_system(model, config)
    phi, est, idt, held = _run_abc_feedback(model, config, n_trials, chi)
    del idt
    err = np.subtract(est[:, 1:], phi, out=phi)  # phi_abc - phi, written over phi
    del est
    mse, se = mse_statistics(err, config.dt, config.burn_in, wrap=wrap_errors)
    wins = windowed_mse(err, config.dt, config.burn_in, wrap=wrap_errors)
    return AbcTrialResult(
        n_trials=n_trials,
        mse=mse,
        stderr=se,
        window_mse=wins,
        diverged=bool(np.all(np.diff(wins) > 0)),
        indeterminate_steps=held,
    )
