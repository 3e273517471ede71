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
time, since its r depends on theta - phi; a linearized run knows r = dB in
advance. Given dW and r the rest is linear: a forward blocked scan reads
out theta - phi and the smoother's w_f . e (linearized runs) and the
interior state moments, and the anticausal pass, seeded with the forward
error at the end of the record, is a backward blocked scan. The smoother
combines the two through the information sum (the two-filter form of
Fraser and Potter), with weights and backward constants from lg's closed
forms and no matrix inverse. The backward pass is linear in its seed, so
each block is scanned from a zero seed while the forward pass still holds
its dW and r, and one sweep back over the blocks adds the seed's share
once the forward error at the end is known (_BackwardPass). Phase is
tracked on the real line throughout; only the reductions, with
wrap_errors, wrap errors mod 2 pi.

The exponential-window loop is not linear in the state and runs on the
phase itself, integrated open-loop before the loop. It keeps its two
discounted functionals (a, b) as one stacked (2, trials) array of harmonics
1 and 2, so one exponential gives both rotations of a step and one complex
product both Newton derivatives.

The per-step rule of both loops, the sin() loop and the exponential
window: at tens of trials a numpy call costs its dispatch more than its
arithmetic, so neither allocates per step. Buffers and constant operands
are sized once per run, each loop binds its numpy functions to local names
once per run, and every call writes into a buffer passed positionally,
except to np.maximum and np.minimum, whose positional output numpy
deprecates; plain copies are np.positive. The sin() loop makes two calls a
step, in the innovation form e' = e (I + A dt)^T + I dt K^T - dW e_0^T with
I dt = dB - 2 sqrt(N) sin(theta - phi) dt: np.sin of theta - phi, and one
product of the rows [e D | sin | dB | dW] with a fixed matrix, where
D = diag(1, ..., 1, kappa^(n+1/2)) makes the last state theta - phi. Its
floats differ from the closed-loop form's in the last bits. The exponential
window also gives no ufunc a Python scalar, a broadcast shape or a real
factor of a complex product, each of which costs numpy a conversion per
call: such a product is taken as real products of the float views, which
round alike. Its operands and their order are those of the plain
expressions, so its floats are bit for bit those of the reference loop in
tests/oracles.py.

The four entry points take (model, config, ...): p and kappa come from the
PhaseModel, the photon flux N from the HomodyneConfig, and the
linear-Gaussian system (A, C, mu = 4 N kappa^(p-1)) follows from them, so a
run states each parameter once.

Every run, record or ensemble, runs one block driver (_error_blocks for the
filter, _abc_blocks for the exponential window) in blocks of _STREAM_BLOCK
steps: per block it draws each trial's noise into two block buffers, from
generators made once per run, each normal once, steps the loop (or the
forward scan of a linearized run), scans the block backward for a
smoother and yields the block's errors beside its noise. Ensembles reduce
the errors as they come, into per-trial sums of squared error
(_ErrorSums). The smoother's _BackwardPass reduces its own: it keeps
2 n + 1 floats per trial and block, the sums of a quadratic in the
block's seed, except with wrap_errors, where it keeps its smoothed error
whole, as a record does. A record is an ensemble that keeps its outputs,
in a SimulationRecord whose single row is the one-trial case: per block
it integrates the open-loop phase on from the previous block and writes
phi, theta and y, and it adds phi to the swept phi_s - phi, so no run
keeps a (trials, steps) noise array. Filter records and ensembles share one
set-up and zero-flux rule: at N = 0 the gain is zero, and phi_s and the
smoother statistics are None. Every run times its stages into a stage_s
dict of seconds on its result, keyed as in _STAGES.

Noise streams: each trial owns one seed; the phase's Wiener increments and
the shot noise come from two independent child streams of it, so measurement
noise never correlates with the phase increments.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError
from .lg import LgSystem, build_lg_system, retro_covariance, scale_covariance
from .lg import smoother_covariance_closed_form, solve_filter_covariance
from .phase_process import PhaseModel, _check_damping

__all__ = [
    "HomodyneConfig",
    "SimulationRecord",
    "default_config",
    "simulate_record",
    "simulate_filter_trials",
    "run_abc",
    "run_abc_trials",
]

_ABC_HOLD_THRESHOLD = 1e-12
_SCAN_BLOCK = 64  # steps per matrix product in _block_scan
_STREAM_BLOCK = 16 * _SCAN_BLOCK  # steps per block of every run
# Memory a run keeps: (whole paths, block buffers), in float (n_trials, steps)
# arrays, and the one-readout _block_scan maps that it holds at once; a
# smoother's three maps are a linearized run's, a sin() smoother holds one
_FOOTPRINT = {
    "record": (5, 3, 3), "abc_record": (4, 2, 0), "smoother": (0, 7, 3), "wrapped_smoother": (1, 6, 3),
    "filter": (0, 6, 1), "abc": (0, 8, 0),
}
# Per block, the Python objects that tracemalloc sees a backward pass keep
# besides its arrays: the block's span (a slice and its two ints, 120 B) and
# its list slot, and a 56 B tuple that CPython's free list holds per block
# until a full collection (in every streamed run)
_SPAN_BYTES = 192
# Per step of a chunk, the sin() loop's four array views (570 B of Python objects)
_STEP_VIEW_BYTES = 600
_STAGES = ("covariance", "noise", "chain", "loop", "forward_scan", "backward_scan", "reductions")
_N_WINDOWS = 4  # log-spaced windows of the ABC divergence check
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
    response time mu^(-1/p): dt resolves the fastest filter mode (100 steps
    per time constant by default) and the burn-in covers the startup
    transient."""
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


def _filter_kind(smoother: bool, wrap_errors: bool) -> str:
    """The _FOOTPRINT kind of a filter ensemble with these arguments."""
    return ("wrapped_smoother" if wrap_errors else "smoother") if smoother else "filter"


def _run_system(model: PhaseModel, config: HomodyneConfig, kind: str, n_trials: int, moments=False) -> LgSystem:
    """Linear-Gaussian system of a run of ``kind`` (a _FOOTPRINT key) and
    n_trials trials, with full-state ``moments`` or not, after the check
    every run makes before it allocates: rejects a grid that does not
    resolve the response time mu^(-1/p) or the model's damping rates, an
    empty interior window, and a run that would keep more memory than the
    machine has. At mu = 0 a smoother run is a filter run."""
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
    _interior_slice(config.n_steps, config.dt, config.burn_in)
    kind = "filter" if kind.endswith("smoother") and system.mu == 0 else kind
    _check_footprint(kind, n_trials, config.n_steps, system.n_states, moments)
    return system


@dataclass(eq=False)
class SimulationRecord:
    """Trajectories of one or more trials on a shared 1-D time grid ``t``,
    every path (n_trials, T). ``y`` is the rescaled signal as a rate and
    ``theta`` the estimate fed back at each step. Smoother records carry
    the smoothed phi_s, NaN outside the interior window; it is None without
    a measurement and in a filter record (simulate --estimator filter).
    Exponential-window records carry phi_abc, the estimate after each
    step. ``stage_s`` is keyed as in _STAGES.
    """

    t: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    y: np.ndarray
    phi_s: Optional[np.ndarray] = None
    phi_abc: Optional[np.ndarray] = None
    abc_indeterminate_steps: int = 0
    stage_s: dict = field(default_factory=dict)


class _StageClock:
    """Seconds per stage of one run: each lap charges the time since the
    previous lap (or since the clock started) to the stage it names."""

    def __init__(self):
        self.stage_s = dict.fromkeys(_STAGES, 0.0)
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.stage_s[stage] += now - self._last
        self._last = now


def _check_footprint(kind: str, n_trials: int, n_steps: int, n_states: int, moments: bool = False) -> int:
    """Reject a run whose estimate of the memory it keeps exceeds physical
    memory, before anything is allocated; return the estimate, in bytes:
    _FOOTPRINT[kind] whole (n_trials, n_steps) float paths, block buffers
    of _STREAM_BLOCK steps and one-readout scan maps, a filter run's sin()
    loop chunk, _SCAN_BLOCK + 1 rows of n_states + 3 floats per trial and
    _STEP_VIEW_BYTES per step, and what a backward pass keeps per block:
    2 n_states + 1 floats per trial and _SPAN_BYTES. A map of q
    readouts is (n_states + 2 _SCAN_BLOCK) x (q _SCAN_BLOCK + n_states)
    floats; full-state ``moments`` add n_states readouts to the forward
    scan's, which the backward scan's map is held beside."""
    paths, buffers, maps = _FOOTPRINT[kind]
    width = maps * (_SCAN_BLOCK + n_states) + moments * _SCAN_BLOCK * n_states
    maps = (n_states + 2 * _SCAN_BLOCK) * width
    need = 8 * (n_trials * (paths * n_steps + buffers * min(_STREAM_BLOCK, n_steps)) + maps)
    if kind not in ("abc", "abc_record"):
        chunk = min(_SCAN_BLOCK, n_steps)
        need += 8 * n_trials * (chunk + 1) * (n_states + 3) + chunk * _STEP_VIEW_BYTES
    if kind in ("record", "smoother", "wrapped_smoother"):  # one span more at most: a partial scan block's own
        need += (-(-n_steps // _STREAM_BLOCK) + 1) * (8 * n_trials * (2 * n_states + 1) + _SPAN_BYTES)
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no such query on this platform
        return need
    if need > have:
        raise ValidationError(
            f"a {kind} run of {n_trials} trials x {n_steps} steps needs about {need / 2**30:.3g} GiB "
            f"of memory, more than the {have / 2**30:.3g} GiB of physical memory"
        )
    return need


def _interior_slice(n_steps: int, dt: float, burn_in: float) -> slice:
    """Index window with burn_in trimmed from both ends of the grid."""
    k = int(round(burn_in / dt))
    if n_steps - 2 * k < 1:
        raise ValidationError(
            f"window empty after burn-in trimming: {k} burn-in steps at each end of {n_steps} steps"
        )
    return slice(k, n_steps - k)


def _block_spans(n_steps: int):
    """Spans of _STREAM_BLOCK steps that cover a run, made one at a time.
    When there are several, a partial scan block at the end gets a span of
    its own, so a scan over the spans builds its shorter map once."""
    tail = n_steps % _SCAN_BLOCK if n_steps > _STREAM_BLOCK else 0
    cut = n_steps - tail
    spans = (slice(s, min(s + _STREAM_BLOCK, cut)) for s in range(0, cut, _STREAM_BLOCK))
    return itertools.chain(spans, [slice(cut, n_steps)] if tail else [])


def _noise_draws(seed: int, n_trials: int, dt: float, longest: int, clock: _StageClock):
    """draw(span): the (dW, dB) Gaussian increments of the steps in span,
    views of two buffers of ``longest`` steps that the next call
    overwrites. The streams are made once here, so spans drawn in order
    continue one draw of the whole record, and each normal is drawn once."""
    streams = [
        [np.random.default_rng(ss) for ss in child.spawn(2)]
        for child in np.random.SeedSequence(seed).spawn(n_trials)
    ]
    sd = math.sqrt(dt)
    buffers = (np.empty((n_trials, longest)), np.empty((n_trials, longest)))

    def draw(span):
        pair = tuple(a[:, : span.stop - span.start] for a in buffers)
        for j, block in enumerate(pair):
            for trial, row in zip(streams, block):
                trial[j].standard_normal(out=row)
            # normal(0, sd) draws the same standard normals and returns 0 + sd z,
            # which is sd z to the bit for every z != 0
            block *= sd
        clock.lap("noise")
        return pair

    return draw


def _open_loop_phase(model: PhaseModel, dt: float, dw: np.ndarray, carry: Optional[list] = None) -> np.ndarray:
    """True phase of every trial, (n_trials, T) with entry i at t_i, the
    value before Wiener increment dw[:, i], integrated open-loop (the phase
    never depends on the estimate) by explicit Euler from zero:
    dx_0 = -lambda_0 x_0 dt + dW, dx_(k+1) = (x_k - lambda_(k+1) x_(k+1)) dt,
    phi = kappa^(n+1/2) x_n. Stage k is x_k[i+1] = c x_k[i] + g x_(k-1)[i]
    with c = 1 - lambda_k dt and g x_(k-1) = dW (stage 0) or dt x_(k-1),
    rounded as an order-1 direct-form filter: a cumsum of the shifted drive
    where c == 1, else one step per time index for all trials.

    With ``carry``, a list, dw continues the previous call's increments:
    each stage starts from the (drive, value) pair that call left in carry
    (zero when empty) and writes its own back, so a run integrated block by
    block has the floats of one whole call.
    """
    stage = np.asarray(dw, dtype=float)
    ends = []
    for k, c in enumerate(1.0 - model.damping_rates() * dt):
        g = 1.0 if k == 0 else dt
        x = np.empty(stage.shape)
        np.multiply(stage[..., :-1], g, out=x[..., 1:])
        if carry:
            drive, value = carry[k]
            x[..., 0] = drive * g + c * value
        else:
            x[..., 0] = 0.0
        if c == 1.0:
            np.cumsum(x, axis=-1, out=x)
        else:
            steps = x.reshape(-1, x.shape[-1]).T  # a view: steps[i] is x_k[i] of every trial
            for prev, now in zip(steps, steps[1:]):
                now += c * prev
        if carry is not None:
            ends.append((stage[..., -1].copy(), x[..., -1].copy()))
        stage = x
    if carry is not None:
        carry[:] = ends
    stage *= model.phase_scale
    return stage


def _smoothing_weights(vf_tilde: np.ndarray, mu: float):
    """Last rows (w_f[-1], w_r[-1]) of the information sum xs = w_f xf + w_r xr, which
    give phi_s, from Vt_F (p = 2 len(Vt_F)) and the closed forms Vt_S and Vt_R = Vt_F^-1:
    w_f = V_S V_F^-1 = D Vt_S Vt_R D^-1, w_r = D Vt_S Vt_F D^-1, D = diag(mu^-((k+1/2)/p))."""
    p = 2 * len(vf_tilde)
    vs_last = smoother_covariance_closed_form(p)[-1]
    ratio = mu ** (np.arange(1 - len(vf_tilde), 1) / p)  # D[n] / D[k] = mu^((k-n)/p)
    return vs_last @ retro_covariance(vf_tilde) * ratio, vs_last @ vf_tilde * ratio


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


def _block_scan(x, m, g_dw, g_db, w, h_dw, dw, db, out, moment=None, win=slice(0), maps=None, also=None):
    """Add x_i w + dW_i h_dw into out[:, i] along the affine recurrence
    x_(i+1) = x_i m + dW_i g_dw + r_i g_db, with r = db; return the final x.
    With ``moment`` (rows, n, n), also add x_i^T x_i into it for i in ``win``.
    With ``also`` = (w2, out2), w2 (n,) and out2 (rows, T), also add x_i w2
    into out2[:, i], by a map of its own from the same inputs, so the
    readouts of w and the final x keep the floats they have without it.

    x is (rows, n) and dw, db are (rows, T), possibly reversed views. The
    readout w is a vector (n,) with out (rows, T), or q of them as columns
    (n, q) with out (rows, T, q); h_dw is a scalar or one value per readout.
    Each matrix product advances _SCAN_BLOCK steps (a chunked prefix scan);
    a last partial block uses its own, shorter map. ``maps``, a dict, keeps
    the maps across the block-by-block calls of one recurrence and readout,
    those of one block length at a time. A moment reads each block's states
    out next to the readouts, so no state path outlives its block.
    """
    n = m.shape[0]
    rows, n_steps = dw.shape
    q = np.size(w) // n
    if moment is not None:
        w = np.column_stack((w, np.eye(n)))
        h_dw = np.append(np.broadcast_to(h_dw, q), np.zeros(n))
    maps = {} if maps is None else maps
    for start in range(0, n_steps, _SCAN_BLOCK):
        k = min(_SCAN_BLOCK, n_steps - start)
        if k not in maps:
            maps.clear()  # so the maps of two block lengths are never held at once
            maps[k] = [_scan_matrix(m, g_dw, g_db, w, h_dw, k)]
            if also is not None:
                maps[k].append(_scan_matrix(m, g_dw, g_db, also[0], 0.0, k)[:, :k])
        span = slice(start, start + k)
        inputs = np.concatenate((x, dw[:, span], db[:, span]), axis=1)
        step = inputs @ maps[k][0]
        reads = step[:, :-n].reshape(rows, k, -1)
        target = out[:, span]
        target += reads[..., :q].reshape(target.shape)
        if moment is not None:
            states = reads[:, max(win.start - start, 0) : max(win.stop - start, 0), q:]
            moment += states.transpose(0, 2, 1) @ states
        if also is not None:
            also[1][:, span] += inputs @ maps[k][1]
        x = step[:, -n:]
    return x


def _error_blocks(model, system, config, vf, back, shape, draw, clock, error_moment=None):
    """Block driver of the causal estimator in the feedback loop and, with
    ``back`` (a _BackwardPass), the smoother's backward pass over each
    block, on the chain error e of a run of ``shape`` (n_trials, n_steps).

    draw(span) gives the (dW, dB) of each _block_spans span in order, in a
    run the block buffers of _noise_draws; the sin() loop overwrites dB in
    place with r. Yields (span, theta - phi, dW, r) for each span, valid
    until the next item. The forward pass writes the smoother's w_f . e
    into back.partial(span), and once the last item is taken, back is
    swept from the forward error at the end of the record.
    ``error_moment`` (n_trials, n_states, n_states) accumulates the
    interior sum of e e^T.

    The forward error is e' = e F^T + r K^T - dW e_0^T, F = I + (A - K C) dt
    and K = V_F C^T; its blocked scan reads out theta - phi (linearized runs
    only), the smoother's forward readout w_f . e and the moments, so a
    sin() run without moments scans nothing forward. The sin() loop steps
    the same error in the innovation form, where r's term linear in
    theta - phi cancels -K C dt, forms r from each chunk's theta - phi
    afterwards and reads w_f . e from the chunk's states. While a block's
    dW and r are at hand, back.block runs its backward scan.
    """
    if model.is_damped:
        raise ValidationError("the filter loop needs an undamped phase model")
    n = system.n_states
    dt = config.dt
    scale = model.phase_scale
    rows, n_steps = shape
    longest = min(_STREAM_BLOCK, n_steps)
    gain = vf @ system.c
    closed_t = (system.a - np.outer(gain, system.c)).T * dt
    win = _interior_slice(n_steps, dt, config.burn_in)
    forward = (np.eye(n) + closed_t, -np.eye(n)[0], gain)
    scan = config.linearized or error_moment is not None
    w = scale * np.eye(n)[:, -1:] if config.linearized else np.empty((n, 0))
    x = np.zeros((rows, n))  # the forward scan's error
    read_buf = np.empty((rows, longest, w.shape[1])) if scan else None
    maps = {}
    if not config.linearized:
        # The sin() loop steps e^ = e D, D = diag(1, ..., 1, kappa^(n+1/2)),
        # whose last entry is d = theta - phi, by one product per step:
        # z[i] holds the rows [e^ | sin d | dB | dW] before step i, time-major
        # over a chunk of _SCAN_BLOCK steps, and e^' = z[i] G.
        chunk = min(_SCAN_BLOCK, n_steps)
        d_scale = np.ones(n)
        d_scale[-1] = scale
        sin_gain = 2.0 * math.sqrt(config.photon_flux) * dt
        step_g = np.vstack((
            (np.eye(n) + system.a * dt).T * d_scale / d_scale[:, None],  # D^-1 (I + A dt)^T D
            -sin_gain * gain * d_scale,
            gain * d_scale,
            -np.eye(n)[0] * d_scale,
        ))
        z = np.zeros((chunk + 1, rows, n + 3))
        steps = list(zip(z[:-1, :, n - 1], z[:-1, :, n], z[:-1], z[1:, :, :n]))
        err_buf = np.empty((rows, longest))
        sin, matmul = np.sin, np.matmul
        if back is not None:
            forward_read = back.w_f / d_scale  # w_f . e = e^ . (w_f / D)

    for span in _block_spans(n_steps):
        dw, db = draw(span)
        k = span.stop - span.start
        smoothed = None if back is None else back.partial(span)
        if not config.linearized:
            err = err_buf[:, :k]
            for c in range(0, k, chunk):
                j = min(chunk, k - c)
                cols = slice(c, c + j)
                z[:j, :, n + 1] = db[:, cols].T
                z[:j, :, n + 2] = dw[:, cols].T
                for d, sin_d, row, after in steps[:j]:
                    sin(d, sin_d)
                    matmul(row, step_g, after)
                if back is not None:  # one product over the chunk's rows of e^, time-major
                    smoothed[:, cols] = (z[:j].reshape(-1, n + 3)[:, :n] @ forward_read).reshape(j, rows).T
                d, sin_d = z[:j, :, n - 1].T, z[:j, :, n].T
                err[:, cols] = d  # in C order, so the reductions sum each row as a whole path's
                # r = dB + 2 sqrt(N) (sin(phi - theta) - (phi - theta)) dt, over dB
                np.subtract(d, sin_d, out=sin_d)
                sin_d *= sin_gain
                db[:, cols] += sin_d
                z[0, :, :n] = z[j, :, :n]
            clock.lap("loop")
        if scan:
            paths = read_buf[:, :k]
            paths[...] = 0.0
            also = None
            if back is not None and config.linearized:
                smoothed[...] = 0.0
                also = back.w_f, smoothed
            block_win = slice(max(win.start - span.start, 0), max(win.stop - span.start, 0))
            x = _block_scan(x, *forward, w, 0.0, dw, db, paths, error_moment, block_win, maps, also)
            if config.linearized:
                err = paths[..., 0]
            clock.lap("forward_scan")
        if back is not None:
            back.block(span, dw, db, smoothed)
        yield span, err, dw, db
    if back is not None:
        back.sweep(x if config.linearized else z[0, :, :n] / d_scale)


class _BackwardPass:
    """The smoother's backward pass, block by block, combined with the
    forward error through the information sum phi_s - phi = kappa^(n+1/2)
    (w_f . e + w_r . x_b) (the two-filter form of Fraser and Potter), with
    weights ``weights`` = (w_f[-1], w_r[-1]) from _smoothing_weights.

    The backward error, x_i = B (x_(i+1) - e_0 dW_i) with B = (I + A dt)^-1,
    (-dt)^k on its k-th subdiagonal, takes in each residual r_i through
    V_R C^T, the forward gain signed (-1)^(n-k) as V_R is V_F signed
    (-1)^(k+l), and is seeded with the forward error at the end of the
    record. It is linear in its seed, dW and r, so block(), run while the
    forward pass holds a block's dW and r, scans the block backward from a
    zero seed: its readouts complete the block's partial smoothed error s
    and its end state is the partial state x0 at the block's start. The
    seed's share is homogeneous: a seed x at the block's end adds x h to s
    and x Phi to the end state, so each block is an affine map of its seed,
    the element of the parallel-in-time smoother of Sarkka and
    Garcia-Fernandez (IEEE TAC 2021), applied here in sequence by sweep().
    h and Phi are those of the block's scan blocks in turn, each built once
    per scan-block length by _block_scan itself, from an identity seed over
    zero inputs, so no (n, _STREAM_BLOCK) array is kept.

    What the pass keeps follows from the run's ``kind``, a _FOOTPRINT key.
    A record or a wrapped smoother keeps the smoothed error whole, in
    ``path`` (n_trials, n_steps), into which the forward pass writes each
    block's w_f . e (partial()) and sweep() adds x h. Any other smoother
    writes w_f . e into a block buffer and keeps, per block, the interior
    sum of (s + x h)^2 as a quadratic in the seed x: q0 + 2 x . q1 +
    x Q2 x^T, with q0 (n_trials,) and q1 (n_trials, n) per block and Q2
    (n, n) per block length and interior slice, so it keeps no path. Per
    block the pass also keeps its span and x0, n floats for each of
    ``n_trials`` trials. After the sweep, an ensemble's ``sums`` (an
    _ErrorSums, wrapped for a wrapped smoother) hold the per-trial
    interior sums of the smoothed error squared.
    """

    def __init__(self, model: PhaseModel, system: LgSystem, config: HomodyneConfig, vf, weights, n_trials: int,
                 clock, kind: str):
        n, dt = system.n_states, config.dt
        self.w_f, w_r = weights
        drive = (-dt) ** np.arange(n)  # B e_0
        back = sum(c * np.eye(n, k=-k) for k, c in enumerate(drive))
        retro_gain = (vf @ system.c) * (-1.0) ** np.arange(n)[::-1]
        back_t = (back - np.outer(retro_gain, system.c) * dt).T
        self.scan = (back_t, drive @ back_t, retro_gain, w_r, drive @ w_r)
        self.scale = model.phase_scale
        self.win = _interior_slice(config.n_steps, dt, config.burn_in)
        n_blocks = sum(1 for _ in _block_spans(config.n_steps))
        self.ends = np.empty((n_blocks, n_trials, n))
        self.clock = clock
        self.maps, self.units, self.spans = {}, {}, []
        self.sums = None if kind == "record" else _ErrorSums(n_trials, config, kind == "wrapped_smoother")
        if kind == "smoother":
            self.path, self.buf = None, np.empty((n_trials, min(_STREAM_BLOCK, config.n_steps)))
            self.q0, self.q1, self.q2 = np.zeros((n_blocks, n_trials)), np.zeros((n_blocks, n_trials, n)), {}
        else:
            self.path = np.empty((n_trials, config.n_steps))

    def partial(self, span: slice) -> np.ndarray:
        """Where the forward pass writes w_f . e over span, for block()."""
        return self.buf[:, : span.stop - span.start] if self.path is None else self.path[:, span]

    def block(self, span: slice, dw: np.ndarray, r: np.ndarray, s: np.ndarray) -> None:
        """Complete s, which holds w_f . e over the block's steps, to the
        block's partial smoothed error in phase units, NaN outside the
        interior window, and keep the block's partial end state and,
        without a path, its quadratic."""
        i, k = len(self.spans), span.stop - span.start
        x0 = self.ends[i]
        x0[...] = _block_scan(np.zeros_like(x0), *self.scan, dw[:, ::-1], r[:, ::-1], s[:, ::-1], None, slice(0),
                              self.maps)
        s *= self.scale  # w_f + w_r = e_n, so the sum is the smoothed error
        s[:, : max(self.win.start - span.start, 0)] = np.nan
        s[:, max(self.win.stop - span.start, 0) :] = np.nan
        self.spans.append(span)
        self.clock.lap("backward_scan")
        lo, hi = self._interior(span)
        if self.path is None and lo < hi:
            self.q0[i] = np.sum(np.square(s[:, lo:hi]), axis=1)
            q2 = np.zeros((len(self.w_f),) * 2)
            for cols, h, _ in self._walk(np.eye(len(self.w_f)), k):
                a, b = max(cols.start, lo), min(cols.stop, hi)
                if a < b:
                    h = h[:, a - cols.start : b - cols.start]
                    self.q1[i] += s[:, a:b] @ h.T
                    q2 += h @ h.T
            self.q2.setdefault((k, lo, hi), q2)
            self.clock.lap("reductions")

    def _interior(self, span: slice) -> tuple:
        """(lo, hi): the interior window's columns in the block of span."""
        return max(self.win.start - span.start, 0), min(self.win.stop - span.start, span.stop - span.start)

    def _unit(self, j: int) -> np.ndarray:
        """[h | Phi] (n, j + n) of a scan block of j steps: the phase
        readouts and the end state of the backward scan from a unit seed."""
        if j not in self.units:
            n = len(self.w_f)
            h, zero = np.zeros((n, j)), np.broadcast_to(0.0, (n, j))
            phi = _block_scan(np.eye(n), *self.scan, zero, zero, h[:, ::-1], None, slice(0), self.maps)
            h *= self.scale
            self.units[j] = np.hstack((h, phi))
        return self.units[j]

    def _walk(self, x: np.ndarray, k: int):
        """The share of a seed x (rows, n) at the end of a block of k steps,
        per scan block from the block's end back: (cols, x h, x Phi), the
        scan block's columns, the phase readouts the seed adds over them and
        its state at the scan block's start, which seeds the next."""
        for stop in range(k, 0, -_SCAN_BLOCK):
            j = min(_SCAN_BLOCK, stop)
            share = x @ self._unit(j)
            x = share[:, j:]
            yield slice(stop - j, stop), share[:, :j], x

    def sweep(self, x: np.ndarray) -> None:
        """Complete the pass from its seed x, the forward error at the end
        of the record, block by block in reverse: add x h to the path, and
        reduce each block into sums, through its quadratic without a path."""
        for i in reversed(range(len(self.spans))):
            span = self.spans[i]
            k, (lo, hi) = span.stop - span.start, self._interior(span)
            for cols, h, y in self._walk(x, k):
                if self.path is not None:
                    self.path[:, span.start + cols.start : span.start + cols.stop] += h
            if self.path is None:
                if lo < hi:
                    quadratic = np.sum((x @ self.q2[k, lo, hi]) * x, axis=1)
                    self.sums.sums[0] += self.q0[i] + 2.0 * np.sum(x * self.q1[i], axis=1) + quadratic
            elif self.sums is not None:
                self.sums.add(span.start, self.path[:, span])
            x = y + self.ends[i]
        self.clock.lap("backward_scan")


def _abc_phase_updater(flux: float, angle: np.ndarray, e: np.ndarray):
    """Newton update of the exponential-window estimate at photon flux N, in
    place, as update(ab) -> (hold, n_held), with its weights and scratch
    buffers sized here once. angle is the loop's (2, n_trials) complex
    i (theta, 2 theta), real part zero, and e its exponential, the harmonics
    (e^(i theta), e^(2i theta)).

    a and b are sufficient statistics of the recent photocurrent: the
    log-likelihood of a locally constant phase value v is

        ln L(v) = 2 sqrt(N) Re[a* e^(iv)] + N Re[b* e^(2iv)] + const.

    update takes exactly three Newton steps on ln L, each written over theta
    in angle, clipped to +-1 rad and taken only where the curvature is
    negative (elsewhere, a NaN curvature included, the iterate stays). So
    theta moves by at most 3 rad, less than half a turn, and needs no
    moving by whole turns. It need not end at a maximizer: it may end
    unconverged, or where the curvature is >= 0. Trials whose statistics are
    too small to define a phase hold theta, restored from a copy taken only
    on a step where one holds. 2 theta is formed once, after the last step;
    e is left at the second iterate. update returns its own hold mask,
    overwritten by the next call, and its count. It divides for every trial,
    so it must run under
    np.errstate(divide="ignore", invalid="ignore").
    """
    n_trials = angle.shape[1]
    two_sqrt_n = 2.0 * math.sqrt(flux)
    # hold test: (2 sqrt(N), 2N); Newton: (real, imag) weights (-2 sqrt(N), -2 sqrt(N))
    # and (4N, 2N), the minuend and subtrahend of (curv, slope)
    hold_w = np.repeat([[two_sqrt_n], [2.0 * flux]], n_trials, axis=1)
    newton_w = np.repeat([[[-two_sqrt_n, -two_sqrt_n]], [[4.0 * flux, 2.0 * flux]]], n_trials, axis=1)
    threshold, zero, lo, hi = (np.full(n_trials, v) for v in (_ABC_HOLD_THRESHOLD, 0.0, -1.0, 1.0))
    size = np.empty((2, n_trials))
    total = np.empty(n_trials)
    hold = np.empty(n_trials, dtype=bool)
    ok = np.empty(n_trials, dtype=bool)
    conj_ab = np.empty((2, n_trials), dtype=complex)
    prod = np.empty((2, n_trials), dtype=complex)
    terms = prod.view(float).reshape(2, n_trials, 2)
    terms_a, terms_b = terms
    size_a, size_b = size
    diff = np.empty((n_trials, 2))
    curv, slope = diff.T
    step = np.empty(n_trials)
    kept = np.empty(n_trials)
    theta, twice = angle.imag

    absolute, add, conjugate, copyto, count_nonzero, divide, exp, less, maximum, minimum, multiply, subtract = (
        np.abs, np.add, np.conjugate, np.copyto, np.count_nonzero, np.divide, np.exp, np.less, np.maximum,
        np.minimum, np.multiply, np.subtract,
    )

    def newton():
        multiply(conj_ab, e, prod)
        multiply(terms, newton_w, terms)
        subtract(terms_a, terms_b, diff)
        less(curv, zero, ok)  # only step toward a maximum
        divide(slope, curv, step)
        # np.clip, less overhead; theta - clip(slope / curv) where ok, else theta
        maximum(step, lo, out=step)
        minimum(step, hi, out=step)
        subtract(theta, step, step)
        copyto(theta, step, where=ok)

    def update(ab):
        absolute(ab, size)
        multiply(size, hold_w, size)  # 2 sqrt(N) |a| and 2N |b|
        add(size_a, size_b, total)
        less(total, threshold, hold)
        n_held = count_nonzero(hold)
        if n_held:
            copyto(kept, theta)
        conjugate(ab, conj_ab)
        newton()
        add(theta, theta, twice)
        exp(angle, e)
        newton()
        add(theta, theta, twice)
        exp(angle, e)
        newton()
        if n_held:
            copyto(theta, kept, where=hold)
        add(theta, theta, twice)
        return hold, n_held

    return update


def _abc_loop(config: HomodyneConfig, n_trials: int, chi: float):
    """Exponential-window estimator in the feedback loop, batched over
    trials, as step(phi, idt, est) -> held: over one block of the
    (n_trials, k) phase it writes the photocurrent I dt over the shot noise
    dB in idt and the estimate after each step into est, and returns the
    number of trial-steps that held theta. Per step the functionals, one
    (2, n_trials) array ab = (a, b) updated in place, discount and add

        a <- a e^(-chi dt) + e^(i Phi) I dt,  b <- b e^(-chi dt) - e^(2i Phi) dt

    with Phi = theta + pi/2 the oscillator phase, and _abc_phase_updater
    moves theta in place, by at most 3 rad. ab and theta (zero at the
    start) carry over from one call to the next.
    """
    if not 0 < chi < math.inf:
        raise ValidationError(f"chi must be positive and finite, got {chi}")
    dt = config.dt
    gain = np.full(n_trials, 2.0 * math.sqrt(config.photon_flux) * dt)  # 2 sqrt(N) dt, one rounding per step
    dt_pairs = np.full((n_trials, 2), dt)  # (real, imag) of each b term
    decay = np.full((2, n_trials, 2), math.exp(-chi * dt))
    ab = np.zeros((2, n_trials), dtype=complex)
    ab_f = ab.view(float).reshape(2, n_trials, 2)
    resp = np.empty(n_trials)
    # i (theta, 2 theta), real part zero: exp gives the harmonics (e^(i theta), e^(2i theta))
    angle = np.zeros((2, n_trials), dtype=complex)
    theta = angle.imag[0]
    harmonics = np.empty((2, n_trials), dtype=complex)
    phasor = harmonics[0]
    update = _abc_phase_updater(config.photon_flux, angle, harmonics)
    # i I dt: e^(i theta) (i I dt) is the a update's e^(i (theta + pi/2)) I dt,
    # each part one rounded product, as in (i e^(i theta)) I dt
    i_meas = np.zeros(n_trials, dtype=complex)
    meas = i_meas.imag
    # the a and b update terms; the b update squares e^(i theta), which can
    # differ from e^(2i theta) in the last bit
    terms = np.empty((2, n_trials), dtype=complex)
    a_term, b_term = terms
    terms_f = terms.view(float).reshape(2, n_trials, 2)
    b_term_f = terms_f[1]

    add, exp, multiply, positive, sin, subtract = np.add, np.exp, np.multiply, np.positive, np.sin, np.subtract
    linearized = config.linearized

    def step(phi, idt, est):
        held = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for phi_i, idt_i, est_i in zip(phi.T, idt.T, est.T):
                subtract(phi_i, theta, resp)
                if not linearized:
                    sin(resp, resp)
                multiply(resp, gain, resp)
                add(resp, idt_i, idt_i)  # I dt, written over dB
                positive(idt_i, meas)

                # the functionals, at the oscillator phase whose quadrature is the photocurrent
                exp(angle, harmonics)
                multiply(ab_f, decay, ab_f)
                multiply(phasor, i_meas, a_term)
                multiply(phasor, phasor, b_term)
                multiply(b_term_f, dt_pairs, b_term_f)
                add(ab_f, terms_f, ab_f)
                held += update(ab)[1]
                positive(theta, est_i)
        return int(held)

    return step


def _abc_blocks(model: PhaseModel, config: HomodyneConfig, n_trials: int, chi: float, clock):
    """Block driver of the exponential-window loop: for each _block_spans
    span, the noise drawn into buffers of one block, the phase integrated
    on from the previous block, and the loop stepped. Yields
    (span, phi, est, idt, held): the block's phase, the estimate after
    each step, the photocurrent I dt and the trial-steps held so far; the
    arrays are overwritten by the next block."""
    longest = min(_STREAM_BLOCK, config.n_steps)
    draw = _noise_draws(config.seed, n_trials, config.dt, longest, clock)
    step = _abc_loop(config, n_trials, chi)
    est = np.empty((n_trials, longest))
    carry: list = []
    held = 0
    for span in _block_spans(config.n_steps):
        dw, idt = draw(span)
        phi = _open_loop_phase(model, config.dt, dw, carry)
        clock.lap("chain")
        after = est[:, : span.stop - span.start]
        held += step(phi, idt, after)
        clock.lap("loop")
        yield span, phi, after, idt, held


def _run_abc_feedback(model: PhaseModel, config: HomodyneConfig, n_trials: int, chi: float, clock=None):
    """_abc_blocks collected into whole paths: returns (phi, est, idt,
    held), the (n_trials, T) phase, est one column longer, with est[:, i]
    the theta fed back at step i (zero at the start) and est[:, i + 1] the
    estimate after it, the photocurrent and the held trial-steps."""
    phi, idt = np.empty((n_trials, config.n_steps)), np.empty((n_trials, config.n_steps))
    est = np.zeros((n_trials, config.n_steps + 1))
    blocks = _abc_blocks(model, config, n_trials, chi, clock or _StageClock())
    for span, block_phi, after, block_idt, held in blocks:
        phi[:, span], idt[:, span] = block_phi, block_idt
        est[:, span.start + 1 : span.stop + 1] = after
    return phi, est, idt, held


def _run_filter_feedback(model: PhaseModel, config: HomodyneConfig, n_trials: int, kind: str, smoother: bool, clock,
                         moment=None):
    """Set-up and block driver of every filter run of ``kind``, a _FOOTPRINT
    key: the run checked, Vt_F solved once and scaled to V_F, the
    smoother's backward pass when asked, and the noise drawn block by
    block. Returns (back, blocks): the _BackwardPass of ``kind`` (None
    without a smoother or at mu = 0) and the _error_blocks iterator, to
    which ``moment`` goes as error_moment."""
    system = _run_system(model, config, kind, n_trials, moment is not None)
    if system.mu > 0:
        vf_tilde = solve_filter_covariance(model.p)
        vf = scale_covariance(vf_tilde, system.mu)
        weights = _smoothing_weights(vf_tilde, system.mu) if smoother else None
        back = _BackwardPass(model, system, config, vf, weights, n_trials, clock, kind) if smoother else None
    else:  # no measurement: zero gain, nothing to smooth
        vf, back = np.zeros((system.n_states, system.n_states)), None
    n_steps = config.n_steps
    clock.lap("covariance")
    draw = _noise_draws(config.seed, n_trials, config.dt, min(_STREAM_BLOCK, n_steps), clock)
    return back, _error_blocks(model, system, config, vf, back, (n_trials, n_steps), draw, clock, moment)


def simulate_record(model: PhaseModel, config: HomodyneConfig) -> SimulationRecord:
    """One trial with the causal estimator in the feedback loop, as a one-row
    record. With a measurement (mu > 0) the backward pass runs too and
    phi_s is filled on the interior window."""
    return _filter_record(model, config, True)


def _filter_record(model: PhaseModel, config: HomodyneConfig, smoother: bool) -> SimulationRecord:
    """simulate_record, with the backward pass and phi_s only if ``smoother``.
    Per block, phi is integrated on from the previous block, theta = phi +
    (theta - phi) and y = r / dt + 2 sqrt(N) phi; phi_s = phi + (phi_s - phi)."""
    clock = _StageClock()
    back, blocks = _run_filter_feedback(model, config, 1, "record", smoother, clock)
    phi, theta, y = (np.empty((1, config.n_steps)) for _ in range(3))
    two_sqrt_n = 2.0 * math.sqrt(config.photon_flux)
    carry: list = []
    for span, err, dw, r in blocks:
        block_phi = _open_loop_phase(model, config.dt, dw, carry)
        clock.lap("chain")
        phi[:, span] = block_phi
        np.add(err, block_phi, out=theta[:, span])
        block_y = np.divide(r, config.dt, out=y[:, span])
        block_y += np.multiply(block_phi, two_sqrt_n, out=block_phi)
        clock.lap("reductions")
    phi_s = None if back is None else np.add(back.path, phi, out=back.path)
    t = np.arange(float(config.n_steps))
    t *= config.dt  # in place: an integer range times dt would take a second path and a cast buffer
    record = SimulationRecord(t, phi, theta, y, phi_s=phi_s, stage_s=clock.stage_s)
    clock.lap("reductions")
    return record


def run_abc(model: PhaseModel, config: HomodyneConfig, chi: float) -> SimulationRecord:
    """One trial with the exponential-window estimator at window rate chi
    in the feedback loop (_abc_loop), as a one-row record. Steps whose
    statistics are too small to define a phase hold theta and are counted
    in abc_indeterminate_steps.
    """
    clock = _StageClock()
    _run_system(model, config, "abc_record", 1)
    clock.lap("covariance")
    phi, est, y, held = _run_abc_feedback(model, config, 1, chi, clock)
    theta = est[:, :-1]
    y /= config.dt  # y dt = I dt + 2 sqrt(N) theta dt
    y += 2.0 * math.sqrt(config.photon_flux) * theta
    t = np.arange(float(config.n_steps))
    t *= config.dt  # in place, as in simulate_record
    clock.lap("reductions")
    return SimulationRecord(
        t,
        phi,
        theta,
        y,
        phi_abc=est[:, 1:],
        abc_indeterminate_steps=held,
        stage_s=clock.stage_s,
    )


def _trial_statistics(per_trial: np.ndarray) -> tuple[float, float]:
    """Mean of per-trial values and its standard error from their scatter."""
    return float(np.mean(per_trial)), float(np.std(per_trial, ddof=1) / math.sqrt(len(per_trial)))


def _window_slices(n_steps: int, dt: float, start: float) -> list[slice]:
    """Index windows of [start, T] split into _N_WINDOWS log-spaced segments."""
    t_end = n_steps * dt
    if not 0 < start < t_end:
        raise ValidationError(f"window start {start} outside (0, {t_end})")
    edges = np.exp(np.linspace(math.log(start), math.log(t_end), _N_WINDOWS + 1))
    slices = []
    for k in range(_N_WINDOWS):
        i0 = int(edges[k] / dt)
        i1 = max(int(edges[k + 1] / dt), i0 + 1)
        slices.append(slice(i0, min(i1, n_steps)))
    return slices


class _ErrorSums:
    """Per-trial sums of err^2 over the interior window and, with
    ``windows``, each window from burn_in to the end, added block by block
    in any order; with ``wrap`` the error is reduced to (-pi, pi] first.
    Each block is squared once, whole, and every window sums its slice.
    mse_statistics gives the interior MSE and its standard error over
    trials, windowed_mse the ensemble MSE of each window."""

    def __init__(self, n_trials: int, config: HomodyneConfig, wrap: bool, windows: bool = False):
        self.wrap = wrap
        self.slices = [_interior_slice(config.n_steps, config.dt, config.burn_in)]
        if windows:
            self.slices += _window_slices(config.n_steps, config.dt, config.burn_in)
        self.sums = np.zeros((len(self.slices), n_trials))

    def add(self, start: int, err: np.ndarray) -> None:
        if self.wrap:
            sq = err + math.pi
            np.mod(sq, 2.0 * math.pi, out=sq)
            sq -= math.pi
            np.square(sq, out=sq)
        else:
            sq = np.square(err)
        for total, s in zip(self.sums, self.slices):
            lo, hi = max(s.start - start, 0), min(s.stop - start, err.shape[1])
            if lo < hi:
                total += np.sum(sq[:, lo:hi], axis=1)

    def mse_statistics(self) -> tuple[float, float]:
        win = self.slices[0]
        return _trial_statistics(self.sums[0] / (win.stop - win.start))

    def windowed_mse(self) -> np.ndarray:
        counts = np.array([max(s.stop - s.start, 0) for s in self.slices[1:]])
        return self.sums[1:].sum(axis=1) / (counts * self.sums.shape[1])


@dataclass(eq=False)
class FilterTrialResult:
    """Ensemble statistics of filter-feedback trials (and optional smoothing, None at flux 0)."""

    filter_mse: float
    filter_stderr: float
    smoother_mse: Optional[float] = None
    smoother_stderr: Optional[float] = None
    error_cov: Optional[np.ndarray] = None  # mean interior-state error covariance
    error_cov_stderr: Optional[np.ndarray] = None
    stage_s: dict = field(default_factory=dict)  # seconds per stage, keyed as in _STAGES


def simulate_filter_trials(
    model: PhaseModel,
    config: HomodyneConfig,
    n_trials: int,
    smoother: bool = False,
    full_state_stats: bool = False,
    wrap_errors: bool = False,
) -> FilterTrialResult:
    """Ensemble of n_trials filter-feedback trials reduced to the interior
    MSE and its standard error, with ``smoother`` the smoother's too, and
    with ``full_state_stats`` the mean interior state error covariance.
    ``wrap_errors`` reduces errors to (-pi, pi] before squaring, the
    slip-insensitive metric at low flux. Trial i's noise depends only on
    (config.seed, i), so a rerun reproduces the ensemble exactly.
    """
    if n_trials < 2:
        raise ValidationError("need at least 2 trials")
    clock = _StageClock()
    moment = np.zeros((n_trials, model.n + 1, model.n + 1)) if full_state_stats else None
    kind = _filter_kind(smoother, wrap_errors)
    back, blocks = _run_filter_feedback(model, config, n_trials, kind, smoother, clock, moment)
    sums = _ErrorSums(n_trials, config, wrap_errors)
    for span, err, _, _ in blocks:
        sums.add(span.start, err)
        clock.lap("reductions")
    result = FilterTrialResult(*sums.mse_statistics(), stage_s=clock.stage_s)
    if back is not None:
        result.smoother_mse, result.smoother_stderr = back.sums.mse_statistics()
    if full_state_stats:
        win = sums.slices[0]
        per_trial = moment / (win.stop - win.start)
        result.error_cov = per_trial.mean(axis=0)
        result.error_cov_stderr = per_trial.std(axis=0, ddof=1) / math.sqrt(n_trials)
    clock.lap("reductions")
    return result


@dataclass(eq=False)
class AbcTrialResult:
    mse: float
    stderr: float
    window_mse: np.ndarray
    diverged: bool
    indeterminate_steps: int
    stage_s: dict = field(default_factory=dict)  # seconds per stage, keyed as in _STAGES


def run_abc_trials(
    model: PhaseModel,
    config: HomodyneConfig,
    n_trials: int,
    chi: float,
    wrap_errors: bool = False,
) -> AbcTrialResult:
    """Ensemble of n_trials exponential-window feedback trials at window
    rate chi, reduced as in simulate_filter_trials. ``diverged`` is set when
    the ensemble MSE increases strictly across the _N_WINDOWS log-spaced
    windows after burn-in, which square wrapped errors with ``wrap_errors``.
    """
    if n_trials < 2:
        raise ValidationError("need at least 2 trials")
    clock = _StageClock()
    _run_system(model, config, "abc", n_trials)
    sums = _ErrorSums(n_trials, config, wrap_errors, windows=True)
    clock.lap("covariance")
    held = 0
    for span, phi, est, _, held in _abc_blocks(model, config, n_trials, chi, clock):
        sums.add(span.start, np.subtract(est, phi, out=phi))  # phi_abc - phi, written over phi
        clock.lap("reductions")
    wins = sums.windowed_mse()
    mse, se = sums.mse_statistics()
    clock.lap("reductions")
    return AbcTrialResult(
        mse=mse,
        stderr=se,
        window_mse=wins,
        diverged=bool(np.all(np.diff(wins) > 0)),
        indeterminate_steps=held,
        stage_s=clock.stage_s,
    )
