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
time, since its r depends on theta - phi, and it reads the smoother's
w_f . e and the interior state moments from its own states. A linearized
run knows r = dB in advance, so a forward blocked scan reads out all
three. Given dW and r, the anticausal pass, seeded with the forward error
at the end of the record, is a backward blocked scan. The smoother
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
np.dot of a fixed matrix with the features [e D | sin | dB | dW] of every
trial, where D = diag(1, ..., 1, kappa^(n+1/2)) makes the last state
theta - phi. The features are kept feature-major, one contiguous row of
trials each, so np.sin reads and writes contiguous rows and np.dot writes
the next e D as a C-contiguous block, by its two-dimensional BLAS path
rather than matmul's per-call dispatch. Its floats differ from the
closed-loop form's in the last bits. The exponential window also gives no
ufunc a Python scalar, a broadcast shape or a real factor of a complex
product, each of which costs numpy a conversion per call: such a product
is taken as real products of the float views, which round alike. Its
operands and their order are those of the plain expressions, so its
floats are bit for bit those of the reference loop in tests/oracles.py.

The four entry points take (model, config, ...), from which the
linear-Gaussian system (A, C, mu = 4 N kappa^(p-1)) follows, so a run
states each parameter once.

Every run, record or ensemble, runs one block driver (_error_blocks for the
filter, _abc_blocks for the exponential window) in blocks of _STREAM_BLOCK
steps: per block it draws each trial's noise, steps the loop (or the
forward scan of a linearized run), scans the block backward for a
smoother and yields the block's errors beside its noise. Ensembles reduce
them as they come (_ErrorSums) into one EnsembleResult; the smoother's
_BackwardPass keeps 2 n + 1 floats per trial and block, or with
wrap_errors its smoothed error whole, as a record does. Each loop checks
its runs before they allocate, in one set-up home (_run_filter_feedback,
_run_abc_feedback), against the arrays that _peak_arrays declares and the
runs allocate. A record keeps its outputs in a one-row SimulationRecord:
per block it writes phi, the estimate and y, and a filter record adds phi
to the swept phi_s - phi. Runs time their stages into stage_s and count
what they see into diagnostics (so far indeterminate_steps).

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
# What tracemalloc counts of a run beyond the arrays of _peak_arrays (p = 2,
# grid 30, warm-up call first): per trial 2.4 KB, the slope over 2 to 16
# exponential-window trials (two generators, the loops' small arrays); per run
# up to 24.4 KB (two-trial smoothers: closures, views, uncollected garbage)
_RUN_BYTES = 24 * 1024
_TRIAL_BYTES = 2560
_VIEW_BYTES = 144  # an array view, as tracemalloc counts the sin() loop's 256 step views (143.5 B each)
_STAGES = ("covariance", "noise", "chain", "loop", "forward_scan", "backward_scan", "reductions")
_N_WINDOWS = 4  # log-spaced windows of the ABC divergence check
_SMOOTHER_KINDS = ("record", "smoother", "wrapped_smoother")  # the _peak_arrays kinds with a backward pass
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
    """The _peak_arrays kind of a filter ensemble with these arguments."""
    return ("wrapped_smoother" if wrap_errors else "smoother") if smoother else "filter"


def _run_system(model: PhaseModel, config: HomodyneConfig, kind: str, n_trials: int, moments=False) -> LgSystem:
    """Linear-Gaussian system of a run of ``kind`` (see _peak_arrays) and
    n_trials trials in config's loop, with full-state ``moments`` or not,
    after the check every run makes before it allocates: rejects a grid
    that does not resolve the response time mu^(-1/p) or the model's
    damping rates, an empty interior window, and a run that would keep more
    memory than the machine has. At mu = 0 a smoother run is a filter run
    and a record a filter record."""
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
    if system.mu == 0:
        kind = {"smoother": "filter", "wrapped_smoother": "filter", "record": "filter_record"}.get(kind, kind)
    _check_footprint(kind, n_trials, config.n_steps, system.n_states, config.linearized, moments)
    return system


@dataclass(eq=False)
class SimulationRecord:
    """Trajectories of one or more trials on a shared 1-D time grid ``t``,
    every path (n_trials, T). ``y`` is the rescaled signal as a rate and
    ``theta`` the estimate fed back at each step. simulate_record's records
    carry the smoothed phi_s, NaN outside the interior window; it is None
    without a measurement and with smoother=False (simulate --estimator
    filter). run_abc's carry phi_abc, the estimate after each step, a view
    of theta's path, and the held trial-steps in
    diagnostics["indeterminate_steps"]. ``stage_s`` is keyed as in _STAGES.
    """

    t: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    y: np.ndarray
    phi_s: Optional[np.ndarray] = None
    phi_abc: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)
    stage_s: dict = field(default_factory=dict)


class _StageClock:
    """Seconds per stage of one run: each lap charges the time since the
    previous lap (or since the clock started) to the stage it names and
    returns the stage_s dict, so a result takes it from its last lap."""

    def __init__(self):
        self.stage_s = dict.fromkeys(_STAGES, 0.0)
        self._last = time.perf_counter()

    def lap(self, stage: str) -> dict:
        now = time.perf_counter()
        self.stage_s[stage] += now - self._last
        self._last = now
        return self.stage_s


def _peak_arrays(kind: str, n_trials: int, n_steps: int, n_states: int, linearized: bool, moments=False) -> dict:
    """The float arrays a run holds at its peak, as shapes by name, for the
    filter's one-trial "record" (with the smoother) and "filter_record",
    the exponential window's "abc_record" and the ensembles "filter",
    "smoother", "wrapped_smoother" and "abc", with the filter's
    ``linearized`` loop or its sin() loop, each with only the arrays it
    builds. The sites that allocate a run's arrays take their
    shapes from here (a block driver its loop's ensemble's) and
    _check_footprint sums them. Helpers that tests call too allocate the
    rest, declared at the most a run holds at once: the chain stages before
    the last; _block_scan's maps, (n + 2 _SCAN_BLOCK) x (q _SCAN_BLOCK + n)
    floats for q readouts, a map's build, the scan's inputs, its product
    and the one before, and the buffers numpy takes to add a readout over
    strided views; and a block's square in a reduction."""
    rows, n = n_trials, n_states
    block, chunk = min(_STREAM_BLOCK, n_steps), min(_SCAN_BLOCK, n_steps)
    blocks = -(-n_steps // _STREAM_BLOCK) + 1  # one more at most: a partial scan block's own
    arrays = {"noise": (2, rows, block)}  # dW and dB (then r or I dt) of one block
    stages = (min(n - 1, 2), rows, block)  # the chain's, but the last, in records and the exponential window
    q = 1 + (linearized and moments) * n  # a scan's readouts: with moments, the forward scan reads the states
    if kind.startswith("abc"):
        arrays.update(phase=(rows, block), est=(rows, block), stages=stages)
    elif linearized:  # theta - phi of a block, and the forward scan's map
        arrays.update(errors=(rows, block), forward_map=(n + 2 * chunk, q * chunk + n))
    else:  # theta - phi of a block, the sin() loop's feature-major [e^ | sin | dB | dW] and its step views, as floats
        arrays.update(errors=(rows, block), loop=(chunk + 1, n + 3, rows), views=(chunk, 4, _VIEW_BYTES // 8))
    if moments:  # the interior sum of e e^T, and a block's or a chunk's product
        arrays["moments"] = (2, rows, n, n)
    if kind in _SMOOTHER_KINDS:  # the backward map, and a linearized second readout's
        arrays.update(back_maps=(1 + linearized, n + 2 * chunk, chunk + n), ends=(blocks, rows, n))
        arrays["smoothed"] = (rows, block if kind == "smoother" else n_steps)
    if "forward_map" in arrays or "back_maps" in arrays:  # a scan's inputs, two products and numpy's buffers,
        arrays.update(  # and a map's build: its unit states, their next step and a step's readouts
            scan=(rows, n + 2 * chunk + 2 * (q * chunk + n)), buffers=(3, min(rows * chunk, np.getbufsize())),
            build=(n + 2 * chunk, 2 * n + q),
        )
    if kind == "smoother":  # per block, the sums q0 and q1 of its quadratic
        arrays["sums"] = (blocks, rows, n + 1)
    if kind == "abc_record":  # one column longer than its paths
        arrays["estimates"] = (rows, n_steps + 1)
    if kind.endswith("record"):  # phi, theta and y, or phi and y, then t
        arrays.update(paths=(2 + (kind != "abc_record"), rows, n_steps), t=(n_steps,), stages=stages)
    else:
        arrays["square"] = (rows, block)
    return arrays


def _check_footprint(kind: str, n_trials: int, n_steps: int, n_states: int, linearized: bool, moments=False) -> int:
    """Reject a run whose estimate of the memory it keeps exceeds physical
    memory, before anything is allocated; return the estimate, in bytes:
    the floats of the arrays that _peak_arrays declares for the run, and
    the Python objects of _RUN_BYTES and _TRIAL_BYTES per trial."""
    arrays = _peak_arrays(kind, n_trials, n_steps, n_states, linearized, moments)
    floats = sum(math.prod(shape) for shape in arrays.values())
    need = 8 * floats + _RUN_BYTES + n_trials * _TRIAL_BYTES
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


def _columns(window: slice, span: slice) -> slice:
    """The steps of ``window`` that fall in the block of ``span``, as the
    block's own columns: both ends clamped to [0, k] for a block of k steps,
    so the slice is empty when the two do not meet."""
    k = span.stop - span.start
    return slice(min(max(window.start - span.start, 0), k), min(max(window.stop - span.start, 0), k))


def _block_spans(n_steps: int, reverse: bool = False):
    """Spans of _STREAM_BLOCK steps that cover a run, made one at a time,
    last first with ``reverse``. A partial scan block at the end of several
    gets a span of its own, so a scan builds its shorter map once."""
    tail = n_steps % _SCAN_BLOCK if n_steps > _STREAM_BLOCK else 0
    cut = n_steps - tail
    starts = range(0, cut, _STREAM_BLOCK)
    spans = (slice(s, min(s + _STREAM_BLOCK, cut)) for s in (reversed(starts) if reverse else starts))
    last = [slice(cut, n_steps)] if tail else []
    return itertools.chain(last, spans) if reverse else itertools.chain(spans, last)


def _packed(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The first floats of ``buffer`` as a C-contiguous array of ``shape``:
    numpy takes buffers of its own for a ufunc over a strided view."""
    return buffer.reshape(-1)[: math.prod(shape)].reshape(shape)


def _noise_draws(seed: int, n_trials: int, dt: float, longest: int, clock: _StageClock):
    """draw(span): the (dW, dB) Gaussian increments of the steps in span, a
    _packed buffer of ``longest`` steps that the next call overwrites. The
    streams are made once here, so spans drawn in order continue one draw
    of the whole record, and each normal is drawn once."""
    streams = [
        [np.random.default_rng(ss) for ss in child.spawn(2)]
        for child in np.random.SeedSequence(seed).spawn(n_trials)
    ]
    sd = math.sqrt(dt)
    buffer = np.empty((2, n_trials, longest))

    def draw(span):
        pair = _packed(buffer, 2, n_trials, span.stop - span.start)
        for j, block in enumerate(pair):
            for trial, row in zip(streams, block):
                trial[j].standard_normal(out=row)
            # normal(0, sd) draws the same standard normals and returns 0 + sd z,
            # which is sd z to the bit for every z != 0
            block *= sd
        clock.lap("noise")
        return pair

    return draw


def _open_loop_phase(model: PhaseModel, dt: float, dw: np.ndarray, carry: Optional[list] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """True phase of every trial, (n_trials, T) with entry i at t_i, the
    value before Wiener increment dw[:, i], integrated open-loop (the phase
    never depends on the estimate) by explicit Euler from zero:
    dx_0 = -lambda_0 x_0 dt + dW, dx_(k+1) = (x_k - lambda_(k+1) x_(k+1)) dt,
    phi = kappa^(n+1/2) x_n. Stage k is x_k[i+1] = c x_k[i] + g x_(k-1)[i]
    with c = 1 - lambda_k dt and g x_(k-1) = dW (stage 0) or dt x_(k-1),
    rounded as an order-1 direct-form filter: a cumsum of the shifted drive
    where c == 1, else one step per time index for all trials. The last
    stage is written into ``out`` when given.

    With ``carry``, a list, dw continues the previous call's increments:
    each stage starts from the (drive, value) pair that call left in carry
    (zero when empty) and writes its own back, so a run integrated block by
    block has the floats of one whole call.
    """
    stage = np.asarray(dw, dtype=float)
    ends = []
    for k, c in enumerate(1.0 - model.damping_rates() * dt):
        g = 1.0 if k == 0 else dt
        x = out if out is not None and k == model.n else np.empty(stage.shape)
        x[..., 0], x[..., 1:] = 0.0, stage[..., :-1]
        x *= g  # whole: numpy takes buffers of its own for a product over shifted views
        if carry:
            drive, value = carry[k]
            x[..., 0] = drive * g + c * value
        if c == 1.0:
            x.cumsum(axis=-1, out=x)  # np.cumsum's wrapper leaves ~100 B a call in free lists
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
    """Add x_i . w + dW_i h_dw into out[:, i] along the affine recurrence
    x_(i+1) = x_i m + dW_i g_dw + r_i g_db, with r = db; return the final x.
    With ``moment`` (rows, n, n), also add x_i^T x_i into it for i in ``win``:
    the map reads each block's states out next to the readout, so no state
    path outlives its block. With ``also`` = (w2, out2), w2 (n,) and out2
    (rows, T), also add x_i . w2 into out2[:, i], by a map of its own from
    the same inputs, so the readout of w and the final x keep the floats
    they have without it.

    x is (rows, n), w (n,), h_dw a scalar, and dw, db and out (rows, T),
    possibly reversed views. Each matrix product advances _SCAN_BLOCK steps
    (a chunked prefix scan); a last partial block uses its own, shorter map.
    ``maps``, a dict, keeps the maps across the block-by-block calls of one
    recurrence and readout, those of one block length at a time.
    """
    n = m.shape[0]
    rows, n_steps = dw.shape
    if moment is not None:
        w = np.column_stack((w, np.eye(n)))
        h_dw = np.append(h_dw, np.zeros(n))
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
        out[:, span] += reads[..., 0]
        if moment is not None:
            states = reads[:, _columns(win, span), 1:]
            moment += states.transpose(0, 2, 1) @ states
        if also is not None:
            also[1][:, span] += inputs @ maps[k][1]
        x = step[:, -n:].copy()  # a view would keep the whole product alive between calls
    return x


def _error_blocks(model, system, config, vf, back, shape, draw, clock, error_moment=None):
    """Block driver of the causal estimator in the feedback loop and, with
    ``back`` (a _BackwardPass), the smoother's backward pass over each
    block, on the chain error e of a run of ``shape`` (n_trials, n_steps).

    draw(span) gives the (dW, dB) of each _block_spans span in order, in a
    run the block buffers of _noise_draws; the sin() loop overwrites dB in
    place with r. Yields (span, theta - phi, dW, r) for each span, valid
    until the next item. The forward pass writes the smoother's w_f . e
    into back.partial(span). Once the last item is taken, back is swept
    from the forward error at the end of the record, and ``error_moment``
    (n_trials, n_states, n_states) holds the interior sum of e e^T.

    The forward error is e' = e F^T + r K^T - dW e_0^T, F = I + (A - K C) dt
    and K = V_F C^T. A linearized run knows r = dB, so one forward scan per
    block reads out theta - phi, the smoother's w_f . e and the moments.
    The sin() loop steps the same error in the innovation form, where r's
    term linear in theta - phi cancels -K C dt, on feature-major states
    (n_states, n_trials) per step, and per chunk reads all three from the
    chunk's states and forms r from its theta - phi, so it scans nothing
    forward. While a block's dW and r are at hand, back.block runs its
    backward scan.
    """
    if model.is_damped:
        raise ValidationError("the filter loop needs an undamped phase model")
    n = system.n_states
    dt = config.dt
    scale = model.phase_scale
    rows, n_steps = shape
    arrays = _peak_arrays("filter", rows, n_steps, n, config.linearized, error_moment is not None)
    errors = np.empty(arrays["errors"])  # theta - phi of a block: the sin() loop's, or the scan's readout
    gain = vf @ system.c
    win = _interior_slice(n_steps, dt, config.burn_in)
    if config.linearized:
        forward = (np.eye(n) + (system.a - np.outer(gain, system.c)).T * dt, -np.eye(n)[0], gain, scale * np.eye(n)[-1])
        x = np.zeros((rows, n))  # the forward scan's error
        maps = {}
    else:
        # The sin() loop steps e^ = e D, D = diag(1, ..., 1, kappa^(n+1/2)),
        # whose last entry is d = theta - phi, by one product per step over
        # a chunk of _SCAN_BLOCK steps: z[i] holds the features [e^ | sin d |
        # dB | dW] before step i feature-major, z[i, f] feature f of every
        # trial as one contiguous row, and the next e^ is G^T z[i], one
        # np.dot into the C-contiguous block z[i + 1, :n].
        chunk = min(_SCAN_BLOCK, n_steps)
        d_scale = np.ones(n)
        d_scale[-1] = scale
        sin_gain = 2.0 * math.sqrt(config.photon_flux) * dt
        step_gt = np.column_stack((
            (np.eye(n) + system.a * dt) * d_scale[:, None] / d_scale,  # D (I + A dt) D^-1
            -sin_gain * gain * d_scale,
            gain * d_scale,
            -np.eye(n)[0] * d_scale,
        ))
        z = np.zeros(arrays["loop"])
        steps = list(zip(z[:-1, n - 1], z[:-1, n], z[:-1], z[1:, :n]))
        sin, dot = np.sin, np.dot
        if back is not None:
            forward_read = back.w_f / d_scale  # w_f . e = e^ . (w_f / D)

    for span in _block_spans(n_steps):
        dw, db = draw(span)
        k = span.stop - span.start
        err = _packed(errors, rows, k)
        smoothed = None if back is None else back.partial(span)
        inner = _columns(win, span)
        if config.linearized:
            err[...] = 0.0
            also = None
            if back is not None:
                smoothed[...] = 0.0
                also = back.w_f, smoothed
            x = _block_scan(x, *forward, 0.0, dw, db, err, error_moment, inner, maps, also)
            clock.lap("forward_scan")
        else:
            for c in range(0, k, chunk):
                j = min(chunk, k - c)
                cols = slice(c, c + j)
                z[:j, n + 1] = db[:, cols].T
                z[:j, n + 2] = dw[:, cols].T
                for d, sin_d, features, after in steps[:j]:
                    sin(d, sin_d)
                    dot(step_gt, features, after)
                if back is not None:  # one product over the chunk's e^, (j, n, rows)
                    smoothed[:, cols] = (forward_read @ z[:j, :n]).T
                if error_moment is not None:  # summed in e^ = e D; the end divides by D D
                    e_hat = z[_columns(inner, cols), :n]
                    error_moment += e_hat.transpose(2, 1, 0) @ e_hat.transpose(2, 0, 1)
                d, sin_d, db_t = z[:j, n - 1], z[:j, n], z[:j, n + 1]
                err[:, cols] = d.T  # in C order, so the reductions sum each row as a whole path's
                # r = dB + 2 sqrt(N) (sin(phi - theta) - (phi - theta)) dt, formed in the
                # features' (j, rows) layout, where numpy takes no buffers of its own,
                # then copied over dB
                np.subtract(d, sin_d, out=sin_d)
                sin_d *= sin_gain
                sin_d += db_t
                db[:, cols] = sin_d.T
                z[0, :n] = z[j, :n]
            clock.lap("loop")
        if back is not None:
            back.block(span, dw, db, smoothed)
        yield span, err, dw, db
    if back is not None:
        back.sweep(x if config.linearized else z[0, :n].T / d_scale)
    if error_moment is not None and not config.linearized:
        error_moment /= np.outer(d_scale, d_scale)


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

    What the pass keeps follows from the run's ``kind``, in the shapes of
    _peak_arrays. A record or a wrapped smoother keeps the smoothed error
    whole, in ``path`` (n_trials, n_steps), into which the forward pass
    writes each block's w_f . e (partial()) and sweep() adds x h. Any other
    smoother writes w_f . e into a block buffer and keeps, per block, the
    interior sum of (s + x h)^2 as a quadratic in the seed x: q0 + 2 x . q1
    + x Q2 x^T, with q0 (n_trials,) and q1 (n_trials, n) per block and Q2
    (n, n) per block length and interior slice, so it keeps no path. Per
    block the pass also keeps x0, n floats for each of ``n_trials`` trials,
    and no Python object: sweep() makes the spans again, last first. After
    the sweep, an ensemble's ``sums`` (an _ErrorSums, wrapped for a wrapped
    smoother) hold the per-trial interior sums of the smoothed error
    squared.
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
        self.n_steps, self.blocks = config.n_steps, 0
        arrays = _peak_arrays(kind, n_trials, config.n_steps, n, config.linearized)
        self.ends = np.empty(arrays["ends"])
        self.clock = clock
        self.maps, self.units = {}, {}
        self.sums = None if kind == "record" else _ErrorSums(n_trials, config, kind == "wrapped_smoother")
        self.path = None if kind == "smoother" else np.empty(arrays["smoothed"])
        if kind == "smoother":  # a block's w_f . e, and per block q0 and q1 of its quadratic
            self.buf, sums, self.q2 = np.empty(arrays["smoothed"]), np.zeros(arrays["sums"]), {}
            self.q0, self.q1 = sums[..., 0], sums[..., 1:]

    def partial(self, span: slice) -> np.ndarray:
        """Where the forward pass writes w_f . e over span, for block()."""
        return _packed(self.buf, len(self.buf), span.stop - span.start) if self.path is None else self.path[:, span]

    def block(self, span: slice, dw: np.ndarray, r: np.ndarray, s: np.ndarray) -> None:
        """Complete s, which holds w_f . e over the block's steps, to the
        block's partial smoothed error in phase units, NaN outside the
        interior window, and keep the block's partial end state and,
        without a path, its quadratic."""
        i, k, n = self.blocks, span.stop - span.start, len(self.w_f)
        self.blocks += 1
        x0 = self.ends[i]
        x0[...] = _block_scan(np.zeros_like(x0), *self.scan, dw[:, ::-1], r[:, ::-1], s[:, ::-1], maps=self.maps)
        for row in s:  # w_f + w_r = e_n, so the sum is the smoothed error; by rows, as a path's are strided
            row *= self.scale
        inner = _columns(self.win, span)
        s[:, : inner.start] = np.nan
        s[:, inner.stop :] = np.nan
        self.clock.lap("backward_scan")
        if self.path is None and inner.start < inner.stop:
            self.q0[i] = np.sum(np.square(s[:, inner]), axis=1)
            key = (k, inner.start, inner.stop)  # Q2 is built once per block length and interior
            q2 = None if key in self.q2 else self.q2.setdefault(key, np.zeros((n, n)))
            for cols, h, _ in self._walk(np.eye(n), k):
                part = _columns(inner, cols)
                if part.start < part.stop:
                    h = h[:, part]
                    self.q1[i] += s[:, cols][:, part] @ h.T
                    if q2 is not None:
                        q2 += h @ h.T
            self.clock.lap("reductions")

    def _unit(self, j: int) -> np.ndarray:
        """[h | Phi] (n, j + n) of a scan block of j steps: the phase
        readouts and the end state of the backward scan from a unit seed."""
        if j not in self.units:
            n = len(self.w_f)
            h, zero = np.zeros((n, j)), np.broadcast_to(0.0, (n, j))
            phi = _block_scan(np.eye(n), *self.scan, zero, zero, h[:, ::-1], maps=self.maps)
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
        for i, span in zip(reversed(range(self.blocks)), _block_spans(self.n_steps, reverse=True)):
            k, inner = span.stop - span.start, _columns(self.win, span)
            for cols, h, y in self._walk(x, k):
                if self.path is not None:
                    self.path[:, span.start + cols.start : span.start + cols.stop] += h
            if self.path is None:
                if inner.start < inner.stop:
                    quadratic = np.sum((x @ self.q2[k, inner.start, inner.stop]) * x, axis=1)
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
    unconverged, or where the curvature is >= 0. In a run's first few dozen
    steps, while the statistics are young, theta can jump by 1.5 rad a step
    and rounding is amplified about 100 times (p = 2, grid 30, seed 6: 7e-14
    of the peak against a long-double loop, where other seeds stay within
    5e-15). Trials whose statistics are too small to define a phase hold
    theta, restored from a copy taken only on a step where one holds.
    2 theta is formed once, after the last step; e is left at the second
    iterate. update returns its own hold mask, overwritten by the next call,
    and its count. It divides for every trial, so it must run under
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
    arrays = _peak_arrays("abc", n_trials, config.n_steps, model.n + 1, config.linearized)
    draw = _noise_draws(config.seed, n_trials, config.dt, arrays["noise"][-1], clock)
    step = _abc_loop(config, n_trials, chi)
    phase, est = np.empty(arrays["phase"]), np.empty(arrays["est"])
    carry: list = []
    held = 0
    for span in _block_spans(config.n_steps):
        dw, idt = draw(span)
        phi = _open_loop_phase(model, config.dt, dw, carry, _packed(phase, *dw.shape))
        clock.lap("chain")
        after = _packed(est, *dw.shape)
        held += step(phi, idt, after)
        clock.lap("loop")
        yield span, phi, after, idt, held


def _run_abc_feedback(model: PhaseModel, config: HomodyneConfig, n_trials: int, chi: float, kind: str, clock):
    """Set-up of every exponential-window run of ``kind`` (see
    _peak_arrays), as _run_filter_feedback is the filter's: the run
    checked, then the _abc_blocks iterator returned."""
    _run_system(model, config, kind, n_trials)
    clock.lap("covariance")
    return _abc_blocks(model, config, n_trials, chi, clock)


def _run_filter_feedback(model: PhaseModel, config: HomodyneConfig, n_trials: int, kind: str, clock, moment=None):
    """Set-up and block driver of every filter run of ``kind`` (see
    _peak_arrays): the run checked, Vt_F solved once and scaled to V_F, the
    smoother's backward pass for a kind that declares one, and the noise
    drawn into the buffer the kind declares. Returns (back, blocks): the
    _BackwardPass (None without a smoother or at mu = 0) and the
    _error_blocks iterator, to which ``moment`` goes as error_moment."""
    system = _run_system(model, config, kind, n_trials, moment is not None)
    smoother = kind in _SMOOTHER_KINDS
    if system.mu > 0:
        vf_tilde = solve_filter_covariance(model.p)
        vf = scale_covariance(vf_tilde, system.mu)
        weights = _smoothing_weights(vf_tilde, system.mu) if smoother else None
        back = _BackwardPass(model, system, config, vf, weights, n_trials, clock, kind) if smoother else None
    else:  # no measurement: zero gain, nothing to smooth
        vf, back = np.zeros((system.n_states, system.n_states)), None
    clock.lap("covariance")
    longest = _peak_arrays(kind, n_trials, config.n_steps, system.n_states, config.linearized)["noise"][-1]
    draw = _noise_draws(config.seed, n_trials, config.dt, longest, clock)
    return back, _error_blocks(model, system, config, vf, back, (n_trials, config.n_steps), draw, clock, moment)


def _record(config: HomodyneConfig, clock: _StageClock, phi, theta, y, **paths) -> SimulationRecord:
    """The record of a run's whole paths, on their time grid t_i = i dt."""
    t = np.arange(float(phi.shape[1]))
    t *= config.dt  # in place: an integer range times dt would take a second path and a cast buffer
    return SimulationRecord(t, phi, theta, y, stage_s=clock.lap("reductions"), **paths)


def simulate_record(model: PhaseModel, config: HomodyneConfig, smoother: bool = True) -> SimulationRecord:
    """One trial with the causal estimator in the feedback loop, as a one-row
    record. With ``smoother`` and a measurement (mu > 0) the backward pass
    runs too and phi_s is filled on the interior window; else phi_s is None.
    Per block, phi is integrated on from the previous block, theta = phi +
    (theta - phi) and y = r / dt + 2 sqrt(N) phi; phi_s = phi + (phi_s - phi)."""
    clock = _StageClock()
    kind = "record" if smoother else "filter_record"
    back, blocks = _run_filter_feedback(model, config, 1, kind, clock)
    arrays = _peak_arrays(kind, 1, config.n_steps, model.n + 1, config.linearized)
    phi, theta, y = np.empty(arrays["paths"])
    two_sqrt_n = 2.0 * math.sqrt(config.photon_flux)
    carry: list = []
    for span, err, dw, r in blocks:
        block_phi = _open_loop_phase(model, config.dt, dw, carry, phi[:, span])
        clock.lap("chain")
        np.add(err, block_phi, out=theta[:, span])
        block_y = np.multiply(block_phi, two_sqrt_n, out=y[:, span])
        block_y += np.divide(r, config.dt, out=r)
        clock.lap("reductions")
    phi_s = None if back is None else np.add(back.path, phi, out=back.path)
    return _record(config, clock, phi, theta, y, phi_s=phi_s)


def run_abc(model: PhaseModel, config: HomodyneConfig, chi: float) -> SimulationRecord:
    """One trial with the exponential-window estimator at window rate chi
    in the feedback loop (_abc_loop), as a one-row record. Steps whose
    statistics are too small to define a phase hold theta and are counted
    in diagnostics["indeterminate_steps"]. Per block it writes phi, the
    estimates and y = I dt / dt + 2 sqrt(N) theta, theta the estimate fed
    back."""
    clock = _StageClock()
    blocks = _run_abc_feedback(model, config, 1, chi, "abc_record", clock)
    arrays = _peak_arrays("abc_record", 1, config.n_steps, model.n + 1, config.linearized)
    phi, y = np.empty(arrays["paths"])
    est = np.zeros(arrays["estimates"])  # est[:, i] is the theta of step i, est[:, i + 1] the estimate after it
    two_sqrt_n = 2.0 * math.sqrt(config.photon_flux)
    held = 0
    for span, block_phi, after, idt, held in blocks:
        phi[:, span] = block_phi
        est[:, span.start + 1 : span.stop + 1] = after
        block_y = np.divide(idt, config.dt, out=y[:, span])  # as in simulate_record, from I dt and theta
        block_y += np.multiply(est[:, span], two_sqrt_n, out=block_phi)
        clock.lap("reductions")
    return _record(config, clock, phi, est[:, :-1], y, phi_abc=est[:, 1:], diagnostics={"indeterminate_steps": held})


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
    statistics() gives the interior MSE and its standard error over trials,
    result() the run's EnsembleResult."""

    def __init__(self, n_trials: int, config: HomodyneConfig, wrap: bool, windows: bool = False):
        if n_trials < 2:
            raise ValidationError("need at least 2 trials")
        self.wrap = wrap
        self.slices = [_interior_slice(config.n_steps, config.dt, config.burn_in)]
        if windows:
            self.slices += _window_slices(config.n_steps, config.dt, config.burn_in)
        self.sums = np.zeros((len(self.slices), n_trials))

    def add(self, start: int, err: np.ndarray) -> None:
        sq = np.array(err)  # contiguous: numpy takes buffers of its own for a ufunc over a strided view
        if self.wrap:
            sq += math.pi
            np.mod(sq, 2.0 * math.pi, out=sq)
            sq -= math.pi
        np.square(sq, out=sq)
        span = slice(start, start + err.shape[1])
        for total, s in zip(self.sums, self.slices):
            cols = _columns(s, span)
            if cols.start < cols.stop:
                total += np.sum(sq[:, cols], axis=1)

    def statistics(self) -> tuple[float, float]:
        win = self.slices[0]
        return _trial_statistics(self.sums[0] / (win.stop - win.start))

    def result(self, clock: _StageClock, **fields) -> EnsembleResult:
        """The run's EnsembleResult, with ``fields`` besides the interior
        statistics; with windows, the ensemble MSE of each window and the
        verdict: the run diverged if that MSE increases strictly across them."""
        if len(self.slices) > 1:
            counts = np.array([max(s.stop - s.start, 0) for s in self.slices[1:]])
            wins = self.sums[1:].sum(axis=1) / (counts * self.sums.shape[1])
            fields.update(window_mse=wins, diverged=bool(np.all(np.diff(wins) > 0)))
        return EnsembleResult(*self.statistics(), stage_s=clock.lap("reductions"), **fields)


@dataclass(eq=False)
class EnsembleResult:
    """Statistics of one ensemble run: the interior MSE of its causal
    estimator (the filter or the exponential window) and its standard error
    over trials; the smoother's, None without a smoother or a measurement;
    with full-state statistics, the mean interior state error covariance;
    for the exponential window, the ensemble MSE of each of the _N_WINDOWS
    log-spaced windows after burn-in and whether the run diverged.
    ``diagnostics`` holds the run's named counts, as a record's does;
    ``stage_s`` is keyed as in _STAGES."""

    mse: float
    stderr: float
    smoother_mse: Optional[float] = None
    smoother_stderr: Optional[float] = None
    error_cov: Optional[np.ndarray] = None
    error_cov_stderr: Optional[np.ndarray] = None
    window_mse: Optional[np.ndarray] = None
    diverged: bool = False
    stage_s: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    # a filter run's statistics by the filter's name, and the held count that perfbench/spans.py reads
    filter_mse = property(lambda self: self.mse)
    filter_stderr = property(lambda self: self.stderr)
    indeterminate_steps = property(lambda self: self.diagnostics.get("indeterminate_steps", 0))

    def row(self, estimator: str) -> tuple[str, float, float]:
        """(name, MSE, stderr) of the smoother or of the run's causal
        ``estimator``, whose name gains ":diverged" if the run diverged."""
        if estimator == "smoother":
            return estimator, self.smoother_mse, self.smoother_stderr
        return estimator + ":diverged" * self.diverged, self.mse, self.stderr


def simulate_filter_trials(
    model: PhaseModel,
    config: HomodyneConfig,
    n_trials: int,
    smoother: bool = False,
    full_state_stats: bool = False,
    wrap_errors: bool = False,
) -> EnsembleResult:
    """Ensemble of n_trials filter-feedback trials reduced to the interior
    MSE and its standard error, with ``smoother`` the smoother's too, and
    with ``full_state_stats`` the mean interior state error covariance.
    ``wrap_errors`` reduces errors to (-pi, pi] before squaring, the
    slip-insensitive metric at low flux. Trial i's noise depends only on
    (config.seed, i), so a rerun reproduces the ensemble exactly.
    """
    clock = _StageClock()
    moment = np.zeros((n_trials, model.n + 1, model.n + 1)) if full_state_stats else None
    kind = _filter_kind(smoother, wrap_errors)
    back, blocks = _run_filter_feedback(model, config, n_trials, kind, clock, moment)
    sums = _ErrorSums(n_trials, config, wrap_errors)
    for span, err, _, _ in blocks:
        sums.add(span.start, err)
        clock.lap("reductions")
    fields = {}
    if back is not None:
        fields["smoother_mse"], fields["smoother_stderr"] = back.sums.statistics()
    if full_state_stats:
        win = sums.slices[0]
        cov = moment / (win.stop - win.start)
        fields.update(error_cov=cov.mean(axis=0), error_cov_stderr=cov.std(axis=0, ddof=1) / math.sqrt(n_trials))
    return sums.result(clock, **fields)


def run_abc_trials(
    model: PhaseModel,
    config: HomodyneConfig,
    n_trials: int,
    chi: float,
    wrap_errors: bool = False,
) -> EnsembleResult:
    """Ensemble of n_trials exponential-window feedback trials at window
    rate chi, reduced as in simulate_filter_trials, and over the
    _N_WINDOWS log-spaced windows after burn-in, which square wrapped
    errors with ``wrap_errors``. Held trial-steps are counted in
    diagnostics["indeterminate_steps"].
    """
    clock = _StageClock()
    blocks = _run_abc_feedback(model, config, n_trials, chi, "abc", clock)
    sums = _ErrorSums(n_trials, config, wrap_errors, windows=True)
    held = 0
    for span, phi, est, _, held in blocks:
        sums.add(span.start, np.subtract(est, phi, out=phi))  # phi_abc - phi, written over phi
        clock.lap("reductions")
    return sums.result(clock, diagnostics={"indeterminate_steps": held})
