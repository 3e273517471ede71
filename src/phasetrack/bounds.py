"""Accuracy limits for estimating a stationary Gaussian phase from a coherent beam.

Three stationary error integrals, each over the whole frequency axis:

  best possible (any measurement):  (1/2pi) int [1/S_phi(w) + 4N]^-1 dw
  causal linear estimator:          S_n (1/2pi) int ln[1 + S_phi(w)/S_n] dw
  noncausal linear estimator:       (1/2pi) int [1/S_phi(w) + 1/S_n]^-1 dw

with shot-noise density S_n = 1/(4N) for photon flux N. The second always
exceeds the first (ln(1+x) > x/(1+x)); the third coincides with the first.
For power-law spectra kappa^(p-1)/|w|^p both have closed forms, implemented
separately so quadrature and closed form can check each other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import NumericalError, ValidationError
from .phase_process import PhaseModel, spectrum

__all__ = [
    "BoundQuery",
    "qcrb_quadrature",
    "qcrb_power_law",
    "filter_mse_quadrature",
    "filter_mse_power_law",
    "smoother_mse_quadrature",
    "abc_linearized_mse",
    "tabulated_spectrum",
]

SpectrumLike = Union[PhaseModel, Callable[[float], float]]

# Bulk/tail split: integrate up to TAIL_FACTOR times the crossover frequency,
# then add the analytic power-law tail.
_TAIL_FACTOR = 1.0e3
_LOG_SPAN_BELOW = 30.0  # e-folds below the crossover kept in the bulk integral


@dataclass(frozen=True)
class BoundQuery:
    """A spectrum paired with the photon flux of the probe beam.

    ``spectrum`` is either a PhaseModel or a callable w -> density.
    ``photon_flux`` is N in photons/s; the shot-noise density is 1/(4N).
    N = 0 is accepted as the no-measurement limit and makes the bound
    integrals divergent for power-law spectra.
    """

    spectrum: SpectrumLike
    photon_flux: float

    def __post_init__(self):
        if not 0 <= self.photon_flux < math.inf:
            raise ValidationError(f"photon_flux must be >= 0 and finite, got {self.photon_flux}")
        if not isinstance(self.spectrum, PhaseModel) and not callable(self.spectrum):
            raise ValidationError("spectrum must be a PhaseModel or a callable")

    @property
    def noise_density(self) -> float:
        return math.inf if self.photon_flux == 0 else 1.0 / (4.0 * self.photon_flux)

    def density(self, omega):
        if isinstance(self.spectrum, PhaseModel):
            return spectrum(self.spectrum, omega)
        return self.spectrum(omega)

    @cached_property
    def _crossover(self) -> float:
        """_crossover_frequency, searched once per query for all its quadratures."""
        return _crossover_frequency(self)


def _crossover_frequency(q: BoundQuery) -> float:
    """Frequency where the phase spectrum crosses the shot-noise floor."""
    if isinstance(q.spectrum, _LogLogTable):
        return math.exp(_table_crossing(q.spectrum, q.noise_density))
    model = q.spectrum if isinstance(q.spectrum, PhaseModel) else None
    if model is not None and not model.is_damped:
        # kappa^(p-1)/w^p = s_n  =>  w = (4 N kappa^(p-1))^(1/p)
        if q.photon_flux == 0:
            return model.kappa
        return (4.0 * q.photon_flux * model.kappa ** (model.p - 1)) ** (1.0 / model.p)
    scale = 1.0
    if model is not None:
        scale = max(model.kappa, max(model.damping_rates(), default=0.0), 1e-6)
    if q.photon_flux == 0:
        return scale
    s_n = q.noise_density
    grid = scale * np.logspace(-15, 15, 121)
    above = np.array([q.density(w) > s_n for w in grid.tolist()])
    if above[-1]:
        bracket = _widened_bracket(q, grid[-1], up=True)
        if bracket is None:
            raise NumericalError("bound-divergent: spectrum exceeds noise floor at every float frequency")
    elif np.any(above):
        k = int(np.nonzero(above)[0][-1])  # last grid point above the floor
        bracket = grid[k], grid[k + 1]
    else:
        bracket = _widened_bracket(q, grid[0], up=False)
        if bracket is None:
            return scale
    lo, hi = bracket
    for _ in range(120):
        mid = math.sqrt(lo) * math.sqrt(hi)  # lo * hi may leave the float range
        if q.density(mid) > s_n:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo) * math.sqrt(hi)


def _widened_bracket(q: BoundQuery, edge: float, up: bool):
    """(lo, hi) around a crossing of the noise floor beyond a probe grid's
    ``edge``, with density(lo) > s_n >= density(hi): probes step away from
    the edge by 1e15, then by its square, and so on, the last one at the
    end of the float range. None where the density stays on the edge's
    side of the floor up to there."""
    end, factor = (sys.float_info.max, 1e15) if up else (sys.float_info.min, 1e-15)
    w = float(edge)
    while w != end:
        last, w = w, min(w * factor, end) if up else max(w * factor, end)
        factor *= factor
        if (q.density(w) > q.noise_density) != up:
            return (last, w) if up else (w, last)
    return None


def _table_crossing(table: _LogLogTable, s_n: float) -> float:
    """ln omega where the table's ln S last falls through ln s_n, solved on
    its interpolant and edge slopes; where S never exceeds s_n (N = 0
    included), the ln omega of the knot where S * omega peaks."""
    lw, ls = table.knots
    if math.isfinite(s_n):
        d = ls - math.log(s_n)
        top = table.slope[-1]
        if top > 0 or (top == 0 and d[-1] > 0):
            raise NumericalError("bound-divergent: spectrum exceeds the noise floor at high frequency")
        if d[-1] > 0:
            return float(lw[-1] - d[-1] / top)
        above = np.flatnonzero(d > 0)
        if above.size:
            j = int(above[-1])  # d[j] > 0 >= d[j + 1]
            return float(lw[j] + (lw[j + 1] - lw[j]) * (d[j] / (d[j] - d[j + 1])))
        if table.slope[0] < 0:
            return float(lw[0] - d[0] / table.slope[0])
    return float(lw[np.argmax(lw + ls)])


def _tail_exponent(q: BoundQuery, omega: float) -> float:
    """Local decay exponent -d ln S / d ln w, one e-fold wide, at omega."""
    s0 = q.density(omega)
    s1 = q.density(omega * math.e)
    if s0 <= 0 or s1 <= 0:
        raise NumericalError("bound-divergent: spectrum not positive in the tail")
    return math.log(s0 / s1)


def _check_origin_integrable(q: BoundQuery, w_star: float) -> None:
    # Only reached when N = 0, where the integrand degenerates to S itself.
    model = q.spectrum if isinstance(q.spectrum, PhaseModel) else None
    if model is not None:
        if not model.is_damped or np.any(model.damping_rates() == 0.0):
            raise NumericalError("bound-divergent: no measurement and spectrum nonintegrable at 0")
        return
    a = w_star * 1e-8
    growth = math.log(q.density(a) / q.density(a * math.e))
    if growth >= 1.0 - 1e-6:
        raise NumericalError("bound-divergent: no measurement and spectrum nonintegrable at 0")


def _bound_integral(q: BoundQuery, kind: str) -> tuple[float, float]:
    """_bound_quadrature's (value, abs_err), or NumericalError where either
    is not finite or where a density, crossover or power it evaluates
    leaves the float range."""
    try:
        value, err = _bound_quadrature(q, kind)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalError(f"bound-not-finite: {type(exc).__name__} in float arithmetic") from exc
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NumericalError(f"bound-not-finite: quadrature gave {value} +- {err}")
    return value, err


def _bound_quadrature(q: BoundQuery, kind: str) -> tuple[float, float]:
    """Shared quadrature core. kind is 'reciprocal' or 'log'.

    reciprocal: (1/2pi) int [1/S + 1/S_n]^-1 dw over the real line
    log:        S_n (1/2pi) int ln[1 + S/S_n] dw over the real line

    Both integrands are even, so integrate [0, W] in log frequency
    (smooth there, bounded by S_n near 0) and close with the analytic
    power-law tail int_W^inf S dw ~ S(W) W / (p_eff - 1), the leading
    term of either integrand once S << S_n. A tabulated spectrum's bulk
    takes fixed rules piece by piece (_table_bulk), any other QUADPACK.
    """
    s_n = q.noise_density
    w_star = q._crossover
    if q.photon_flux == 0:
        _check_origin_integrable(q, w_star)
    w_max = _TAIL_FACTOR * w_star
    if not (0.0 < w_star * math.exp(-_LOG_SPAN_BELOW) and w_max < math.inf):
        raise NumericalError(f"bound-not-finite: crossover frequency {w_star:.3g} leaves the float range")
    u_hi = math.log(w_max)
    u_lo = math.log(w_star) - _LOG_SPAN_BELOW

    if isinstance(q.spectrum, _LogLogTable):
        bulk, bulk_err = _table_bulk(q.spectrum, kind, s_n, u_lo, u_hi)
    else:
        bulk, bulk_err = _quad_bulk(q.density, kind, s_n, u_lo, u_hi)

    p_eff = _tail_exponent(q, w_max)
    if p_eff <= 1.0 + 1e-9:
        raise NumericalError(
            f"bound-divergent: tail decay exponent {p_eff:.4f} <= 1 at omega={w_max:.3g}"
        )
    s_tail = q.density(w_max)
    tail = s_tail * w_max / (p_eff - 1.0)
    # Error budget: first neglected correction (relative size S(W)/S_n) plus
    # drift of the local exponent over the next e-fold.
    p_eff2 = _tail_exponent(q, w_max * math.e)
    tail_err = tail * (0.0 if not math.isfinite(s_n) else s_tail / s_n)
    tail_err += tail * abs(p_eff2 - p_eff) / (p_eff - 1.0)

    return (bulk + tail) / math.pi, (bulk_err + tail_err) / math.pi


def _quad_bulk(density, kind: str, s_n: float, u_lo: float, u_hi: float) -> tuple[float, float]:
    """The bulk integral over [u_lo, u_hi] in u = ln w, and its error, by
    QUADPACK over scalar density calls."""
    if not math.isfinite(s_n):  # no measurement: both integrands degenerate to S

        def integrand(u: float) -> float:
            w = math.exp(u)
            return density(w) * w

    elif kind == "reciprocal":
        inv_n = 1.0 / s_n

        def integrand(u: float) -> float:
            w = math.exp(u)
            return w / (1.0 / density(w) + inv_n)

    elif kind == "log":

        def integrand(u: float) -> float:
            w = math.exp(u)
            return s_n * math.log1p(density(w) / s_n) * w

    else:  # pragma: no cover - internal misuse
        raise ValueError(kind)

    # deferred: importing scipy costs every phasetrack process, most never integrate
    from scipy.integrate import quad

    return quad(integrand, u_lo, u_hi, limit=400, epsabs=0.0, epsrel=1e-10)


# Gauss-Legendre rules on [-1, 1], 8 points then 4, and their weights.
_GAUSS_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
    -0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526,
])
_GAUSS_WEIGHTS_8 = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])
_GAUSS_WEIGHTS_4 = np.array([0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357])
_PIECE_WIDTH = 0.25  # e-folds: the widest piece one rule spans
_ROUNDING = 50.0 * sys.float_info.epsilon
_PIECES_PER_BLOCK = 2048  # pieces evaluated at once, so a long table's nodes never exist all at once


def _table_bulk(table: _LogLogTable, kind: str, s_n: float, u_lo: float, u_hi: float) -> tuple[float, float]:
    """The bulk integral over [u_lo, u_hi] in u = ln w, and its error, for a
    tabulated spectrum.

    ln S is linear in u between knots, so each integrand is analytic on a
    piece that crosses no knot. The pieces are cut at every knot inside the
    range and at most 1/4 e-fold wide; each takes an 8-point Gauss-Legendre
    rule, and the sum of |8-point - 4-point| per piece is the bulk's error.
    The error also counts the integral over [0, w = e^u_lo], left out of
    the bulk, bounded from ln S and its slope at u_lo as if they held below:
    s_n w (softplus(ln(S/s_n)) + max(-slope, 0)) for the log integrand, the
    same or s_n w, whichever is less, for the reciprocal one (it is the
    smaller integrand and at most s_n), and S w / (1 + slope) without
    measurement.
    """
    lw = table.knots[0]
    grid = np.linspace(u_lo, u_hi, math.ceil((u_hi - u_lo) / _PIECE_WIDTH) + 1)
    cuts = np.union1d(grid, lw[(lw > u_lo) & (lw < u_hi)])
    bulk = bulk_err = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is reported by _bound_integral
        for start in range(0, len(cuts) - 1, _PIECES_PER_BLOCK):
            edges = cuts[start : start + _PIECES_PER_BLOCK + 1]
            half = 0.5 * np.diff(edges)
            u = (edges[:-1] + half)[:, None] + half[:, None] * _GAUSS_NODES
            f = _table_integrand(kind, table.log_density(u), u, s_n)
            rule_8 = half * (f[:, :8] @ _GAUSS_WEIGHTS_8)
            rule_4 = half * (f[:, 8:] @ _GAUSS_WEIGHTS_4)
            bulk += float(np.sum(rule_8))
            # QUADPACK's floor on a piece's error, 50 ulps of its integral, covers rounding
            bulk_err += float(np.sum(np.maximum(np.abs(rule_8 - rule_4), _ROUNDING * rule_8)))
    j = min(max(int(np.searchsorted(lw, u_lo, side="right")) - 1, 0), len(table.slope) - 1)
    slope, ln_s = table.slope[j], float(table.log_density(u_lo))
    if not math.isfinite(s_n):
        low = math.exp(u_lo + ln_s) / (1.0 + slope) if slope > -1.0 else math.inf
    else:
        log_low = float(np.logaddexp(0.0, ln_s - math.log(s_n))) + max(-slope, 0.0)
        low = s_n * math.exp(u_lo) * (log_low if kind == "log" else min(log_low, 1.0))
    return bulk, bulk_err + low


def _table_integrand(kind: str, ln_s: np.ndarray, u: np.ndarray, s_n: float) -> np.ndarray:
    """The bulk integrand at u = ln w from ln S, in the log ratio
    rho = ln(S/s_n): s_n w / (1 + e^-rho) and s_n w ln(1 + e^rho), or S w
    without measurement."""
    if not math.isfinite(s_n):
        return np.exp(u + ln_s)
    ln_n = math.log(s_n)
    rho = ln_s - ln_n
    if kind == "reciprocal":
        return np.exp(u + ln_n - np.logaddexp(0.0, -rho))
    if kind == "log":
        return np.exp(u + ln_n) * np.logaddexp(0.0, rho)
    raise ValueError(kind)  # pragma: no cover - internal misuse


def qcrb_quadrature(q: BoundQuery) -> tuple[float, float]:
    """Lower bound on the stationary mean-square phase error, by quadrature.

    Evaluates (1/2pi) int [1/S_phi(w) + 4N]^-1 dw to <= 1e-4 relative error
    and returns (value, abs_err), the quadrature's error estimate.
    """
    return _bound_integral(q, "reciprocal")


# Minimum MSE of the noncausal (two-sided) linear estimator:
# (1/2pi) int [1/S_phi(w) + 1/S_n]^-1 dw, which with S_n = 1/(4N) is the QCRB
# integral itself. That equality is the paper's headline result (smoothing
# attains the bound), so the two names share one function.
smoother_mse_quadrature = qcrb_quadrature


def filter_mse_quadrature(q: BoundQuery) -> tuple[float, float]:
    """Minimum MSE of the causal linear estimator, by quadrature.

    S_n (1/2pi) int ln[1 + S_phi(w)/S_n] dw; strictly above qcrb_quadrature
    for any positive spectrum. Returns (value, abs_err), as qcrb_quadrature.
    """
    return _bound_integral(q, "log")


def _power_law_factor(p: float, kappa: float, flux: float) -> float:
    """(4N/kappa)^-((p-1)/p), the factor of both closed forms, for valid
    arguments; NumericalError where the power leaves the float range.

    A quotient 4N/kappa that is a normal float is raised to the power
    directly; one that overflows or underflows takes the power in logs,
    exp(-(p-1)/p (ln 4 + ln N - ln kappa)), whose result is still ordinary.
    """
    if not p > 1:
        raise ValidationError(f"exponent-out-of-range: need p > 1, got p={p}")
    if not kappa > 0:
        raise ValidationError(f"kappa must be positive, got {kappa}")
    if not flux > 0:
        raise ValidationError(f"photon_flux must be positive, got {flux}")
    ratio = 4.0 * flux / kappa
    if sys.float_info.min <= ratio < math.inf:
        return ratio ** (-(p - 1.0) / p)
    try:
        factor = math.exp(-(p - 1.0) / p * (math.log(4.0) + math.log(flux) - math.log(kappa)))
    except OverflowError:
        factor = math.inf
    if not 0 < factor < math.inf:
        raise NumericalError(f"bound-not-finite: (4N/kappa)^-((p-1)/p) at N/kappa = {flux / kappa:.3g}")
    return factor


def qcrb_power_law(p: float, kappa: float, flux: float) -> float:
    """Closed-form lower bound for the power-law spectrum kappa^(p-1)/|w|^p.

    [p sin(pi/p)]^-1 (4N/kappa)^-((p-1)/p).
    """
    return _power_law_factor(p, kappa, flux) / (p * math.sin(math.pi / p))


def filter_mse_power_law(p: float, kappa: float, flux: float) -> float:
    """Closed-form causal-estimator MSE for the power-law spectrum.

    [sin(pi/p)]^-1 (4N/kappa)^-((p-1)/p); exceeds the lower bound by the
    factor p.
    """
    return _power_law_factor(p, kappa, flux) / math.sin(math.pi / p)


def abc_linearized_mse(kappa: float, chi: float, lam: float) -> float:
    """MSE of the linearized exponential-window estimator for the p=4 chain
    with decay rate lam on the driving stage.

    kappa^3 / (2 lam chi^3 (lam + chi)) + 1/(2 chi). Divergent at lam = 0:
    without the cutoff the phase wanders faster than the fixed window
    can follow.
    """
    if not kappa > 0:
        raise ValidationError(f"kappa must be positive, got {kappa}")
    if not chi > 0:
        raise ValidationError(f"chi must be positive, got {chi}")
    if lam < 0:
        raise ValidationError(f"lam must be nonnegative, got {lam}")
    if lam == 0:
        raise NumericalError("estimator-mse-divergent: lam = 0 has no stationary error")
    return kappa**3 / (2.0 * lam * chi**3 * (lam + chi)) + 1.0 / (2.0 * chi)


def tabulated_spectrum(path) -> Callable[[float], float]:
    """Load a two-column CSV (omega, density) as a callable spectrum.

    The callable takes one nonzero float omega. It interpolates linearly
    in log-log coordinates and extrapolates both tails with the
    edge-segment slope, so tabulated power laws are reproduced exactly.
    Every omega and density must be positive and finite.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    values = []
    for line in text.replace(",", " ").split("\n"):
        parts = line.split()
        try:
            w, s = float(parts[0]), float(parts[1])
        except (IndexError, ValueError):
            continue  # a header, comment, blank or malformed line
        values += w, s
    if len(values) < 4:
        raise ValidationError(f"spectrum file {path!r} needs at least two numeric rows")
    table = np.array(values).reshape(-1, 2)
    if not np.isfinite(table).all():
        raise ValidationError("spectrum file must have finite omega and density")
    table = table[np.argsort(table[:, 0], kind="stable")]
    if (table <= 0.0).any():
        raise ValidationError("spectrum file must have positive omega and density")
    if (np.diff(table[:, 0]) <= 0.0).any():
        raise ValidationError("spectrum file omega column must be strictly increasing")
    # math.log, not np.log, whose last bit differs on a few floats
    return _LogLogTable(*(list(map(math.log, col)) for col in table.T.tolist()))


class _LogLogTable:
    """A tabulated spectrum: ln S linear in ln omega between knots, and along
    the edge segments beyond them. Calling it gives S at one nonzero omega."""

    def __init__(self, lw: list[float], ls: list[float]):
        self.knots = np.array([lw, ls])
        # slope[j] joins knots j and j+1; the edge slopes extrapolate the tails
        self.slope = [(ls[j + 1] - ls[j]) / (lw[j + 1] - lw[j]) for j in range(len(lw) - 1)]

    def __call__(self, omega: float) -> float:
        return math.exp(float(self.log_density(math.log(abs(omega)))))

    def log_density(self, u):
        """ln S at ln omega = u, elementwise."""
        lw, ls = self.knots
        edges = self.slope[0] * np.minimum(u - lw[0], 0.0) + self.slope[-1] * np.maximum(u - lw[-1], 0.0)
        return np.interp(u, lw, ls) + edges
