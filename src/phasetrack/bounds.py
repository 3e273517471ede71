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
from dataclasses import dataclass
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


def _crossover_frequency(q: BoundQuery) -> float:
    """Frequency where the phase spectrum crosses the shot-noise floor."""
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
    vals = np.array([q.density(w) for w in grid])
    above = vals > s_n
    if not np.any(above):
        return scale
    if np.all(above):
        raise NumericalError("bound-divergent: spectrum exceeds noise floor everywhere probed")
    k = int(np.nonzero(above)[0][-1])  # last grid point above the floor
    lo, hi = grid[k], grid[min(k + 1, len(grid) - 1)]
    for _ in range(120):
        mid = math.sqrt(lo * hi)
        if q.density(mid) > s_n:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


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
    """Shared quadrature core. kind is 'reciprocal' or 'log'.

    reciprocal: (1/2pi) int [1/S + 1/S_n]^-1 dw over the real line
    log:        S_n (1/2pi) int ln[1 + S/S_n] dw over the real line

    Both integrands are even, so integrate [0, W] in log frequency
    (smooth there, bounded by S_n near 0) and close with the analytic
    power-law tail int_W^inf S dw ~ S(W) W / (p_eff - 1), the leading
    term of either integrand once S << S_n.
    """
    s_n = q.noise_density
    w_star = _crossover_frequency(q)
    if q.photon_flux == 0:
        _check_origin_integrable(q, w_star)
    w_max = _TAIL_FACTOR * w_star
    u_hi = math.log(w_max)
    u_lo = math.log(w_star) - _LOG_SPAN_BELOW

    if kind == "reciprocal":

        def integrand(u: float) -> float:
            w = math.exp(u)
            s = q.density(w)
            if not math.isfinite(s_n):
                return s * w
            return w / (1.0 / s + 1.0 / s_n)

    elif kind == "log":

        def integrand(u: float) -> float:
            w = math.exp(u)
            s = q.density(w)
            if not math.isfinite(s_n):
                return s * w
            return s_n * math.log1p(s / s_n) * w

    else:  # pragma: no cover - internal misuse
        raise ValueError(kind)

    # deferred: importing scipy costs every phasetrack process, most never integrate
    from scipy.integrate import quad

    bulk, bulk_err = quad(integrand, u_lo, u_hi, limit=400, epsabs=1e-14, epsrel=1e-10)

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

    value = (bulk + tail) / math.pi
    err = (bulk_err + tail_err) / math.pi
    return value, err


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


def _check_power_law_args(p: float, kappa: float, flux: float) -> None:
    if not p > 1:
        raise ValidationError(f"exponent-out-of-range: need p > 1, got p={p}")
    if not kappa > 0:
        raise ValidationError(f"kappa must be positive, got {kappa}")
    if not flux > 0:
        raise ValidationError(f"photon_flux must be positive, got {flux}")


def qcrb_power_law(p: float, kappa: float, flux: float) -> float:
    """Closed-form lower bound for the power-law spectrum kappa^(p-1)/|w|^p.

    [p sin(pi/p)]^-1 (4N/kappa)^-((p-1)/p).
    """
    _check_power_law_args(p, kappa, flux)
    return (4.0 * flux / kappa) ** (-(p - 1.0) / p) / (p * math.sin(math.pi / p))


def filter_mse_power_law(p: float, kappa: float, flux: float) -> float:
    """Closed-form causal-estimator MSE for the power-law spectrum.

    [sin(pi/p)]^-1 (4N/kappa)^-((p-1)/p); exceeds the lower bound by the
    factor p.
    """
    _check_power_law_args(p, kappa, flux)
    return (4.0 * flux / kappa) ** (-(p - 1.0) / p) / math.sin(math.pi / p)


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

    Interpolates linearly in log-log coordinates and extrapolates both
    tails with the edge-segment slope, so tabulated power laws are
    reproduced exactly.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            try:
                w, s = float(parts[0]), float(parts[1])
            except (IndexError, ValueError):
                continue  # header or malformed line
            rows.append((w, s))
    if len(rows) < 2:
        raise ValidationError(f"spectrum file {path!r} needs at least two numeric rows")
    arr = np.array(sorted(rows))
    w_tab, s_tab = arr[:, 0], arr[:, 1]
    if np.any(w_tab <= 0) or np.any(s_tab <= 0):
        raise ValidationError("spectrum file must have positive omega and density")
    if np.any(np.diff(w_tab) <= 0):
        raise ValidationError("spectrum file omega column must be strictly increasing")
    lw, ls = np.log(w_tab), np.log(s_tab)
    slope_lo = (ls[1] - ls[0]) / (lw[1] - lw[0])
    slope_hi = (ls[-1] - ls[-2]) / (lw[-1] - lw[-2])

    def density(omega):
        x = np.log(np.abs(np.asarray(omega, dtype=float)))
        y = np.interp(x, lw, ls)
        y = np.where(x < lw[0], ls[0] + slope_lo * (x - lw[0]), y)
        y = np.where(x > lw[-1], ls[-1] + slope_hi * (x - lw[-1]), y)
        out = np.exp(y)
        return float(out) if np.ndim(omega) == 0 else out

    return density
