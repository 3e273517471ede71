"""Gaussian phase processes with power-law spectra.

The phase is realized by a chain of n+1 integrators driven by white noise,
x_0 -> x_1 -> ... -> x_n, with the physical phase phi = kappa^(n+1/2) x_n.
The undamped chain has spectrum kappa^(p-1)/|w|^p with p = 2n+2; giving each
stage a decay rate lambda_k turns the poles at w=0 into Lorentzian cutoffs
and makes the process stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.integrate import quad
from scipy.signal import lfilter

from .errors import NumericalError, ValidationError

__all__ = [
    "PhaseModel",
    "spectrum",
    "autocovariance",
    "chain_stages",
]


def _is_even_integer(p: float) -> bool:
    return float(p) == int(p) and int(p) % 2 == 0


@dataclass(frozen=True)
class PhaseModel:
    """Power-law phase model: spectral exponent p, rate kappa, stage dampings.

    ``dampings`` holds one nonnegative decay rate per chain stage
    (length p/2 for even integer p); an empty tuple means the undamped
    model. Non-even exponents are accepted for spectral bounds only and
    must be undamped.
    """

    p: float
    kappa: float
    dampings: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if not 1 < self.p < math.inf:
            raise ValidationError(f"exponent-out-of-range: need finite p > 1, got p={self.p}")
        if not 0 < self.kappa < math.inf:
            raise ValidationError(f"kappa must be positive and finite, got {self.kappa}")
        object.__setattr__(self, "dampings", tuple(float(d) for d in self.dampings))
        if not all(0 <= d < math.inf for d in self.dampings):
            raise ValidationError(f"dampings must be nonnegative and finite, got {self.dampings}")
        if self.dampings:
            if not _is_even_integer(self.p):
                raise ValidationError(
                    "chain-requires-even-p: dampings are chain stage rates, "
                    f"undefined for p={self.p}"
                )
            if len(self.dampings) != int(self.p) // 2:
                raise ValidationError(
                    f"expected {int(self.p) // 2} damping rates for p={self.p}, "
                    f"got {len(self.dampings)}"
                )

    @property
    def is_even_integer(self) -> bool:
        return _is_even_integer(self.p)

    @property
    def n(self) -> int:
        """Chain index: p = 2n + 2."""
        if not self.is_even_integer:
            raise ValidationError(f"chain-requires-even-p: got p={self.p}")
        return int(self.p) // 2 - 1

    @property
    def is_damped(self) -> bool:
        return any(d > 0 for d in self.dampings)

    def damping_rates(self) -> np.ndarray:
        """Per-stage decay rates as an array of length n+1 (zeros if undamped)."""
        n_stages = self.n + 1
        if not self.dampings:
            return np.zeros(n_stages)
        return np.asarray(self.dampings, dtype=float)

    @property
    def phase_scale(self) -> float:
        """Factor kappa^(n+1/2) mapping the last chain component to the phase."""
        return self.kappa ** (self.n + 0.5)


def spectrum(model: PhaseModel, omega):
    """Two-sided power spectral density of the phase at angular frequency omega.

    Undamped: kappa^(p-1)/|w|^p. Damped even-p chain:
    kappa^(p-1) * prod_k 1/(w^2 + lambda_k^2). Even in omega, strictly
    positive; rejects w = 0 whenever any stage is undamped there.
    """
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if model.is_damped:
        lam = model.damping_rates()
        if np.any(w == 0.0) and np.any(lam == 0.0):
            raise NumericalError("spectrum-divergent-at-zero: undamped stage at omega=0")
        w2 = w[:, None] ** 2
        out = model.kappa ** (model.p - 1) / np.prod(w2 + lam[None, :] ** 2, axis=1)
    else:
        if np.any(w == 0.0):
            raise NumericalError("spectrum-divergent-at-zero: undamped model at omega=0")
        out = model.kappa ** (model.p - 1) / np.abs(w) ** model.p
    return float(out[0]) if scalar else out


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


def chain_stages(model: PhaseModel, dt: float, increments: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the chain stages x_0, ..., x_n driven by explicit noise increments.

    Explicit Euler update from zero: dx_0 = -lambda_0 x_0 dt + dW,
    dx_{k+1} = (x_k - lambda_{k+1} x_{k+1}) dt. Time runs along the last
    axis of ``increments``; any leading axes (trials) are carried along.
    Each yielded stage has the shape of ``increments`` and holds at entry i
    the value before increment i. Each stage is a first-order linear
    recurrence in the one before it, evaluated with lfilter, so at most two
    stages are live at a time.
    """
    decay = 1.0 - model.damping_rates() * dt
    stage = np.asarray(increments, dtype=float)
    for k, c in enumerate(decay):
        # x_k[i+1] = (1 - lambda_k dt) x_k[i] + g x_{k-1}[i], g = 1 (dW) or dt
        stage = lfilter([0.0, 1.0 if k == 0 else dt], [1.0, -c], stage, axis=-1)
        yield stage


def _check_damping(model: PhaseModel, dt: float) -> None:
    """Reject a step that does not resolve the fastest stage decay."""
    lam = model.damping_rates()
    if np.max(lam) * dt >= 0.1:
        raise ValidationError(
            f"dt={dt} too coarse for damping rates {tuple(lam)} (need dt*max < 0.1)"
        )
