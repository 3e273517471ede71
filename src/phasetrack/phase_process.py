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

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "PhaseModel",
    "spectrum",
]


def _chain_stages(p) -> int:
    """Number of chain stages, p/2, for a finite even integer p >= 2."""
    if not (2 <= p < math.inf and p % 2 == 0):
        raise ValidationError(f"chain-requires-even-p: need an even integer p >= 2, got p={p}")
    return int(p) // 2


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
        if self.dampings and len(self.dampings) != _chain_stages(self.p):
            raise ValidationError(
                f"expected {_chain_stages(self.p)} damping rates for p={self.p}, "
                f"got {len(self.dampings)}"
            )

    @property
    def n(self) -> int:
        """Chain index: p = 2n + 2."""
        return _chain_stages(self.p) - 1

    @property
    def is_damped(self) -> bool:
        return any(d > 0 for d in self.dampings)

    def damping_rates(self) -> np.ndarray:
        """Per-stage decay rates as an array of length n+1 (zeros if undamped)."""
        if not self.dampings:
            return np.zeros(_chain_stages(self.p))
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

    omega is a float or an ndarray, and both go through the same float
    arithmetic: a float costs no array work and returns a float. The
    product over stages runs in np.prod's order.
    """
    zero = omega == 0.0  # a bool for a float, a bool array for an ndarray
    if zero is not False and np.any(zero) and (0.0 in model.dampings or not model.dampings):
        raise NumericalError("spectrum-divergent-at-zero: undamped stage at omega=0")
    if model.dampings:
        w2 = omega * omega
        den = 1.0
        for lam in model.dampings:
            den = den * (w2 + lam * lam)
    else:
        den = abs(omega) ** model.p
    return model.kappa ** (model.p - 1) / den


def _check_damping(model: PhaseModel, dt: float) -> None:
    """Reject a step that does not resolve the fastest stage decay."""
    lam = model.damping_rates()
    if np.max(lam) * dt >= 0.1:
        raise ValidationError(
            f"dt={dt} too coarse for damping rates {tuple(lam.tolist())} (need dt*max < 0.1)"
        )
