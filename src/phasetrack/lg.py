"""Steady-state linear-Gaussian estimation for the integrator-chain phase model.

For even p = 2n+2 the phase model is the state-space system

    dx = A x dt + E dW,    y = C x + white noise,

with A the (n+1)x(n+1) lower shift, C = sqrt(mu) e_n^T and
mu = 4 N kappa^(2n+1). The input E = e_0 is the chain's fixed input: the
noise drives stage 0 for every p, so it is not a field of LgSystem. All
stationary covariances factor as V_{k,l} = Vt_{k,l} mu^-((k+l+1)/p) with a
mu-independent normalized matrix Vt, so everything is solved once per p in
normalized form and rescaled.

The normalized causal covariance has a closed form. The stationary filter's
closed-loop poles are lam_k = i e^(i pi (2k-1)/p), k = 1..n+1, the
left-half-plane Butterworth poles, and Vt_F is an alternating sum of products
of the Butterworth coefficients a_k (see solve_filter_covariance); its last
column, the normalized filter gain, is (a_0, ..., a_n).

Vt_F^-1 = Vt_R (retro_covariance) and the two-sided Vt_S
(smoother_covariance_closed_form) have closed forms too; the float inverses
of the information sum live only in smoother_covariance, their cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .phase_process import _chain_stages

__all__ = [
    "LgSystem",
    "CovarianceSet",
    "build_lg_system",
    "solve_filter_covariance",
    "riccati_residual",
    "retro_covariance",
    "smoother_covariance",
    "smoother_covariance_closed_form",
    "scale_covariance",
    "covariance_set",
    "lg_filter_mse",
]

# cond(Vt_F) grows about tenfold per step of p (~1e8 at p = 20), so the float
# inverses of smoother_covariance lose digits; p <= 20 is the range the
# acceptance gate checks.
_MAX_P = 20


@dataclass(frozen=True, eq=False)
class LgSystem:
    """Standard-form state-space model for even spectral exponent p = 2n+2."""

    n: int
    a: np.ndarray
    c: np.ndarray
    mu: float
    kappa: float

    @property
    def p(self) -> int:
        return 2 * self.n + 2

    @property
    def n_states(self) -> int:
        return self.n + 1

    @property
    def time_scale(self) -> float:
        """mu^(-1/p), the closed-loop response time unit."""
        if self.mu <= 0:
            raise ValidationError("time scale undefined for mu = 0 (no measurement)")
        return self.mu ** (-1.0 / self.p)


def build_lg_system(p, kappa: float, flux: float) -> LgSystem:
    """Assemble A, C and mu for exponent p, rate kappa, photon flux N.

    flux = 0 is allowed and yields C = 0 (measurement carries no signal).
    """
    m = _chain_stages(p)
    if not 0 < kappa < math.inf:
        raise ValidationError(f"kappa must be positive and finite, got {kappa}")
    if not 0 <= flux < math.inf:
        raise ValidationError(f"photon_flux must be >= 0 and finite, got {flux}")
    n = m - 1
    a = np.eye(m, k=-1)
    mu = 4.0 * flux * kappa ** (2 * n + 1)
    c = np.zeros(m)
    c[n] = math.sqrt(mu)
    return LgSystem(n=n, a=a, c=c, mu=mu, kappa=kappa)


def solve_filter_covariance(p) -> np.ndarray:
    """Normalized stationary covariance of the causal estimator, for even p.

    With m = p/2 and the Butterworth coefficients a_0 = 1,
    a_k = a_(k-1) cos((k-1) pi/p) / sin(k pi/p), the entries for k <= l
    (0-based) are

        Vt_F[k,l] = sum_(j>=0) (-1)^j a_(k-j) a_(l+1+j),   k-j >= 0, l+1+j <= m.

    Evaluated in extended precision (pi included) and rounded to float once.
    The result is symmetric, bisymmetric, positive definite, and satisfies
    the quadratic recurrence checked by riccati_residual.
    """
    m = _chain_stages(p)
    p_int = 2 * m
    if p_int > _MAX_P:
        raise ValidationError(f"conditioning-limit: p={p_int} exceeds supported maximum {_MAX_P}")
    pi = np.arccos(np.longdouble(-1))
    a = [np.longdouble(1)]
    for k in range(1, m + 1):
        a.append(a[-1] * np.cos((k - 1) * pi / p_int) / np.sin(k * pi / p_int))
    v = np.empty((m, m))
    for k in range(m):
        for l in range(k, m):
            js = range(min(k, m - 1 - l) + 1)
            v[k, l] = v[l, k] = sum((-1) ** j * a[k - j] * a[l + 1 + j] for j in js)
    return v


def riccati_residual(v_tilde: np.ndarray) -> float:
    """Max violation of the normalized stationary recurrence

        Vt_{k-1,l} + Vt_{k,l-1} + delta_{k0} delta_{l0} - Vt_{k,n} Vt_{n,l} = 0

    for the (n+1)x(n+1) matrix Vt, with out-of-range indices treated as zero.
    """
    v = np.asarray(v_tilde, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {v.shape}")
    m = v.shape[0]
    n = m - 1
    padded = np.zeros((m + 1, m + 1))
    padded[1:, 1:] = v
    res = padded[:-1, 1:] + padded[1:, :-1] - np.outer(v[:, n], v[n, :])
    res[0, 0] += 1.0
    return float(np.max(np.abs(res)))


def retro_covariance(vf_tilde: np.ndarray) -> np.ndarray:
    """Normalized covariance of the anticausal estimator: sign-flipped copy.

    [Vt_R]_{k,l} = (-1)^(k+l) [Vt_F]_{k,l}, which also equals Vt_F^-1.
    """
    v = np.asarray(vf_tilde, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {v.shape}")
    signs = (-1.0) ** np.arange(v.shape[0])
    return v * np.outer(signs, signs)


def smoother_covariance(vf_tilde: np.ndarray, vr_tilde: np.ndarray) -> np.ndarray:
    """Two-sided covariance from the information sum: (Vt_F^-1 + Vt_R^-1)^-1."""
    vf = np.asarray(vf_tilde, dtype=float)
    vr = np.asarray(vr_tilde, dtype=float)
    if vf.shape != vr.shape or vf.ndim != 2 or vf.shape[0] != vf.shape[1]:
        raise ValidationError(f"covariance shapes do not match: {vf.shape} vs {vr.shape}")
    try:
        info = np.linalg.inv(vf) + np.linalg.inv(vr)
        vs = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"smoother-singular: {exc}") from exc
    return 0.5 * (vs + vs.T)


def smoother_covariance_closed_form(p) -> np.ndarray:
    """Closed-form normalized two-sided covariance for even p (0-based indices):

        [Vt_S]_{k,l} = (-1)^((k-l)/2) / (p sin(pi (k+l+1)/p))   for k-l even,
                       0                                         otherwise.
    """
    m = _chain_stages(p)
    p_int = 2 * m
    if p_int > _MAX_P:
        raise ValidationError(f"conditioning-limit: p={p_int} exceeds supported maximum {_MAX_P}")
    vs = np.zeros((m, m))
    for k in range(m):
        for l in range(m):
            if (k - l) % 2 == 0:
                vs[k, l] = (-1.0) ** ((k - l) // 2) / (p_int * math.sin(math.pi * (k + l + 1) / p_int))
    return vs


def scale_covariance(v_tilde: np.ndarray, mu: float) -> np.ndarray:
    """Physical covariance: V_{k,l} = Vt_{k,l} mu^-((k+l+1)/p), where an
    m x m matrix Vt belongs to p = 2m."""
    if not mu > 0:
        raise ValidationError(f"mu must be positive, got {mu}")
    v = np.asarray(v_tilde, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {v.shape}")
    idx = np.arange(v.shape[0])
    expo = -(idx[:, None] + idx[None, :] + 1.0) / (2 * v.shape[0])
    return v * mu**expo


@dataclass(frozen=True, eq=False)
class CovarianceSet:
    """Physical stationary covariance of the causal estimator. The anticausal
    one is retro_covariance(vf), the same bits as scaling Vt_R."""

    vf: np.ndarray


def covariance_set(system: LgSystem) -> CovarianceSet:
    """Solve the causal covariance for one system."""
    return CovarianceSet(vf=scale_covariance(solve_filter_covariance(system.p), system.mu))


def lg_filter_mse(system: LgSystem) -> float:
    """Predicted stationary phase MSE of the causal estimator, kappa^(2n+1) V_F[n, n]."""
    v = scale_covariance(solve_filter_covariance(system.p), system.mu)
    return system.kappa ** (2 * system.n + 1) * float(v[-1, -1])
