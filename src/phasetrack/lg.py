"""Steady-state linear-Gaussian estimation for the integrator-chain phase model.

For even p = 2n+2 the phase model is the state-space system

    dx = A x dt + E dW,    y = C x + white noise,

with A the (n+1)x(n+1) lower shift, E = e_0, C = sqrt(mu) e_n^T and
mu = 4 N kappa^(2n+1). All stationary covariances factor as
V_{k,l} = Vt_{k,l} mu^-((k+l+1)/p) with a mu-independent normalized matrix Vt,
so everything is solved once per p in normalized form and rescaled.

The normalized causal covariance has a closed form. The stationary filter's
closed-loop poles are lam_k = i e^(i pi (2k-1)/p), k = 1..n+1, the
left-half-plane Butterworth poles, and Vt_F is an alternating sum of products
of the Butterworth coefficients a_k (see solve_filter_covariance); its last
column, the normalized filter gain, is (a_0, ..., a_n). An independent
route integrates the differential Riccati equation to stationarity and is
used as a cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "LgSystem",
    "CovarianceSet",
    "build_lg_system",
    "solve_filter_covariance",
    "riccati_residual",
    "solve_filter_covariance_ode",
    "retro_covariance",
    "smoother_covariance",
    "smoother_covariance_closed_form",
    "scale_covariance",
    "covariance_set",
    "lg_filter_mse",
    "lg_smoother_mse",
]

# cond(Vt_F) grows about tenfold per step of p (~1e8 at p = 20), so the float
# inverses of the information sum lose digits; p <= 20 is the range the
# acceptance gate checks.
_MAX_P = 20


def _require_even_p(p, what: str = "requires-even-p") -> int:
    if float(p) != int(p) or int(p) % 2 != 0 or int(p) < 2:
        raise ValidationError(f"{what}: got p={p}")
    return int(p)


@dataclass(frozen=True, eq=False)
class LgSystem:
    """Standard-form state-space model for even spectral exponent p = 2n+2."""

    n: int
    a: np.ndarray
    e: np.ndarray
    c: np.ndarray
    mu: float
    kappa: float
    photon_flux: float

    @property
    def p(self) -> int:
        return 2 * self.n + 2

    @property
    def n_states(self) -> int:
        return self.n + 1

    @property
    def phase_scale(self) -> float:
        """kappa^(n+1/2): maps the last state component to the phase."""
        return self.kappa ** (self.n + 0.5)

    @property
    def time_scale(self) -> float:
        """mu^(-1/p), the closed-loop response time unit."""
        if self.mu <= 0:
            raise ValidationError("time scale undefined for mu = 0 (no measurement)")
        return self.mu ** (-1.0 / self.p)


def build_lg_system(p, kappa: float, flux: float) -> LgSystem:
    """Assemble A, E, C and mu for exponent p, rate kappa, photon flux N.

    flux = 0 is allowed and yields C = 0 (measurement carries no signal).
    """
    p_int = _require_even_p(p)
    if not 0 < kappa < math.inf:
        raise ValidationError(f"kappa must be positive and finite, got {kappa}")
    if not 0 <= flux < math.inf:
        raise ValidationError(f"photon_flux must be >= 0 and finite, got {flux}")
    n = p_int // 2 - 1
    m = n + 1
    a = np.zeros((m, m))
    for j in range(1, m):
        a[j, j - 1] = 1.0
    e = np.zeros(m)
    e[0] = 1.0
    mu = 4.0 * flux * kappa ** (2 * n + 1)
    c = np.zeros(m)
    c[n] = math.sqrt(mu)
    return LgSystem(n=n, a=a, e=e, c=c, mu=mu, kappa=kappa, photon_flux=flux)


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
    p_int = _require_even_p(p)
    if p_int > _MAX_P:
        raise ValidationError(f"conditioning-limit: p={p_int} exceeds supported maximum {_MAX_P}")
    m = p_int // 2
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


def riccati_residual(v_tilde: np.ndarray, n: int) -> float:
    """Max violation of the normalized stationary recurrence

        Vt_{k-1,l} + Vt_{k,l-1} + delta_{k0} delta_{l0} - Vt_{k,n} Vt_{n,l} = 0

    with out-of-range indices treated as zero.
    """
    v = np.asarray(v_tilde, dtype=float)
    m = n + 1
    if v.shape != (m, m):
        raise ValidationError(f"expected shape {(m, m)}, got {v.shape}")
    padded = np.zeros((m + 1, m + 1))
    padded[1:, 1:] = v
    res = padded[:-1, 1:] + padded[1:, :-1] - np.outer(v[:, n], v[n, :])
    res[0, 0] += 1.0
    return float(np.max(np.abs(res)))


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
    a, e, c = system.a, system.e, system.c
    ee = np.outer(e, e)

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
    p_int = _require_even_p(p)
    if p_int > _MAX_P:
        raise ValidationError(f"conditioning-limit: p={p_int} exceeds supported maximum {_MAX_P}")
    m = p_int // 2
    vs = np.zeros((m, m))
    for k in range(m):
        for l in range(m):
            if (k - l) % 2 == 0:
                vs[k, l] = (-1.0) ** ((k - l) // 2) / (p_int * math.sin(math.pi * (k + l + 1) / p_int))
    return vs


def scale_covariance(v_tilde: np.ndarray, p, mu: float) -> np.ndarray:
    """Physical covariance: V_{k,l} = Vt_{k,l} mu^-((k+l+1)/p)."""
    p_int = _require_even_p(p)
    if not mu > 0:
        raise ValidationError(f"mu must be positive, got {mu}")
    v = np.asarray(v_tilde, dtype=float)
    idx = np.arange(v.shape[0])
    expo = -(idx[:, None] + idx[None, :] + 1.0) / p_int
    return v * mu**expo


@dataclass(frozen=True, eq=False)
class CovarianceSet:
    """Normalized and physical stationary covariances of the three estimators."""

    vf_tilde: np.ndarray
    vr_tilde: np.ndarray
    vs_tilde: np.ndarray
    vf: np.ndarray
    vr: np.ndarray
    vs: np.ndarray


def covariance_set(system: LgSystem) -> CovarianceSet:
    """Solve the causal, anticausal, and combined covariances for one system."""
    vf_t = solve_filter_covariance(system.p)
    vr_t = retro_covariance(vf_t)
    vs_t = smoother_covariance(vf_t, vr_t)
    return CovarianceSet(
        vf_tilde=vf_t,
        vr_tilde=vr_t,
        vs_tilde=vs_t,
        vf=scale_covariance(vf_t, system.p, system.mu),
        vr=scale_covariance(vr_t, system.p, system.mu),
        vs=scale_covariance(vs_t, system.p, system.mu),
    )


def _phase_mse(v_tilde: np.ndarray, system: LgSystem) -> float:
    # MSE on the phase itself: kappa^(2n+1) V_{n,n}
    n = system.n
    v_phys = scale_covariance(v_tilde, system.p, system.mu)
    return system.kappa ** (2 * n + 1) * float(v_phys[n, n])


def lg_filter_mse(system: LgSystem) -> float:
    """Predicted stationary phase MSE of the causal estimator."""
    return _phase_mse(solve_filter_covariance(system.p), system)


def lg_smoother_mse(system: LgSystem) -> float:
    """Predicted stationary phase MSE of the two-sided estimator."""
    return _phase_mse(smoother_covariance_closed_form(system.p), system)
