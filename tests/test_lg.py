"""Steady-state covariance construction, recurrence checks, and scalings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import lg_smoother_mse, solve_filter_covariance_ode, solve_gauss

from phasetrack.bounds import filter_mse_power_law, qcrb_power_law
from phasetrack.errors import NumericalError, ValidationError
from phasetrack.lg import (
    build_lg_system,
    covariance_set,
    lg_filter_mse,
    retro_covariance,
    riccati_residual,
    scale_covariance,
    smoother_covariance,
    smoother_covariance_closed_form,
    solve_filter_covariance,
)
from phasetrack.phase_process import PhaseModel

EVEN_P = list(range(2, 21, 2))

# Known normalized causal covariances for the three smallest chains.
VT_P2 = np.array([[1.0]])
VT_P4 = np.array([[math.sqrt(2), 1.0], [1.0, math.sqrt(2)]])
VT_P6 = np.array([[2.0, 2.0, 1.0], [2.0, 3.0, 2.0], [1.0, 2.0, 2.0]])


class TestBuildSystem:
    def test_p2(self):
        sys2 = build_lg_system(2, 1.0, 25.0)
        assert sys2.a == pytest.approx(np.array([[0.0]]))
        assert sys2.c == pytest.approx(np.array([10.0]))
        assert sys2.mu == pytest.approx(100.0)

    def test_p4(self):
        sys4 = build_lg_system(4, 1.0, 1.0)
        assert sys4.a == pytest.approx(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert sys4.c == pytest.approx(np.array([0.0, 2.0]))
        assert sys4.mu == pytest.approx(4.0)

    def test_mu_scaling_with_kappa(self):
        assert build_lg_system(2, 2.0, 25.0).mu == pytest.approx(200.0)

    def test_rejects_odd_p(self):
        with pytest.raises(ValidationError, match="requires-even-p"):
            build_lg_system(3, 1.0, 1.0)
        with pytest.raises(ValidationError, match="requires-even-p"):
            build_lg_system(2.5, 1.0, 1.0)


_CHAIN_SOLVES = {
    "build_lg_system": lambda p: build_lg_system(p, 1.0, 1.0),
    "solve_filter_covariance": solve_filter_covariance,
    "smoother_covariance_closed_form": smoother_covariance_closed_form,
}


class TestEvenP:
    """Every chain entry point rejects p that is not a finite even integer
    >= 2 with the same error."""

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 2.5, 3, 0, -2])
    @pytest.mark.parametrize("name", sorted(_CHAIN_SOLVES))
    def test_bad_p_rejected(self, name, p):
        with pytest.raises(ValidationError, match="chain-requires-even-p"):
            _CHAIN_SOLVES[name](p)

    @pytest.mark.parametrize("p", [2.5, 3])
    def test_phase_model_chain_index(self, p):
        model = PhaseModel(p, 1.0)  # accepted for spectral bounds
        with pytest.raises(ValidationError, match="chain-requires-even-p"):
            model.n

    @pytest.mark.parametrize("name", ["solve_filter_covariance", "smoother_covariance_closed_form"])
    def test_even_p_above_limit(self, name):
        with pytest.raises(ValidationError, match="conditioning-limit"):
            _CHAIN_SOLVES[name](22)


class TestFilterCovariance:
    @pytest.mark.parametrize("p,expected", [(2, VT_P2), (4, VT_P4), (6, VT_P6)])
    def test_known_solutions(self, p, expected):
        assert np.max(np.abs(solve_filter_covariance(p) - expected)) <= 1e-9

    @pytest.mark.parametrize("p", EVEN_P)
    def test_recurrence_residual(self, p):
        vt = solve_filter_covariance(p)
        assert riccati_residual(vt) <= 1e-9

    @pytest.mark.parametrize("p", EVEN_P)
    def test_bisymmetric(self, p):
        vt = solve_filter_covariance(p)
        assert np.max(np.abs(vt - vt.T)) <= 1e-12
        assert np.max(np.abs(vt - vt[::-1, ::-1].T)) <= 1e-12

    @pytest.mark.parametrize("p", EVEN_P)
    def test_top_row_symmetry(self, p):
        # Vt[0, k] = Vt[0, n-1-k] for k <= n-1
        vt = solve_filter_covariance(p)
        n = p // 2 - 1
        for k in range(n):
            assert vt[0, k] == pytest.approx(vt[0, n - 1 - k], abs=1e-9)

    @pytest.mark.parametrize("p", EVEN_P)
    def test_positive_definite_and_corner(self, p):
        vt = solve_filter_covariance(p)
        assert np.all(np.linalg.eigvalsh(vt) > 0)
        assert vt[0, -1] == pytest.approx(1.0, abs=1e-10)

    def test_phase_entry_matches_wiener_prefactor(self):
        # Vt[n, n] = 1/sin(pi/p), the causal-estimator prefactor
        for p in (2, 4, 6, 8, 12):
            vt = solve_filter_covariance(p)
            assert vt[-1, -1] == pytest.approx(1.0 / math.sin(math.pi / p), rel=1e-10)

    def test_conditioning_cap(self):
        with pytest.raises(ValidationError, match="conditioning-limit"):
            solve_filter_covariance(22)

    @pytest.mark.parametrize("p", EVEN_P)
    def test_exact_and_correctly_rounded(self, p):
        # The Butterworth-coefficient formula at 50 digits solves the
        # normalized recurrence exactly, and the float result is that
        # solution rounded entry by entry.
        mp = pytest.importorskip("mpmath")
        m = p // 2
        with mp.workdps(50):
            a = [mp.mpf(1)]
            for k in range(1, m + 1):
                a.append(a[-1] * mp.cos((k - 1) * mp.pi / p) / mp.sin(k * mp.pi / p))
            v = [[None] * m for _ in range(m)]
            for k in range(m):
                for l in range(k, m):
                    js = range(min(k, m - 1 - l) + 1)
                    v[k][l] = v[l][k] = mp.fsum((-1) ** j * a[k - j] * a[l + 1 + j] for j in js)

            def entry(k, l):
                return v[k][l] if k >= 0 and l >= 0 else 0

            resid = max(
                abs(entry(k - 1, l) + entry(k, l - 1) + (k == l == 0) - v[k][m - 1] * v[m - 1][l])
                for k in range(m)
                for l in range(m)
            )
            assert resid < mp.mpf("1e-40")
            expected = np.array([[float(x) for x in row] for row in v])
        np.testing.assert_array_equal(solve_filter_covariance(p), expected)


class TestRiccatiResidual:
    def test_known_solution_satisfies(self):
        assert riccati_residual(VT_P4) <= 1e-12

    def test_identity_violates(self):
        assert riccati_residual(np.eye(2)) >= 1.0

    def test_sensitive_to_perturbations(self):
        for i in range(2):
            for j in range(2):
                perturbed = VT_P4.copy()
                perturbed[i, j] += 0.1
                assert riccati_residual(perturbed) >= 0.05

    def test_shape_check(self):
        with pytest.raises(ValidationError):
            riccati_residual(VT_P4[:1])


class TestOdeOracle:
    def test_p2_value(self):
        sys2 = build_lg_system(2, 1.0, 25.0)
        v = solve_filter_covariance_ode(sys2)
        assert v[0, 0] == pytest.approx(0.1, rel=1e-9)  # 1/sqrt(mu)

    def test_p4_matches_eigen_construction(self):
        sys4 = build_lg_system(4, 1.0, 7.0)
        v_ode = solve_filter_covariance_ode(sys4)
        v_eig = scale_covariance(solve_filter_covariance(4), sys4.mu)
        assert np.max(np.abs(v_ode - v_eig)) <= 1e-6

    def test_symmetry_preserved(self):
        sys4 = build_lg_system(4, 1.0, 3.0)
        v = solve_filter_covariance_ode(sys4)
        assert np.max(np.abs(v - v.T)) <= 1e-10

    def test_stall_detection(self):
        sys4 = build_lg_system(4, 1.0, 3.0)
        with pytest.raises(NumericalError, match="riccati-ode-stalled"):
            solve_filter_covariance_ode(sys4, tol=1e-12, max_steps=3)

    def test_rejects_zero_mu(self):
        with pytest.raises(ValidationError):
            solve_filter_covariance_ode(build_lg_system(2, 1.0, 0.0))


class TestRetroCovariance:
    def test_sign_flip_p4(self):
        vr = retro_covariance(VT_P4)
        assert vr == pytest.approx(np.array([[math.sqrt(2), -1.0], [-1.0, math.sqrt(2)]]))

    def test_p2_unchanged(self):
        assert retro_covariance(VT_P2) == pytest.approx(VT_P2)

    def test_product_is_identity_p6(self):
        vt = solve_filter_covariance(6)
        assert np.max(np.abs(vt @ retro_covariance(vt) - np.eye(3))) <= 1e-9

    @pytest.mark.parametrize("p", EVEN_P)
    def test_inverse_relation(self, p):
        vt = solve_filter_covariance(p)
        vr = retro_covariance(vt)
        assert np.max(np.abs(vt @ vr - np.eye(p // 2))) <= 1e-9

    @pytest.mark.parametrize("p", EVEN_P)
    def test_inverse_relation_to_conditioning(self, p):
        """Vt_F Vt_R = I within eps cond(Vt_F) (measured up to 0.35 of it),
        the accuracy that the smoother's closed forms rest on at p = 20."""
        vt = solve_filter_covariance(p)
        err = np.max(np.abs(vt @ retro_covariance(vt) - np.eye(p // 2)))
        assert err <= np.finfo(float).eps * np.linalg.cond(vt)


class TestSmootherCovariance:
    def test_p4_value(self):
        # oracle: direct arithmetic on the two known matrices
        vr = retro_covariance(VT_P4)
        oracle = np.linalg.inv(np.linalg.inv(VT_P4) + np.linalg.inv(vr))
        vs = smoother_covariance(VT_P4, vr)
        assert vs == pytest.approx(oracle, abs=1e-12)
        assert vs == pytest.approx(np.eye(2) / (2 * math.sqrt(2)), abs=1e-9)

    def test_p2_value(self):
        assert smoother_covariance(VT_P2, VT_P2)[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_equal_inputs_halve(self):
        v = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert smoother_covariance(v, v) == pytest.approx(v / 2, abs=1e-12)

    def test_singular_input(self):
        with pytest.raises(NumericalError, match="smoother-singular"):
            smoother_covariance(np.zeros((2, 2)), np.eye(2))


class TestSmootherClosedForm:
    def test_p2(self):
        assert smoother_covariance_closed_form(2) == pytest.approx(np.array([[0.5]]))

    def test_p4_entry(self):
        vs = smoother_covariance_closed_form(4)
        assert vs[1, 1] == pytest.approx(1.0 / (4 * math.sin(3 * math.pi / 4)), rel=1e-12)
        assert vs[1, 1] == pytest.approx(0.353553, abs=5e-7)

    def test_p8_checkerboard(self):
        vs = smoother_covariance_closed_form(8)
        for k in range(4):
            for l in range(4):
                if (k - l) % 2 == 1:
                    assert vs[k, l] == 0.0

    @pytest.mark.parametrize("p", EVEN_P)
    def test_matches_information_sum(self, p):
        vt = solve_filter_covariance(p)
        vs = smoother_covariance(vt, retro_covariance(vt))
        assert np.max(np.abs(vs - smoother_covariance_closed_form(p))) <= 1e-9

    @pytest.mark.parametrize("p", [2, 4, 6, 8])
    def test_phase_entry_improvement_factor(self, p):
        vt = solve_filter_covariance(p)
        vs = smoother_covariance_closed_form(p)
        assert vs[-1, -1] == pytest.approx(vt[-1, -1] / p, abs=1e-9)

    @pytest.mark.parametrize("p", EVEN_P)
    def test_never_worse_in_any_direction(self, p):
        vt = solve_filter_covariance(p)
        vs = smoother_covariance_closed_form(p)
        gap_eigs = np.linalg.eigvalsh(vt - vs)
        assert np.min(gap_eigs) >= -1e-10


class TestScaleCovariance:
    def test_p2(self):
        assert scale_covariance(VT_P2, 100.0) == pytest.approx(np.array([[0.1]]), rel=1e-12)

    def test_phase_mse_matches_wiener_oracle(self):
        # 4N/kappa = 100 at kappa = 1
        sys4 = build_lg_system(4, 1.0, 25.0)
        assert lg_filter_mse(sys4) == pytest.approx(filter_mse_power_law(4, 1.0, 25.0), rel=1e-10)
        assert lg_filter_mse(sys4) == pytest.approx(math.sqrt(2) * 100 ** (-0.75), rel=1e-12)

    def test_unit_mu_identity(self):
        assert scale_covariance(VT_P6, 1.0) == pytest.approx(VT_P6)

    def test_rejects_bad_mu(self):
        with pytest.raises(ValidationError):
            scale_covariance(VT_P2, 0.0)

    def test_rejects_non_square(self):
        # p is read off the matrix size, so a non-square one has no p
        with pytest.raises(ValidationError, match="square"):
            scale_covariance(np.ones((2, 3)), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(p=st.sampled_from(EVEN_P), log_mu=st.floats(-12.0, 12.0))
    def test_mu_scaling_law(self, p, log_mu):
        """V[k, l] mu^((k + l + 1)/p) recovers Vt[k, l] for every entry."""
        mu = 10.0**log_mu
        vt = solve_filter_covariance(p)
        v = scale_covariance(vt, mu)
        k = np.arange(p // 2)
        np.testing.assert_allclose(v * mu ** ((k[:, None] + k[None, :] + 1.0) / p), vt, rtol=1e-12, atol=0)

    def test_smoother_mse_matches_qcrb(self):
        sys6 = build_lg_system(6, 2.0, 11.0)
        assert lg_smoother_mse(sys6) == pytest.approx(qcrb_power_law(6, 2.0, 11.0), rel=1e-10)


class TestClosedLoopSpectrum:
    @pytest.mark.parametrize("p", [2, 4, 6, 8])
    def test_stable_and_mu_scaling(self, p):
        kappa = 1.0
        sys_a = build_lg_system(p, kappa, 10.0)
        sys_b = build_lg_system(p, kappa, 160.0)
        vt = solve_filter_covariance(p)

        def closed_eigs(system):
            v = scale_covariance(vt, system.mu)
            return np.linalg.eigvals(system.a - v @ np.outer(system.c, system.c))

        eig_a = closed_eigs(sys_a)
        eig_b = closed_eigs(sys_b)
        assert np.all(eig_a.real < 0)
        assert np.all(eig_b.real < 0)
        ratio = np.max(eig_b.real) / np.max(eig_a.real)
        assert ratio == pytest.approx((sys_b.mu / sys_a.mu) ** (1.0 / p), rel=1e-6)


    @pytest.mark.parametrize("p", EVEN_P)
    def test_closed_loop_poles_are_scaled_butterworth(self, p):
        """The filter's closed-loop matrix A - V_F C^T C has eigenvalues
        mu^(1/p) i e^(i pi (2k-1)/p), k = 1..p/2 (at p = 2 the decay rate
        sqrt(mu)). Each eigenvalue is paired with its nearest pole: the poles
        come in conjugate pairs with equal real parts, so sorting both lists
        can pair them crosswise."""
        system = build_lg_system(p, 1.0, 25.0)  # mu = 100
        vf = covariance_set(system).vf
        eig = np.linalg.eigvals(system.a - vf @ np.outer(system.c, system.c))
        k = np.arange(1, p // 2 + 1)
        poles = system.mu ** (1.0 / p) * 1j * np.exp(1j * math.pi * (2 * k - 1) / p)
        nearest = np.argmin(np.abs(eig[:, None] - poles[None, :]), axis=1)
        assert sorted(nearest) == list(range(p // 2))
        assert np.max(np.abs(eig - poles[nearest])) <= 1e-9 * system.mu ** (1.0 / p)


class TestCovarianceSet:
    def test_consistent_fields(self):
        sys4 = build_lg_system(4, 1.0, 25.0)
        cov = covariance_set(sys4)
        assert cov.vf == pytest.approx(scale_covariance(VT_P4, sys4.mu))
        assert retro_covariance(cov.vf) == pytest.approx(scale_covariance(retro_covariance(VT_P4), sys4.mu))


class TestSolveGauss:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=6)
        assert solve_gauss(a, b) == pytest.approx(np.linalg.solve(a, b), rel=1e-10)

    def test_extended_precision_dtype(self):
        a = np.eye(3, dtype=np.longdouble) * 3
        x = solve_gauss(a, np.ones(3, dtype=np.longdouble))
        assert x.dtype == np.longdouble
        assert np.allclose(x.astype(float), 1.0 / 3.0)
