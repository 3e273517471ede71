"""Bound values, quadrature-vs-closed-form agreement, and scaling laws."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import tabulated_density_interp

from phasetrack.bounds import (
    BoundQuery,
    abc_linearized_mse,
    filter_mse_power_law,
    filter_mse_quadrature,
    qcrb_power_law,
    qcrb_quadrature,
    smoother_mse_quadrature,
    tabulated_spectrum,
)
from phasetrack.errors import NumericalError, ValidationError
from phasetrack.phase_process import PhaseModel


def _query(p, kappa, flux):
    return BoundQuery(PhaseModel(p, kappa), flux)


class TestQcrb:
    def test_quadrature_p2(self):
        # oracle: [p sin(pi/p)]^-1 (4N/kappa)^-((p-1)/p) = 0.05 at p=2, N=25
        assert qcrb_quadrature(_query(2, 1.0, 25.0))[0] == pytest.approx(0.05, rel=1e-6)

    def test_quadrature_p3(self):
        oracle = qcrb_power_law(3, 1.0, 25.0)
        value = qcrb_quadrature(_query(3, 1.0, 25.0))[0]
        assert value == pytest.approx(oracle, rel=1e-4)
        assert value == pytest.approx(0.0178655, abs=5e-7)

    def test_monotone_in_flux(self):
        lo = qcrb_quadrature(_query(2.5, 1.0, 50.0))[0]
        hi = qcrb_quadrature(_query(2.5, 1.0, 100.0))[0]
        assert hi < lo

    def test_closed_form_values(self):
        assert qcrb_power_law(2, 1.0, 25.0) == pytest.approx(0.05, rel=1e-12)
        assert qcrb_power_law(4, 1.0, 25.0) == pytest.approx(0.0111803, abs=5e-8)

    def test_closed_form_flux_scaling_exact(self):
        # (4N/kappa)^-((p-1)/p) with p=2: multiplying N by 16 quarters the MSE
        assert qcrb_power_law(2, 1.0, 16 * 25.0) == pytest.approx(qcrb_power_law(2, 1.0, 25.0) / 4, rel=1e-14)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValidationError, match="exponent-out-of-range"):
            qcrb_power_law(1.0, 1.0, 25.0)
        with pytest.raises(ValidationError, match="exponent-out-of-range"):
            filter_mse_power_law(0.9, 1.0, 25.0)


class TestFilterMse:
    def test_quadrature_values(self):
        assert filter_mse_quadrature(_query(2, 1.0, 25.0))[0] == pytest.approx(0.1, rel=1e-6)
        assert filter_mse_quadrature(_query(4, 1.0, 25.0))[0] == pytest.approx(
            filter_mse_power_law(4, 1.0, 25.0), rel=1e-4
        )

    def test_closed_form_values(self):
        assert filter_mse_power_law(2, 1.0, 25.0) == pytest.approx(0.1, rel=1e-12)
        assert filter_mse_power_law(4, 1.0, 25.0) == pytest.approx(0.0447214, abs=5e-8)

    def test_strictly_above_qcrb(self):
        for p in (1.5, 2, 4):
            q = _query(p, 1.0, 25.0)
            assert filter_mse_quadrature(q)[0] > qcrb_quadrature(q)[0]

    @pytest.mark.parametrize("p", [2, 3, 4, 8])
    def test_ratio_to_qcrb_is_p(self, p):
        ratio = filter_mse_power_law(p, 1.0, 25.0) / qcrb_power_law(p, 1.0, 25.0)
        assert ratio == pytest.approx(p, rel=1e-12)


class TestSmootherMse:
    def test_equals_qcrb(self):
        for p in (1.5, 2, 4):
            q = _query(p, 2.0, 100.0)
            assert smoother_mse_quadrature(q)[0] == pytest.approx(qcrb_quadrature(q)[0], rel=1e-10)

    def test_value_p4(self):
        assert smoother_mse_quadrature(_query(4, 1.0, 25.0))[0] == pytest.approx(0.0111803, abs=5e-7)

    def test_no_measurement_divergent(self):
        with pytest.raises(NumericalError, match="bound-divergent"):
            smoother_mse_quadrature(_query(4, 1.0, 0.0))


class TestQuadratureAgreement:
    @pytest.mark.parametrize("p", [1.5, 2, 3, 4, 6])
    @pytest.mark.parametrize("n_over_kappa", [10.0, 1e3])
    def test_closed_forms_match_quadrature(self, p, n_over_kappa):
        q = _query(p, 1.0, n_over_kappa)
        assert qcrb_quadrature(q)[0] == pytest.approx(qcrb_power_law(p, 1.0, n_over_kappa), rel=1e-3)
        assert filter_mse_quadrature(q)[0] == pytest.approx(filter_mse_power_law(p, 1.0, n_over_kappa), rel=1e-3)

    @settings(max_examples=8, deadline=None)
    @given(p=st.floats(1.5, 8.0), log_kappa=st.floats(-2.0, 2.0), log_n_over_kappa=st.floats(1.0, 4.0))
    def test_closed_forms_match_quadrature_anywhere(self, p, log_kappa, log_n_over_kappa):
        """The same agreement at random p in [1.5, 8], kappa and N/kappa in
        [10, 1e4]."""
        kappa = 10.0**log_kappa
        flux = kappa * 10.0**log_n_over_kappa
        q = _query(p, kappa, flux)
        assert qcrb_quadrature(q)[0] == pytest.approx(qcrb_power_law(p, kappa, flux), rel=1e-3)
        assert filter_mse_quadrature(q)[0] == pytest.approx(filter_mse_power_law(p, kappa, flux), rel=1e-3)

    def test_quadrature_flux_scaling(self):
        p, c = 3.0, 7.0
        base = qcrb_quadrature(_query(p, 1.0, 40.0))[0]
        scaled = qcrb_quadrature(_query(p, 1.0, c * 40.0))[0]
        assert scaled / base == pytest.approx(c ** (-(p - 1) / p), rel=1e-3)

    def test_filter_approaches_qcrb_near_one(self):
        ratio = filter_mse_power_law(1.01, 1.0, 25.0) / qcrb_power_law(1.01, 1.0, 25.0)
        assert 1.0 <= ratio <= 1.05

    def test_error_estimate_reported(self):
        value, err = qcrb_quadrature(_query(2, 1.0, 25.0))
        assert err < 1e-4 * value

    def test_damped_spectrum_bound_finite_without_flux(self):
        # fully damped spectrum is integrable, so N = 0 gives the prior variance
        q = BoundQuery(PhaseModel(4, 1.0, (1.0, 0.6)), 0.0)
        from oracles import autocovariance

        assert smoother_mse_quadrature(q)[0] == pytest.approx(autocovariance(q.spectrum, 0.0), rel=1e-4)

    def test_damped_spectrum_against_dense_grid_oracle(self):
        """Oracle: trapezoid rule on a dense log grid of the integrands."""
        from phasetrack.phase_process import spectrum

        model = PhaseModel(4, 1.0, (1.0, 0.6))
        flux = 25.0
        q = BoundQuery(model, flux)
        w = np.logspace(-8, 8, 40001)
        s = spectrum(model, w)
        recip = np.trapezoid(1.0 / (1.0 / s + 4 * flux), w) / np.pi
        s_n = 1.0 / (4 * flux)
        logint = np.trapezoid(s_n * np.log1p(s / s_n), w) / np.pi
        assert qcrb_quadrature(q)[0] == pytest.approx(recip, rel=1e-3)
        assert filter_mse_quadrature(q)[0] == pytest.approx(logint, rel=1e-3)
        assert filter_mse_quadrature(q)[0] > qcrb_quadrature(q)[0]


def _abc_mse_oracle(kappa: float, chi: float, lam: float, n_nodes: int = 400, span: float = 40.0) -> float:
    """Double integral of the windowed phase-difference correlation plus the
    measurement term, evaluated at chi = 1 where all prefactor conventions
    coincide."""
    assert chi == 1.0
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    s = 0.5 * span * (x + 1.0)
    ws = 0.5 * span * w
    s1 = s[:, None]
    s2 = s[None, :]
    corr = (kappa**3 / (2 * lam**3)) * (
        np.exp(-lam * s1)
        + np.exp(-lam * s2)
        - np.exp(-lam * np.abs(s1 - s2))
        - 1.0
        + 2.0 * lam * np.minimum(s1, s2)
    )
    kernel = np.exp(-chi * (s1 + s2)) * corr
    phase_term = float(ws @ kernel @ ws)
    return phase_term + 1.0 / (2.0 * chi)


class TestAbcLinearizedMse:
    def test_value_against_double_integral_oracle(self):
        oracle = _abc_mse_oracle(1.0, 1.0, 1.0)
        assert oracle == pytest.approx(0.75, rel=1e-8)
        assert abc_linearized_mse(1.0, 1.0, 1.0) == pytest.approx(oracle, rel=1e-8)

    def test_large_cutoff_limit(self):
        chi = 2.0
        assert abc_linearized_mse(1.0, chi, 1e9) == pytest.approx(1.0 / (2 * chi), rel=1e-6)

    def test_decreasing_in_cutoff(self):
        vals = [abc_linearized_mse(1.0, 2.0, lam) for lam in (0.1, 0.5, 1.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_divergent_without_cutoff(self):
        with pytest.raises(NumericalError, match="estimator-mse-divergent"):
            abc_linearized_mse(1.0, 1.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            abc_linearized_mse(0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            abc_linearized_mse(1.0, -1.0, 1.0)
        with pytest.raises(ValidationError):
            abc_linearized_mse(1.0, 1.0, -0.5)


class TestTabulatedSpectrum:
    def test_power_law_table_matches_closed_form(self, tmp_path):
        path = tmp_path / "spec.csv"
        w = np.logspace(-4, 4, 161)
        lines = ["omega,density"] + [f"{wi},{1.0 / wi**2}" for wi in w]
        path.write_text("\n".join(lines) + "\n")
        density = tabulated_spectrum(path)
        q = BoundQuery(density, 10.0)
        assert qcrb_quadrature(q)[0] == pytest.approx(qcrb_power_law(2, 1.0, 10.0), rel=5e-3)
        assert filter_mse_quadrature(q)[0] == pytest.approx(filter_mse_power_law(2, 1.0, 10.0), rel=5e-3)

    def test_rejects_bad_tables(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("omega,density\n1.0,1.0\n")
        with pytest.raises(ValidationError):
            tabulated_spectrum(path)  # a single row defines no slope
        path.write_text("omega,density\n1.0,1.0\n1.0,2.0\n3.0,0.5\n")
        with pytest.raises(ValidationError):
            tabulated_spectrum(path)  # duplicate abscissa
        path.write_text("omega,density\n-1.0,1.0\n3.0,0.5\n")
        with pytest.raises(ValidationError):
            tabulated_spectrum(path)  # nonpositive frequency

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        knots=st.lists(
            st.tuples(st.floats(0.02, 1.0), st.floats(-2.0, 2.0)), min_size=1, max_size=16
        ),
        start=st.tuples(st.floats(-8.0, 0.0), st.floats(-10.0, 10.0)),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        beyond=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=4),
    )
    def test_matches_log_log_interp(self, tmp_path, knots, start, fractions, beyond):
        # log-omega steps of 0.02 to 1 e-fold and log-log slopes within +-2 keep
        # |log S| below 46, where one rounding of log S is 7e-15 relative in S
        lw, ls = [start[0]], [start[1]]
        for step, slope in knots:
            lw.append(lw[-1] + step)
            ls.append(ls[-1] + slope * step)
        omega_tab, density_tab = np.exp(lw), np.exp(ls)
        path = tmp_path / "table.csv"
        path.write_text("".join(f"{w!r},{d!r}\n" for w, d in zip(omega_tab.tolist(), density_tab.tolist())))
        density = tabulated_spectrum(path)
        interior = [
            omega_tab[j] * (omega_tab[j + 1] / omega_tab[j]) ** f
            for j in range(len(knots))
            for f in fractions
        ]
        edges = [omega_tab[0] * math.exp(-b) for b in beyond] + [omega_tab[-1] * math.exp(b) for b in beyond]
        points = np.array(omega_tab.tolist() + interior + edges)
        reference = tabulated_density_interp(omega_tab, density_tab, points)
        got = np.array([density(w) for w in points.tolist()])
        assert np.all(np.abs(got / reference - 1.0) <= 1e-14)

    def test_out_of_order_rows_are_sorted(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text("omega,density\n2.0,0.25\n1.0,1.0\n4.0,0.0625\n")
        density = tabulated_spectrum(path)
        assert density(2.0) == pytest.approx(0.25, rel=1e-12)


class TestBoundQuery:
    def test_noise_density_relation(self):
        q = _query(2, 1.0, 25.0)
        assert q.noise_density * 4 * q.photon_flux == pytest.approx(1.0, rel=1e-15)

    def test_rejects_negative_flux(self):
        with pytest.raises(ValidationError):
            BoundQuery(PhaseModel(2, 1.0), -1.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_non_finite_callable_is_a_numerical_error(self):
        q = BoundQuery(lambda w: math.nan if 2.0 < w < 3.0 else w**-2.0, 10.0)
        for quadrature in (qcrb_quadrature, filter_mse_quadrature):
            with pytest.raises(NumericalError, match="bound-not-finite"):
                quadrature(q)
