"""Bound values, quadrature-vs-closed-form agreement, and scaling laws."""

import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from oracles import tabulated_density_interp

from phasetrack import bounds
from phasetrack.bounds import (
    BoundQuery,
    _power_law_factor,
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

    @pytest.mark.parametrize(
        "p, kappa, flux",
        [(2.0, 1e-10, 1e300), (1.0016322596490606, 1.8976573441440942e270, 3.131609715724274e-214)],
        ids=["quotient-overflows", "quotient-underflows"],
    )
    def test_closed_forms_past_the_float_range_of_4n_over_kappa(self, p, kappa, flux):
        """Where 4N/kappa overflows or underflows, the closed forms are
        still ordinary floats, within 1e-12 of 50-digit values."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            mp_p = mpmath.mpf(p)
            factor = (4 * mpmath.mpf(flux) / mpmath.mpf(kappa)) ** (-(mp_p - 1) / mp_p)
            sine = mpmath.sin(mpmath.pi / mp_p)
            qcrb, wiener = float(factor / (mp_p * sine)), float(factor / sine)
        assert qcrb_power_law(p, kappa, flux) == pytest.approx(qcrb, rel=1e-12)
        assert filter_mse_power_law(p, kappa, flux) == pytest.approx(wiener, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(1.0, exclude_min=True, allow_infinity=False),
        kappa=st.floats(0.0, exclude_min=True, allow_infinity=False),
        flux=st.floats(0.0, exclude_min=True, allow_infinity=False),
    )
    def test_normal_quotient_keeps_the_direct_power(self, p, kappa, flux):
        """Wherever 4N/kappa is a normal float, the factor is the direct
        power of it, bit for bit, so the sweep's analytic columns keep their
        bytes."""
        ratio = 4.0 * flux / kappa
        assume(sys.float_info.min <= ratio < math.inf)
        assert _power_law_factor(p, kappa, flux) == ratio ** (-(p - 1.0) / p)

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

    def test_tiny_bounds_keep_their_relative_accuracy(self):
        """QUADPACK's tolerance is relative only, so a bound far below 1 (here
        2.5e-156 at N = 1e300, kappa = 1e-10) still meets its closed form,
        with an error estimate far below the value."""
        q = _query(2, 1e-10, 1e300)
        for quadrature, closed_form in ((qcrb_quadrature, qcrb_power_law), (filter_mse_quadrature, filter_mse_power_law)):
            value, err = quadrature(q)
            assert value == pytest.approx(closed_form(2, 1e-10, 1e300), rel=1e-8, abs=0.0)
            assert err <= 1e-8 * value

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
    @pytest.mark.parametrize(
        "kappa, lo, hi, rows",
        [(1.0, -4.0, 4.0, 161), (1e40, 18.0, 22.0, 81), (1e-40, -22.0, -18.0, 81)],
        ids=["within-1e15", "above-1e15", "below-1e-15"],
    )
    def test_power_law_table_matches_closed_form(self, tmp_path, kappa, lo, hi, rows):
        """A table kappa/w^2 at flux 10 crosses the floor at sqrt(40 kappa),
        also where every row lies beyond 1e15 or below 1e-15 rad/s."""
        path = tmp_path / "spec.csv"
        w = np.logspace(lo, hi, rows)
        lines = ["omega,density"] + [f"{wi},{kappa / wi**2}" for wi in w]
        path.write_text("\n".join(lines) + "\n")
        density = tabulated_spectrum(path)
        q = BoundQuery(density, 10.0)
        assert q._crossover == pytest.approx(math.sqrt(40.0 * kappa), rel=1e-12, abs=0.0)
        assert qcrb_quadrature(q)[0] == pytest.approx(qcrb_power_law(2, kappa, 10.0), rel=5e-3)
        assert filter_mse_quadrature(q)[0] == pytest.approx(filter_mse_power_law(2, kappa, 10.0), rel=5e-3)

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

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1.0,1.0\n", "needs at least two numeric rows"),
            ("1.0,1.0\nnan,2.0\n3.0,0.5\n", "must have finite omega and density"),
            ("1.0,1.0\n3.0,inf\n", "must have finite omega and density"),
            ("3.0,0.5\n-1.0,1.0\n", "must have positive omega and density"),
            ("1.0,1.0\n3.0,0.0\n", "must have positive omega and density"),
            ("3.0,0.5\n1.0,1.0\n1.0,2.0\n", "omega column must be strictly increasing"),
        ],
        ids=["one-row", "nan", "inf", "negative-omega", "zero-density", "duplicate-omega"],
    )
    def test_bad_table_errors_name_their_rule(self, tmp_path, body, message):
        """Each rule a table breaks has its own message; a header, comments,
        blank and malformed lines are skipped before any rule is checked."""
        path = tmp_path / "bad.csv"
        path.write_text("omega,density\n# a comment\n\n1.0\nnot,a number\n" + body)
        with pytest.raises(ValidationError, match=message):
            tabulated_spectrum(path)

    def test_table_rows_in_any_order(self, tmp_path):
        """Rows are sorted by omega before the table is built, so a shuffled
        file gives the same density, to the bit."""
        w = np.logspace(-2.0, 3.0, 41)
        rows = [f"{wi!r},{1.0 / (1.0 + wi**2)!r}" for wi in w.tolist()]
        ordered, shuffled = tmp_path / "ordered.csv", tmp_path / "shuffled.csv"
        ordered.write_text("\n".join(rows) + "\n")
        shuffled.write_text("\n".join(np.random.default_rng(1).permutation(rows)) + "\n")
        points = np.logspace(-3.0, 4.0, 97)
        assert [tabulated_spectrum(ordered)(x) for x in points] == [tabulated_spectrum(shuffled)(x) for x in points]

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

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        p=st.floats(1.5, 8.0),
        log_flux=st.floats(-2.0, 8.0),
        decades_below=st.floats(2.0, 6.0),
        decades_above=st.floats(2.0, 6.0),
        per_decade=st.integers(5, 40),
    )
    def test_error_covers_the_closed_form(self, tmp_path, p, log_flux, decades_below, decades_above, per_decade):
        """On an exact power-law table 1/w^p whose rows reach at least two
        decades past the crossover on each side, each quadrature lies within
        its own error estimate of the closed form."""
        flux = 10.0**log_flux
        centre = math.log10(4.0 * flux) / p  # the crossover, S = 1/(4N)
        n_rows = math.ceil((decades_below + decades_above) * per_decade) + 1
        omega = np.logspace(centre - decades_below, centre + decades_above, n_rows)
        path = tmp_path / "power_law.csv"
        path.write_text("".join(f"{w!r},{w**-p!r}\n" for w in omega.tolist()))
        q = BoundQuery(tabulated_spectrum(path), flux)
        for quadrature, closed in ((qcrb_quadrature, qcrb_power_law), (filter_mse_quadrature, filter_mse_power_law)):
            value, err = quadrature(q)
            assert abs(value - closed(p, 1.0, flux)) <= err, (quadrature.__name__, value, err)

    @pytest.mark.parametrize("flux", [0.0, 1e-9])
    def test_table_below_the_floor_everywhere(self, tmp_path, flux):
        """A table 1e-6 / (1 + (w/1e10)^4) that never crosses the floor is
        integrated around its own frequencies: both bounds are its prior
        variance 1e-6 * 1e10 / (2 sqrt 2)."""
        omega = np.logspace(6.0, 14.0, 201)
        path = tmp_path / "faint.csv"
        path.write_text("".join(f"{w!r},{1e-6 / (1.0 + (w / 1e10) ** 4)!r}\n" for w in omega.tolist()))
        q = BoundQuery(tabulated_spectrum(path), flux)
        for quadrature in (qcrb_quadrature, filter_mse_quadrature):
            assert quadrature(q)[0] == pytest.approx(1e4 / (2.0 * math.sqrt(2.0)), rel=5e-3)

    def test_gauss_legendre_literals(self):
        nodes = bounds._GAUSS_NODES
        for x, w in ((nodes[:8], bounds._GAUSS_WEIGHTS_8), (nodes[8:], bounds._GAUSS_WEIGHTS_4)):
            ref_x, ref_w = np.polynomial.legendre.leggauss(len(x))
            np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=4e-16)
            np.testing.assert_allclose(w, ref_w, rtol=0.0, atol=4e-16)

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

    @pytest.mark.parametrize("kappa", [1.0, 1e40, 1e-40], ids=["within-1e15", "above-1e15", "below-1e-15"])
    def test_power_law_callable_matches_closed_form(self, kappa):
        """A callable kappa/w^2 at flux 10 crosses the floor at sqrt(40 kappa),
        also beyond the probe grid's 1e+-15 rad/s, where the bracket widens
        until the density crosses; both quadratures then give the closed
        forms, whatever the size of the integrals."""
        q = BoundQuery(lambda w: kappa / w**2, 10.0)
        assert q._crossover == pytest.approx(math.sqrt(40.0 * kappa), rel=1e-12, abs=0.0)
        assert qcrb_quadrature(q)[0] == pytest.approx(qcrb_power_law(2, kappa, 10.0), rel=1e-8, abs=0.0)
        assert filter_mse_quadrature(q)[0] == pytest.approx(filter_mse_power_law(2, kappa, 10.0), rel=1e-8, abs=0.0)

    def test_callable_above_the_floor_at_every_frequency_is_divergent(self):
        q = BoundQuery(lambda w: 1.0, 10.0)
        with pytest.raises(NumericalError, match="bound-divergent"):
            qcrb_quadrature(q)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_non_finite_callable_is_a_numerical_error(self):
        q = BoundQuery(lambda w: math.nan if 2.0 < w < 3.0 else w**-2.0, 10.0)
        for quadrature in (qcrb_quadrature, filter_mse_quadrature):
            with pytest.raises(NumericalError, match="bound-not-finite"):
                quadrature(q)
