"""Command-line interface: outputs, exit codes, file formats, determinism."""

import csv
import itertools
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from phasetrack import bounds, cli, simulation as sim, sweep
from phasetrack.cli import main
from phasetrack.sweep import CSV_HEADER, parse_sweep_spec, run_sweep
from phasetrack.errors import ValidationError
from phasetrack.phase_process import PhaseModel


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_finite_or_numerical_failure(code, out, err):
    """bounds printed ten finite numbers (exit 0) or nothing (exit 3)."""
    if code == 3:
        assert err.startswith("numerical failure:") and out == ""
    else:
        assert code == 0, err
        values = [float(tok) for tok in out.split() if tok[0] in "0123456789-in"]  # labels start otherwise
        assert len(values) == 10 and all(math.isfinite(v) for v in values), out


class TestBounds:
    def test_p2_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--p", "2", "--kappa", "1", "--flux", "25")
        assert code == 0
        lines = {line.split()[0]: line for line in out.strip().splitlines()}
        assert "0.05" in lines["QCRB"]
        assert "0.1" in lines["filter"]
        assert "0.05" in lines["smoother"]

    def test_p4_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--p", "4", "--kappa", "1", "--flux", "25")
        assert code == 0
        ratio_line = [l for l in out.splitlines() if l.startswith("filter/QCRB")][0]
        assert float(ratio_line.split()[-1]) == pytest.approx(4.0, rel=1e-6)

    def test_spectrum_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        w = np.logspace(-4, 4, 161)
        path.write_text("omega,density\n" + "\n".join(f"{wi},{1 / wi**2}" for wi in w))
        code, out, _ = run_cli(capsys, "bounds", "--spectrum-file", str(path), "--flux", "10")
        assert code == 0
        qcrb_line = [l for l in out.splitlines() if l.startswith("QCRB")][0]
        value = float(qcrb_line.split()[2])
        closed = (4 * 10.0) ** (-0.5) / (2 * math.sin(math.pi / 2))
        assert value == pytest.approx(closed, rel=5e-3)

    def test_spectrum_file_searches_the_crossover_once(self, capsys, tmp_path, monkeypatch):
        """The three quadratures of one bounds query share one crossover
        search: the tabulated density is called as often as in one search
        plus the same command given the crossover for free, and the table
        printed is the same."""
        path = tmp_path / "spec.csv"
        w = np.logspace(-4, 4, 161)
        path.write_text("omega,density\n" + "\n".join(f"{wi},{1 / wi**2}" for wi in w))
        calls = []
        load = cli.tabulated_spectrum

        def counted_table(table_path):
            density = load(table_path)

            def counted(omega):
                calls.append(omega)
                return density(omega)

            return counted

        monkeypatch.setattr(cli, "tabulated_spectrum", counted_table)
        argv = ("bounds", "--spectrum-file", str(path), "--flux", "10")
        code, out, _ = run_cli(capsys, *argv)
        total = len(calls)
        calls.clear()
        w_star = bounds._crossover_frequency(bounds.BoundQuery(counted_table(path), 10.0))
        search = len(calls)
        calls.clear()
        monkeypatch.setattr(bounds, "_crossover_frequency", lambda q: w_star)
        free_code, free_out, _ = run_cli(capsys, *argv)
        assert code == free_code == 0 and out == free_out
        assert search > 0 and total == len(calls) + search

    @pytest.mark.parametrize("table", ["found-reproducer", "bench-two-pole"])
    def test_table_prints_no_warning(self, capsys, tmp_path, table):
        """Two-pole tables 1/((w^2 + a^2)(w^2 + b^2)) exit 0 and warn of
        nothing: 200 rows over [1e-3, 1e3] with a = 0.1, b = 2, and the
        561-row table of the analytic_tables benchmark at seed 11."""
        if table == "found-reproducer":
            a, b, flux = 0.1, 2.0, 10.0
            omega = np.logspace(-3.0, 3.0, 200)
        else:
            a = float(10.0 ** np.random.default_rng(11).uniform(-1.0, 1.0))
            b, flux = 5.0 * a, 1e4 * a**4
            omega = np.logspace(math.log10(a) - 6.0, math.log10(b) + 8.0, 561)
        density = 1.0 / ((omega**2 + a * a) * (omega**2 + b * b))
        path = tmp_path / "two_pole.csv"
        path.write_text("".join(f"{w!r},{s!r}\n" for w, s in zip(omega.tolist(), density.tolist())))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "bounds", "--spectrum-file", str(path), "--flux", repr(flux))
        assert code == 0 and err == "" and caught == [], (err, [str(w.message) for w in caught])
        assert len(out.splitlines()) == 4

    def test_validation_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--p", "0.5", "--flux", "25")
        assert code == 2
        assert "exponent-out-of-range" in err

    def test_divergent_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--p", "2", "--flux", "0")
        assert code == 3
        assert "bound-divergent" in err

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        p=st.floats(1.0, exclude_min=True, allow_infinity=False),
        kappa=st.floats(0.0, exclude_min=True, allow_infinity=False),
        flux=st.floats(0.0, allow_infinity=False),
    )
    def test_finite_input_prints_finite_values_or_exits_3(self, capsys, p, kappa, flux):
        """Over the whole finite range, a density, crossover or power beyond
        the float range is a numerical failure: bounds prints only finite
        values (exit 0) or nothing (exit 3), never a traceback."""
        _assert_finite_or_numerical_failure(*run_cli(capsys, "bounds", "--p", repr(p), "--kappa", repr(kappa), "--flux", repr(flux)))

    @pytest.mark.parametrize(
        "argv",
        [
            ("--p", "32", "--flux", "1"),
            ("--p", "2", "--flux", "1e300"),
            ("--p", "8", "--flux", "1e-300"),
            ("--p", "61.07516243728437", "--kappa", "3.586042066151352e-06", "--flux", "225927353.32633683"),
            ("--p", "1.0016322596490606", "--kappa", "1.8976573441440942e+270", "--flux", "3.131609715724274e-214"),
            ("--p", "1.0000000963921511", "--kappa", "2.46153074789355e-204", "--flux", "9.020859727418961e+281"),
        ],
        ids=["p32-underflow", "p2-overflow", "p8-low-flux", "crossover-underflow", "closed-form-0-power", "ratio-0-by-0"],
    )
    def test_float_range_reproducer_exits_0_or_3(self, capsys, argv):
        """Inputs that once raised out of a density, the crossover or a closed
        form. Each true bound is a finite float; exit 3 here comes from an
        intermediate (|omega|^p, 4N/kappa) leaving the float range, so a more
        careful evaluation may return exit 0, but never a traceback."""
        _assert_finite_or_numerical_failure(*run_cli(capsys, "bounds", *argv))

    @pytest.mark.parametrize(
        "rows",
        ["2.0,nan", "2.0,inf", "inf,0.25"],
        ids=["density-nan", "density-inf", "omega-inf"],
    )
    def test_non_finite_table_exits_2(self, capsys, tmp_path, rows):
        path = tmp_path / "spec.csv"
        path.write_text(f"omega,density\n1.0,1.0\n{rows}\n4.0,0.0625\n")
        code, out, err = run_cli(capsys, "bounds", "--spectrum-file", str(path), "--flux", "10")
        assert code == 2
        assert err.startswith("error:") and "finite" in err
        assert out == ""


class TestRiccati:
    def test_p4_matrix_and_residual(self, capsys):
        code, out, _ = run_cli(capsys, "riccati", "--p", "4")
        assert code == 0
        assert "1.41421356" in out
        residual = float([l for l in out.splitlines() if "residual" in l][0].split()[-1])
        assert residual < 1e-9

    def test_p6_phase_entry(self, capsys):
        code, out, _ = run_cli(capsys, "riccati", "--p", "6")
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("  [")]
        # causal block is printed first: its last row ends with the phase entry 2
        causal_last = rows[2]
        assert causal_last.strip().endswith("2]")

    def test_p2_smoother_half(self, capsys):
        code, out, _ = run_cli(capsys, "riccati", "--p", "2")
        assert code == 0
        idx = out.splitlines().index("Vt_S (two-sided) =")
        assert "0.5" in out.splitlines()[idx + 1]

    def test_range_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "riccati", "--p", "22")
        assert code == 2
        assert "conditioning-limit" in err


def test_commands_in_one_process_print_what_each_prints_alone(capsys, tmp_path):
    record = str(tmp_path / "r.csv")
    argvs = [
        ["riccati", "--p", "4"],
        ["bounds", "--p", "3", "--flux", "50"],
        ["simulate", "--p", "2", "--flux", "100", "--duration-factor", "20", "--output", record],
        ["riccati", "--p", "6"],
    ]
    alone = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    in_sequence = [run_cli(capsys, *argv) for argv in argvs]
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 0]


class TestSimulate:
    def test_deterministic_bytes(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "simulate", "--p", "2", "--kappa", "1", "--flux", "100",
            "--estimator", "smoother", "--seed", "7",
            "--duration-factor", "60",
        ]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("estimator", ["filter", "smoother", "abc"])
    def test_record_bytes_are_repr_of_each_value(self, capsys, tmp_path, monkeypatch, estimator):
        """The CSV holds repr(float) of every value, nan for absent paths and
        for phi_s outside the interior window. Every record comes from a
        public entry point."""
        records = []

        def keep(fn):
            def wrapped(*args, **kwargs):
                records.append(fn(*args, **kwargs))
                return records[-1]
            return wrapped

        for name in ("simulate_record", "run_abc"):
            monkeypatch.setattr(cli, name, keep(getattr(cli, name)))
        out = tmp_path / "rec.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--p", "2", "--flux", "100", "--estimator", estimator,
            "--seed", "4", "--duration-factor", "45", "--output", str(out),
        )
        assert code == 0
        (rec,) = records
        phi_f = None if estimator == "abc" else rec.theta  # the fed-back causal estimate
        paths = [rec.phi, rec.theta, rec.y, phi_f, rec.phi_s, rec.phi_abc]
        columns = [rec.t] + [np.full(len(rec.t), np.nan) if a is None else a[0] for a in paths]
        lines = ["t,phi,theta,y,phi_f,phi_s,phi_abc"]
        lines += [",".join(repr(float(v)) for v in values) for values in zip(*columns)]
        assert out.read_bytes() == "".join(line + "\r\n" for line in lines).encode()
        assert b",nan," in out.read_bytes()

    def test_smoother_column_interior_only(self, capsys, tmp_path):
        out = tmp_path / "rec.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--p", "2", "--flux", "100", "--estimator", "smoother",
            "--seed", "3", "--duration-factor", "60", "--output", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["phi_s"] == "nan"
        assert rows[-1]["phi_s"] == "nan"
        mid = rows[len(rows) // 2]
        assert mid["phi_s"] != "nan"
        assert mid["phi_abc"] == "nan"

    def test_record_header(self, capsys, tmp_path):
        out = tmp_path / "rec.csv"
        run_cli(
            capsys, "simulate", "--p", "2", "--flux", "100", "--seed", "1",
            "--duration-factor", "60", "--output", str(out),
        )
        header = out.read_text().splitlines()[0]
        assert header == "t,phi,theta,y,phi_f,phi_s,phi_abc"
        with open(out) as fh:
            assert {row["phi_s"] for row in csv.DictReader(fh)} == {"nan"}  # estimator filter

    def test_abc_default_chi_for_p2(self, capsys, tmp_path):
        out = tmp_path / "abc.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--p", "2", "--flux", "100", "--estimator", "abc",
            "--seed", "2", "--duration-factor", "60", "--output", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[10]["phi_abc"] != "nan"
        assert rows[10]["phi_f"] == "nan"

    def test_abc_requires_chi_for_p4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--p", "4", "--flux", "100", "--estimator", "abc",
            "--seed", "2", "--duration-factor", "60", "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--chi" in err

    def test_oversized_record_exits_2(self, capsys, tmp_path):
        # 1e15 steps: the first noise array asks for 8e15 bytes, beyond any
        # 47-bit address space, so the allocation fails at once
        code, _, err = run_cli(
            capsys, "simulate", "--p", "2", "--flux", "100", "--duration-factor", "1e13",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert err.startswith("error:") and "memory" in err

    @pytest.mark.parametrize("estimator", ["filter", "abc"])
    def test_empty_window_exits_2(self, capsys, tmp_path, estimator):
        """A duration that leaves no interior window after the burn-in fails
        the run's check for records of either loop, before the output opens;
        the message names the step count and the burn-in steps trimmed at
        each end."""
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--p", "2", "--flux", "100", "--estimator", estimator,
            "--duration-factor", "1e-6", "--output", str(out),
        )
        assert code == 2
        assert err.startswith("error:") and "window empty" in err
        assert "2000 burn-in steps at each end of 4000 steps" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value, field",
        [("--seed", "-1", "seed"), ("--duration-factor", "inf", "duration")],
    )
    def test_bad_seed_or_duration_exits_2(self, capsys, tmp_path, option, value, field):
        code, _, err = run_cli(
            capsys, "simulate", "--p", "2", "--flux", "100", option, value,
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert err.startswith("error:") and field in err

    def test_zero_flux_rejected(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--p", "2", "--flux", "0", "--seed", "1",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_unresolved_damping_message_prints_plain_floats(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--p", "4", "--flux", "100", "--estimator", "abc", "--chi", "2",
            "--cutoff", "1e9", "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "damping rates (1000000000.0, 0.0)" in err and "np." not in err


@pytest.mark.parametrize(
    "args, field",
    [
        (["bounds", "--p", "inf", "--flux", "10"], "p="),
        (["bounds", "--p", "2", "--kappa", "inf", "--flux", "10"], "kappa"),
        (["bounds", "--spectrum-file", "{two_pole}", "--flux", "nan"], "photon_flux"),
        (["simulate", "--p", "2", "--flux", "100", "--estimator", "abc", "--cutoff", "nan"], "dampings"),
        (["simulate", "--p", "2", "--flux", "100", "--estimator", "abc", "--chi", "inf"], "chi"),
        (["simulate", "--p", "2", "--kappa", "inf", "--flux", "100"], "kappa"),
        (["simulate", "--p", "2", "--kappa", "inf", "--flux", "100", "--estimator", "abc"], "kappa"),
        (["simulate", "--p", "2", "--flux", "inf"], "flux"),
        (["simulate", "--p", "3", "--flux", "100"], "p="),
        (["simulate", "--p", "3", "--flux", "100", "--estimator", "abc", "--chi", "1"], "p="),
    ],
    ids=[
        "p-inf", "kappa-inf", "flux-nan", "cutoff-nan", "chi-inf",
        "simulate-kappa-inf", "simulate-abc-kappa-inf", "simulate-flux-inf", "simulate-odd-p", "simulate-abc-odd-p",
    ],
)
def test_non_finite_parameter_exits_2(capsys, tmp_path, args, field):
    two_pole = tmp_path / "spec.csv"
    w = np.logspace(-3, 3, 61)
    two_pole.write_text("omega,density\n" + "\n".join(f"{wi},{1 / ((wi**2 + 1) * (wi**2 + 25))}" for wi in w))
    args = [a.format(two_pole=two_pole) for a in args]
    output = tmp_path / "x.csv"
    if args[0] == "simulate":
        args += ["--output", str(output)]
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert err.startswith("error:") and field in err
    assert out == ""
    assert not output.exists()


@pytest.mark.parametrize(
    "args, spec_fields",
    [
        (["simulate", "--p", "4", "--kappa", "1e300", "--flux", "1"], None),
        (["sweep"], {"p": "4", "kappa": "1e300"}),
        (["sweep"], {"p": "2", "grid": "1e300"}),
        (["sweep"], {"p": "2", "grid": None, "grid_min": "1e299", "grid_max": "1e300", "grid_points": "2"}),
    ],
    ids=["simulate-kappa-1e300", "sweep-kappa-1e300", "sweep-grid-1e300", "sweep-log-grid-1e300"],
)
def test_mu_outside_float_range_exits_2(capsys, tmp_path, args, spec_fields):
    """Finite inputs whose mu = 4 N kappa^(p-1), or whose N/kappa, leave the
    float range exit 2 before the output is opened, with no OverflowError;
    a sweep spec is rejected when it is parsed."""
    output = tmp_path / "x.csv"
    if spec_fields is None:
        args = args + ["--output", str(output)]
    else:
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, **{"grid": "10", "estimators": "filter", "trials": "2", **spec_fields})
        args = args + [str(spec), "-o", str(output)]
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert err.startswith("error:") and "float range" in err
    assert out == ""
    assert not output.exists()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ps=st.lists(st.sampled_from([2, 4, 6]), min_size=1, max_size=2, unique=True),
    grid=st.lists(st.floats(0.1, 1e4), min_size=1, max_size=2),
    estimators=st.sets(st.sampled_from(["filter", "smoother", "abc"]), min_size=1).map(sorted),
    chi=st.none() | st.floats(1e-3, 1e3).map(repr),
    cutoff=st.none() | st.floats(1e-3, 1e5).map(repr),
    dt_factor=st.floats(1e-4, 0.01).map(repr),
    duration_factor=st.floats(-3.0, -1.0).map(lambda e: repr(10.0**e)),
)
def test_abc_spec_rejected_at_parse_or_every_point_runs(
    tmp_path, ps, grid, estimators, chi, cutoff, dt_factor, duration_factor
):
    """A spec parses if and only if every run its points make passes the
    check that run makes before its loop starts: the filter run (a
    smoother run with smoother) and, with abc, the ABC run of each point,
    built here from default_config and _abc_setup. The durations reach
    down to runs whose interior window is empty; no loop runs."""
    spec = tmp_path / "sweep.ini"
    _write_spec(
        spec, p=" ".join(map(str, ps)), grid=" ".join(map(repr, grid)), estimators=" ".join(estimators),
        abc_chi=chi, abc_cutoff=cutoff, dt_factor=dt_factor, duration_factor=duration_factor,
    )
    try:
        parse_sweep_spec(spec)
        parses = True
    except ValidationError:
        parses = False
    try:
        for p, grid_val in itertools.product(ps, grid):
            flux = grid_val ** (p / (p - 1.0))
            runs = []
            if {"filter", "smoother"} & set(estimators):
                runs.append((PhaseModel(p, 1.0), "smoother" if "smoother" in estimators else "filter"))
            if "abc" in estimators:
                optional = [None if tok is None else float(tok) for tok in (chi, cutoff)]
                runs.append((sweep._abc_setup(p, 1.0, flux, *optional)[0], "abc"))
            for model, kind in runs:
                config = sim.default_config(
                    model, flux, seed=0, duration_factor=float(duration_factor), dt_factor=float(dt_factor)
                )
                sim._run_system(model, config, kind, 8)
        runs_pass = True
    except ValidationError:
        runs_pass = False
    assert parses == runs_pass


def _write_spec(path, **overrides):
    base = {
        "p": "2",
        "kappa": "1.0",
        "grid": "10 100",
        "estimators": "filter smoother",
        "trials": "8",
        "seed": "1234",
        "linearized": "true",
        "duration_factor": "200",
    }
    base.update(overrides)
    lines = ["[sweep]"] + [f"{k} = {v}" for k, v in base.items() if v is not None]
    path.write_text("\n".join(lines) + "\n")


_VALID_SPEC = {
    "p": "2",
    "kappa": "1.0",
    "grid": "10",
    "estimators": "filter",
    "trials": "4",
    "seed": "1",
    "linearized": "true",
    "abc_chi": "2.0",
    "abc_cutoff": "0.1",
    "dt_factor": "0.01",
    "duration_factor": "100",
    "burn_in_factor": "20",
    "wrap_errors": "false",
}
_LOG_GRID = {"grid": None, "grid_min": "10", "grid_max": "100", "grid_points": "2"}

_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_float_text = st.floats(allow_nan=True, allow_infinity=True).map(repr)  # never an int token
_not_positive = (st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])).map(repr) | _words


def _ints_below(bound):
    return st.integers(max_value=bound - 1).map(str) | _float_text | _words


_BOOL_WORDS = {"1", "true", "yes", "on", "0", "false", "no", "off"}
_not_bool = (st.integers().map(str) | _float_text | _words).filter(lambda tok: tok not in _BOOL_WORDS)

# every [sweep] field with tokens it must reject: non-numeric, nan, +-inf,
# 0 and -1 where those are invalid, and grid factors outside the run limits
_BAD_TOKENS = {
    **{key: _not_positive for key in (
        "kappa", "grid", "abc_chi", "abc_cutoff", "duration_factor", "grid_min", "grid_max",
    )},
    "dt_factor": _not_positive | st.floats(min_value=0.01, exclude_min=True).map(repr),
    "burn_in_factor": _not_positive | st.floats(min_value=0.0, max_value=20.0, exclude_max=True).map(repr),
    "p": _ints_below(2) | st.integers(min_value=1).map(lambda k: str(2 * k + 1)),
    "trials": _ints_below(2),
    "seed": _ints_below(0),
    "grid_points": _ints_below(1),
    "estimators": (_words | _float_text).filter(lambda tok: tok not in ("filter", "smoother", "abc")),
    "linearized": _not_bool,
    "wrap_errors": _not_bool,
}


class TestSweep:
    def test_rows_and_ratios(self, capsys, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec)
        out = tmp_path / "out.csv"
        code, stdout, _ = run_cli(capsys, "sweep", str(spec), "-o", str(out))
        assert code == 0
        with open(out) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == CSV_HEADER
            rows = list(reader)
        assert len(rows) == 4
        at_100 = {r["estimator"]: r for r in rows if float(r["N_over_kappa"]) == pytest.approx(1e4)}
        f_ratio = float(at_100["filter"]["mse"]) / float(at_100["filter"]["lg_filter_mse"])
        s_ratio = float(at_100["smoother"]["mse"]) / float(at_100["smoother"]["lg_filter_mse"])
        assert 0.9 < f_ratio < 1.1
        assert 0.4 < s_ratio < 0.6

    def test_oversized_sweep_exits_2(self, capsys, tmp_path):
        """A smoother keeps 2 n + 1 floats per trial and block of 1024 steps
        for its backward pass, so 1e15 steps fail the footprint check at
        parse time, before the output opens."""
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, grid="10", estimators="filter smoother", trials="2", duration_factor="1e13")
        code, _, err = run_cli(capsys, "sweep", str(spec), "-o", str(tmp_path / "o.csv"))
        assert code == 2
        assert err.startswith("error:") and "memory" in err
        assert not (tmp_path / "o.csv").exists()

    def test_long_filter_only_spec_parses(self, tmp_path):
        """A filter-only point keeps only block buffers, so its footprint
        does not grow with the run length and the spec is accepted. It is
        only parsed: running 1e15 steps would not end."""
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, grid="10", estimators="filter", trials="2", duration_factor="1e13")
        assert parse_sweep_spec(str(spec)).estimators == ("filter",)

    @pytest.mark.parametrize("wrap", [False, True], ids=["unwrapped", "wrapped"])
    def test_wrapped_smoother_spec_counts_its_path(self, tmp_path, monkeypatch, wrap):
        """A wrapped smoother keeps its partial smoothed error whole, an
        unwrapped one only per-block sums, and the spec is checked for the
        run it makes: with physical memory taken as 1 GiB, 64 trials of
        about 2.1e6 steps (a 1.1 GB path) fail the wrapped spec at parse time
        and pass the unwrapped one."""
        pages = {"SC_PHYS_PAGES": 2**18, "SC_PAGE_SIZE": 2**12}
        monkeypatch.setattr(sim.os, "sysconf", pages.__getitem__)
        spec = tmp_path / "sweep.ini"
        _write_spec(
            spec, grid="10", estimators="filter smoother", trials="64", duration_factor="21000",
            wrap_errors=str(wrap).lower(),
        )
        if wrap:
            with pytest.raises(ValidationError, match="memory"):
                parse_sweep_spec(str(spec))
        else:
            assert parse_sweep_spec(str(spec)).wrap_errors is False

    def test_analytic_columns_recomputable(self, capsys, tmp_path):
        from phasetrack.bounds import filter_mse_power_law, qcrb_power_law

        spec = tmp_path / "sweep.ini"
        _write_spec(spec, grid="10", estimators="filter")
        out = tmp_path / "out.csv"
        run_cli(capsys, "sweep", str(spec), "-o", str(out))
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        flux = float(row["N_over_kappa"]) * 1.0
        assert float(row["qcrb"]) == pytest.approx(qcrb_power_law(2, 1.0, flux), rel=1e-9)
        assert float(row["wiener_filter_mse"]) == pytest.approx(filter_mse_power_law(2, 1.0, flux), rel=1e-9)
        assert float(row["lg_filter_mse"]) == pytest.approx(filter_mse_power_law(2, 1.0, flux), rel=1e-9)

    def test_empty_estimators_named_in_error(self, capsys, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, estimators="")
        code, _, err = run_cli(capsys, "sweep", str(spec), "-o", str(tmp_path / "o.csv"))
        assert code == 2
        assert "estimators" in err

    def test_unknown_estimator_rejected(self, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, estimators="filter kalman")
        with pytest.raises(ValidationError, match="estimators"):
            parse_sweep_spec(spec)

    def test_missing_seed_rejected(self, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, seed=None)
        with pytest.raises(ValidationError, match="seed"):
            parse_sweep_spec(spec)

    @pytest.mark.parametrize(
        "key, value, field",
        [("seed", "-5", "'seed'"), ("duration_factor", "inf", "duration"), ("grid", "nan", "'grid'")],
    )
    def test_bad_seed_or_duration_exits_2(self, capsys, tmp_path, key, value, field):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, **{"grid": "10", "estimators": "filter", "trials": "2", key: value})
        code, _, err = run_cli(capsys, "sweep", str(spec), "-o", str(tmp_path / "o.csv"))
        assert code == 2
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize(
        "text, named",
        [
            ("p = 2\nseed = 1\n", "sweep.ini"),
            ("[sweep]\np = 2\n[sweep]\nseed = 1\n", "sweep.ini"),
            ("[sweep]\np = 2\np = 4\n", "sweep.ini"),
            ("[sweep]\np = 2%\ngrid = 10\nestimators = filter\nseed = 1\n", "field 'p'"),
        ],
        ids=["no-header", "repeated-section", "repeated-key", "lone-percent"],
    )
    def test_malformed_ini_exits_2(self, capsys, tmp_path, text, named):
        spec = tmp_path / "sweep.ini"
        spec.write_text(text)
        code, _, err = run_cli(capsys, "sweep", str(spec), "-o", str(tmp_path / "o.csv"))
        assert code == 2
        assert err.startswith("error:") and named in err
        with pytest.raises(ValidationError):
            parse_sweep_spec(spec)

    def test_log_grid_form(self, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, grid=None, grid_min="10", grid_max="1000", grid_points="3")
        parsed = parse_sweep_spec(spec)
        assert parsed.grid == pytest.approx((10.0, 100.0, 1000.0))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from(sorted(_BAD_TOKENS)).flatmap(lambda key: _BAD_TOKENS[key].map(lambda tok: (key, tok))))
    def test_malformed_field_named_at_parse(self, tmp_path, case):
        key, token = case
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, **{**_VALID_SPEC, **(_LOG_GRID if key.startswith("grid_") else {}), key: token})
        with pytest.raises(ValidationError) as err:
            parse_sweep_spec(spec)
        assert f"'{key}'" in str(err.value)

    @pytest.mark.parametrize(
        "fields, tail, named",
        [
            ({"trails": "2"}, "", "'trails'"),
            ({"wrap_error": "true"}, "", "'wrap_error'"),
            ({"grid": "30", "grid_points": "3"}, "", "'grid_points'"),
            ({"burn_in_factor": "inf"}, "", "'burn_in_factor'"),
            ({}, "[Sweep]\ntrials = 8\n", "[Sweep]"),
            ({}, "[DEFAULT]\ntrials = 8\n", "'trials' under [DEFAULT]"),
            ({"dt_factor": "0.02"}, "", "'dt_factor'"),
            ({"burn_in_factor": "10"}, "", "'burn_in_factor'"),
            ({"p": "2 4", "estimators": "filter abc"}, "", "'abc_chi'"),
            ({"grid": "30", "estimators": "filter abc", "abc_cutoff": "1e4"}, "", "'abc_cutoff'"),
            ({"duration_factor": "0.004"}, "", "'duration_factor'"),
        ],
        ids=[
            "unknown-trails", "unknown-wrap_error", "grid-with-grid_points", "burn_in_factor-inf",
            "other-section", "default-section-key", "dt_factor-0.02", "burn_in_factor-10",
            "abc-p4-without-abc_chi", "abc_cutoff-unresolved", "duration_factor-0.004",
        ],
    )
    def test_bad_spec_exits_2_before_output(self, capsys, tmp_path, fields, tail, named):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, **{"grid": "10", "estimators": "filter", "trials": "2", **fields})
        with open(spec, "a") as fh:
            fh.write(tail)
        out = tmp_path / "o.csv"
        code, stdout, err = run_cli(capsys, "sweep", str(spec), "-o", str(out))
        assert code == 2
        assert err.startswith("error:") and named in err
        assert stdout == ""
        assert not out.exists()

    def test_one_step_window_runs(self, capsys, tmp_path):
        """duration_factor 0.006 leaves an interior window of one step (0.004
        leaves none and is rejected at parse time), and the point runs."""
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, grid="10", estimators="filter", trials="2", duration_factor="0.006")
        code, _, err = run_cli(capsys, "sweep", str(spec), "-o", str(tmp_path / "o.csv"))
        assert code == 0, err
        assert len((tmp_path / "o.csv").read_text().splitlines()) == 2

    def test_rows_follow_the_derived_seeds(self, tmp_path):
        """A point's filter run, which gives its filter and smoother rows, is
        seeded derive_seed(seed, p_idx, g_idx, 0) and its ABC run index 1:
        each row's mse and stderr are those of the direct ensemble call
        with that seed, bit for bit, through the CSV."""
        spec = tmp_path / "sweep.ini"
        _write_spec(
            spec, p="2 4", grid="10 30", estimators="filter smoother abc", abc_chi="3.0", trials="4",
            duration_factor="50",
        )
        out = tmp_path / "o.csv"
        run_sweep(parse_sweep_spec(spec), out)
        with open(out) as fh:
            got = [(float(row["mse"]), float(row["stderr"])) for row in csv.DictReader(fh)]
        want = []
        for (p_idx, p), (g_idx, grid_val) in itertools.product(enumerate([2, 4]), enumerate([10.0, 30.0])):
            model, flux = PhaseModel(p, 1.0), grid_val ** (p / (p - 1.0))
            configs = [
                sim.default_config(
                    model, flux, seed=sweep.derive_seed(1234, p_idx, g_idx, index), duration_factor=50.0,
                    linearized=True,
                )
                for index in (0, 1)
            ]
            res = sim.simulate_filter_trials(model, configs[0], 4, smoother=True)
            abc = sim.run_abc_trials(model, configs[1], 4, 3.0)
            want += [
                (res.filter_mse, res.filter_stderr), (res.smoother_mse, res.smoother_stderr), (abc.mse, abc.stderr)
            ]
        assert got == want

    def test_unwritable_output(self, capsys, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, grid="10", estimators="filter")
        code, _, err = run_cli(capsys, "sweep", str(spec), "-o", str(tmp_path / "no_dir" / "o.csv"))
        assert code == 2

    def test_deterministic_bytes(self, capsys, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, grid="10", estimators="filter", trials="4", duration_factor="100")
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        run_cli(capsys, "sweep", str(spec), "-o", str(out1))
        run_cli(capsys, "sweep", str(spec), "-o", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_rejected(self, capsys, tmp_path, workers):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, grid="10", estimators="filter", trials="4", duration_factor="100")
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "sweep", str(spec), "-o", str(out), "--workers", workers)
        assert code == 2
        assert "workers" in err
        assert not out.exists()

    def test_run_sweep_rejects_zero_workers(self, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, grid="10", estimators="filter", trials="4", duration_factor="100")
        with pytest.raises(ValidationError, match="workers"):
            run_sweep(parse_sweep_spec(spec), tmp_path / "o.csv", workers=0)

    def test_worker_pool_matches_serial(self, capsys, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(
            spec, grid="10 30", estimators="filter smoother abc", abc_chi="3.0", trials="4", duration_factor="100"
        )
        out1, out2 = tmp_path / "serial.csv", tmp_path / "pool.csv"
        run_cli(capsys, "sweep", str(spec), "-o", str(out1))
        run_cli(capsys, "sweep", str(spec), "-o", str(out2), "--workers", "2")
        assert out1.read_bytes() == out2.read_bytes()

    def test_abc_divergence_flagged_in_rows(self, capsys, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(
            spec, p="4", grid="10", estimators="abc", trials="8",
            duration_factor="400", abc_chi="3.0", linearized="false",
        )
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "sweep", str(spec), "-o", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["estimator"] == "abc:diverged"

    def test_abc_with_cutoff_not_flagged(self, capsys, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(
            spec, p="4", grid="10", estimators="abc", trials="8",
            duration_factor="400", abc_chi="3.0", abc_cutoff="2.0", linearized="false",
        )
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "sweep", str(spec), "-o", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["estimator"] == "abc"

    def test_abc_chi_required_for_p4(self, capsys, tmp_path):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, p="4", grid="10", estimators="abc", trials="4")
        code, _, err = run_cli(capsys, "sweep", str(spec), "-o", str(tmp_path / "o.csv"))
        assert code == 2
        assert "abc_chi" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_finite_row_exits_3(self, capsys, tmp_path, monkeypatch, workers):
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, grid="10 30", estimators="filter abc", trials="4", duration_factor="100")
        clean = tmp_path / "clean.csv"
        assert run_cli(capsys, "sweep", str(spec), "-o", str(clean))[0] == 0

        real = sweep.run_abc_trials

        def nan_at_grid_30(model, config, *args, **kwargs):
            res = real(model, config, *args, **kwargs)
            if config.photon_flux > 500:  # N = 900 at grid 30, 100 at grid 10
                res.mse = math.nan
            return res

        monkeypatch.setattr(sweep, "run_abc_trials", nan_at_grid_30)
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", str(spec), "-o", str(out), "--workers", workers)
        assert code == 3
        assert "non-finite mse" in err and "abc" in err
        # header, both rows of the first point, the filter row of the second
        assert out.read_text().splitlines() == clean.read_text().splitlines()[:4]

    def test_dead_worker_exits_2(self, capfd, tmp_path, monkeypatch):
        """A worker that dies (os._exit, as after the out-of-memory killer's
        SIGKILL) while running the grid-30 point ends the sweep with exit 2
        and one error line that names the first point whose rows were lost:
        no traceback, and the CSV holds a prefix of the clean run's rows."""
        spec = tmp_path / "sweep.ini"
        _write_spec(spec, grid="10 30", estimators="filter", trials="4", duration_factor="100")
        clean = tmp_path / "clean.csv"
        assert run_cli(capfd, "sweep", str(spec), "-o", str(clean))[0] == 0
        real = sweep.simulate_filter_trials

        def dies_at_grid_30(model, config, *args, **kwargs):
            if config.photon_flux > 500:  # N = 900 at grid 30, 100 at grid 10
                os._exit(9)
            return real(model, config, *args, **kwargs)

        monkeypatch.setattr(sweep, "simulate_filter_trials", dies_at_grid_30)
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(capfd, "sweep", str(spec), "-o", str(out), "--workers", "2")
        assert code == 2 and stdout == ""
        assert "Traceback" not in err and len(err.splitlines()) == 1
        lines = out.read_text().splitlines()
        assert lines == clean.read_text().splitlines()[: len(lines)]
        lost = ("grid=10", "grid=30")[len(lines) - 1]  # one row per point after the header
        assert err.startswith("error: ") and "worker" in err and f"p=2, {lost} " in err
