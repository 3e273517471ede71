"""Parameter sweeps over photon flux: run estimator ensembles per grid point
and persist tidy CSV rows alongside the analytic predictions.

The sweep spec is a flat INI file (section [sweep], key = value). The grid is
given in units of (N/kappa)^((p-1)/p), the natural abscissa on which every
exponent's asymptotic MSE is the same power of the grid value. Other
sections, [DEFAULT] keys, unknown keys, malformed values, and a dt_factor
above 0.01 or burn_in_factor below 20 (the limits each run checks) are
rejected when the spec is parsed. So is a spec with a (p, grid) point
whose photon flux or mu leaves the float range, or whose ABC run lacks
abc_chi: every run a point would make is built and passes the run's own
checks (grid limits, damping, interior window, memory) when the spec is
parsed, before any output is written. _point_rows then runs that plan.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

from .bounds import filter_mse_power_law, qcrb_power_law
from .errors import NumericalError, ValidationError
from .lg import build_lg_system, lg_filter_mse
from .phase_process import PhaseModel
from .simulation import _MAX_DT_FACTOR, _MIN_BURN_IN_FACTOR, _filter_kind, _run_system, default_config
from .simulation import run_abc_trials, simulate_filter_trials

__all__ = ["SweepSpec", "parse_sweep_spec", "run_sweep", "CSV_HEADER", "derive_seed"]

CSV_HEADER = [
    "p",
    "N_over_kappa",
    "estimator",
    "mse",
    "stderr",
    "n_trials",
    "dt",
    "duration",
    "seed",
    "lg_filter_mse",
    "qcrb",
    "wiener_filter_mse",
]

_KNOWN_ESTIMATORS = ("filter", "smoother", "abc")
_LOG_GRID_KEYS = ("grid_min", "grid_max", "grid_points")
_FINITE_COLUMNS = ("mse", "stderr", "lg_filter_mse", "qcrb", "wiener_filter_mse")


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep description; each field is the [sweep] key of the
    same name, and a field without a default is a required key."""

    p: tuple[int, ...]
    grid: tuple[float, ...]  # values of (N/kappa)^((p-1)/p)
    estimators: tuple[str, ...]
    seed: int
    kappa: float = 1.0
    trials: int = 64
    linearized: bool = False
    abc_chi: Optional[float] = None
    abc_cutoff: Optional[float] = None
    dt_factor: float = 0.01
    duration_factor: float = 1000.0
    burn_in_factor: float = 20.0
    wrap_errors: bool = False

    def __post_init__(self):
        if not self.p:
            raise ValidationError("sweep spec field 'p' must list at least one even exponent")
        for p in self.p:
            if p % 2 != 0 or p < 2:
                raise ValidationError(f"sweep spec field 'p' must hold even integers >= 2, got {p}")
        if not self.grid or not all(0 < g < math.inf for g in self.grid):
            raise ValidationError("sweep spec field 'grid' must list positive finite values")
        if not self.estimators:
            raise ValidationError("sweep spec field 'estimators' must not be empty")
        for est in self.estimators:
            if est not in _KNOWN_ESTIMATORS:
                raise ValidationError(
                    f"sweep spec field 'estimators' has unknown entry {est!r} "
                    f"(choose from {_KNOWN_ESTIMATORS})"
                )
        if self.trials < 2:
            raise ValidationError("sweep spec field 'trials' must be >= 2")
        if self.seed < 0:
            raise ValidationError("sweep spec field 'seed' must be >= 0")
        for name in ("kappa", "abc_chi", "abc_cutoff", "dt_factor", "duration_factor", "burn_in_factor"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValidationError(f"sweep spec field '{name}' must be positive and finite, got {value}")
        if self.dt_factor > _MAX_DT_FACTOR:
            raise ValidationError(f"sweep spec field 'dt_factor' must be <= {_MAX_DT_FACTOR}, got {self.dt_factor}")
        if self.burn_in_factor < _MIN_BURN_IN_FACTOR:
            raise ValidationError(
                f"sweep spec field 'burn_in_factor' must be >= {_MIN_BURN_IN_FACTOR:g}, got {self.burn_in_factor}"
            )
        for p_idx, g_idx in itertools.product(range(len(self.p)), range(len(self.grid))):
            _plan_point(self, p_idx, g_idx)


def _value(section, key):
    try:
        raw = section[key].strip()
    except configparser.Error as exc:  # e.g. a lone '%' under interpolation
        raise ValidationError(f"sweep spec field '{key}' is invalid: {exc}") from exc
    try:
        return _PARSERS[key](raw)
    except (ValueError, TypeError, KeyError) as exc:
        raise ValidationError(f"sweep spec field '{key}' is invalid: {raw!r}") from exc


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _words(raw: str) -> tuple[str, ...]:
    return tuple(tok for tok in raw.replace(",", " ").split())


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


# Parser of every [sweep] key: the SweepSpec fields, then the log-spaced grid
# form that stands in for 'grid'
_PARSERS = {
    "p": _ints, "grid": _floats, "estimators": _words, "seed": int, "kappa": float, "trials": int,
    "linearized": _bool, "abc_chi": float, "abc_cutoff": float, "dt_factor": float,
    "duration_factor": float, "burn_in_factor": float, "wrap_errors": _bool,
    "grid_min": float, "grid_max": float, "grid_points": int,
}


def parse_sweep_spec(path) -> SweepSpec:
    """Read and validate an INI sweep spec; errors name the offending field."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValidationError(f"malformed sweep spec file {path!r}: {exc}") from exc
    if not read:
        raise ValidationError(f"cannot read sweep spec file {path!r}")
    if "sweep" not in parser:
        raise ValidationError("sweep spec needs a [sweep] section")
    other = [f"section [{name}]" for name in parser.sections() if name != "sweep"]
    other += [f"field '{key}' under [DEFAULT]" for key in parser.defaults()]
    if other:
        raise ValidationError(f"sweep spec has {other[0]}; only [sweep] is read")
    sec = parser["sweep"]
    unknown = sorted(set(sec) - set(_PARSERS))
    if unknown:
        raise ValidationError(f"sweep spec has unknown field {', '.join(map(repr, unknown))}")

    values = {key: _value(sec, key) for key in sec}
    log_grid = [key for key in _LOG_GRID_KEYS if key in values]
    if "grid" in values and log_grid:
        raise ValidationError(f"sweep spec field 'grid' excludes '{log_grid[0]}'")
    if log_grid:
        missing = [key for key in _LOG_GRID_KEYS if key not in values]
        if missing:
            raise ValidationError(f"sweep spec is missing required field '{missing[0]}'")
        gmin, gmax, gnum = (values.pop(key) for key in _LOG_GRID_KEYS)
        if not (gnum >= 1 and 0 < gmin <= gmax < math.inf):
            raise ValidationError("sweep spec fields 'grid_min'/'grid_max'/'grid_points' are inconsistent")
        values["grid"] = tuple(np.logspace(math.log10(gmin), math.log10(gmax), gnum).tolist())
    missing = [f.name for f in fields(SweepSpec) if f.default is MISSING and f.name not in values]
    if missing:
        raise ValidationError(f"sweep spec is missing required field '{missing[0]}'")
    return SweepSpec(**values)


def derive_seed(*parts: int) -> int:
    """Collapse (master seed, indices...) into one reproducible integer seed."""
    state = np.random.SeedSequence(list(parts)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _abc_setup(
    p: int, kappa: float, flux: float, chi: Optional[float], cutoff: Optional[float]
) -> tuple[PhaseModel, float]:
    """Phase model and window rate of the exponential-window (ABC) estimator.

    A cutoff damps the first chain stage; without chi, p = 2 takes
    sqrt(mu), the known optimum for the random-walk phase, and any other p
    is rejected.
    """
    if chi is None:
        if p != 2:
            raise ValidationError(
                f"the ABC window rate is required for p={p}: "
                "set sweep spec field 'abc_chi' or simulate option --chi"
            )
        chi = math.sqrt(build_lg_system(p, kappa, flux).mu)
    dampings = () if cutoff is None else (cutoff,) + (0.0,) * (p // 2 - 1)
    return PhaseModel(p, kappa, dampings), chi


def _point_system(p: int, kappa: float, grid_val: float):
    """(N/kappa, N, linear-Gaussian system) of a sweep point; a
    ValidationError where N or mu = 4 N kappa^(p-1) leaves the float range."""
    try:
        n_over_kappa = grid_val ** (p / (p - 1.0))
    except OverflowError:
        n_over_kappa = math.inf
    flux = kappa * n_over_kappa
    if not 0 < flux < math.inf:
        raise ValidationError(f"photon flux N = kappa (N/kappa) leaves the float range, got {flux}")
    return n_over_kappa, flux, build_lg_system(p, kappa, flux)


def _plan_point(spec: SweepSpec, p_idx: int, g_idx: int):
    """Plan of one (p, grid) sweep point: (N/kappa, N, linear-Gaussian
    system, runs). A run is (estimators, model, config, chi): one filter
    run serves the filter and smoother rows (seed index 0, chi None), one
    ABC run the abc row (seed index 1). Each run passes the check that it
    makes itself before it allocates; an error names the spec fields that
    check reads beyond the run limits that SweepSpec checks alone."""
    p, grid_val = spec.p[p_idx], spec.grid[g_idx]
    at = f"at p={p}, grid={grid_val:.6g}"
    try:
        n_over_kappa, flux, system = _point_system(p, spec.kappa, grid_val)
    except ValidationError as exc:
        raise ValidationError(f"sweep spec fields 'p' and 'grid' {at}: {exc}") from exc
    runs = []
    filter_run = tuple(est for est in ("filter", "smoother") if est in spec.estimators)
    if filter_run:
        runs.append((filter_run, PhaseModel(p, spec.kappa), None))
    if "abc" in spec.estimators:
        runs.append((("abc",), *_abc_setup(p, spec.kappa, flux, spec.abc_chi, spec.abc_cutoff)))
    for i, (estimators, model, chi) in enumerate(runs):
        seed = derive_seed(spec.seed, p_idx, g_idx, int(chi is not None))
        config = default_config(
            model, flux, seed, spec.duration_factor, spec.dt_factor, spec.burn_in_factor, spec.linearized
        )
        kind = "abc" if chi is not None else _filter_kind("smoother" in estimators, spec.wrap_errors)
        try:  # dt_factor and burn_in_factor are within the run limits
            _run_system(model, config, kind, spec.trials)
        except ValidationError as exc:
            named = ("'trials', 'duration_factor' and 'abc_cutoff'" if model.is_damped
                     else "'trials' and 'duration_factor'")
            raise ValidationError(f"sweep spec fields {named} {at}: {exc}") from exc
        runs[i] = (estimators, model, config, chi)
    return n_over_kappa, flux, system, runs


def _point_rows(spec: SweepSpec, p_idx: int, g_idx: int) -> list[dict]:
    """All estimator rows for one (p, grid) sweep point: the runs of its plan."""
    n_over_kappa, flux, system, runs = _plan_point(spec, p_idx, g_idx)
    p = spec.p[p_idx]
    analytic = lg_filter_mse(system), qcrb_power_law(p, spec.kappa, flux), filter_mse_power_law(p, spec.kappa, flux)
    rows = []
    for estimators, model, config, chi in runs:
        if chi is None:
            res = simulate_filter_trials(
                model, config, spec.trials, smoother="smoother" in estimators, wrap_errors=spec.wrap_errors
            )
            stats = {"filter": ("filter", res.filter_mse, res.filter_stderr),
                     "smoother": ("smoother", res.smoother_mse, res.smoother_stderr)}
        else:
            res = run_abc_trials(model, config, spec.trials, chi, wrap_errors=spec.wrap_errors)
            stats = {"abc": ("abc:diverged" if res.diverged else "abc", res.mse, res.stderr)}
        for est in estimators:  # the CSV_HEADER columns in order
            values = (p, n_over_kappa, *stats[est], spec.trials, config.dt, config.duration, spec.seed, *analytic)
            rows.append(dict(zip(CSV_HEADER, values)))
    return rows


def run_sweep(spec: SweepSpec, output_path, workers: int = 1) -> list[dict]:
    """Execute every (p, grid) point and stream rows to CSV.

    Points are dispatched to a process pool of min(workers, points, CPUs)
    processes when that exceeds 1; rows are written in deterministic point
    order and flushed per point, so an interrupted sweep leaves a valid
    prefix of the full file. A row with a non-finite MSE, standard error or
    analytic value raises NumericalError before it is written.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    p_idx, g_idx = zip(*itertools.product(range(len(spec.p)), range(len(spec.grid))))
    points = ([spec] * len(p_idx), p_idx, g_idx)
    workers = min(workers, len(p_idx), os.cpu_count() or 1)
    all_rows: list[dict] = []
    with open(output_path, "w", newline="", encoding="utf-8") as fh, contextlib.ExitStack() as stack:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        fh.flush()
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            stack.callback(pool.shutdown, cancel_futures=True)  # a failure skips the points not started
            results = pool.map(_point_rows, *points, chunksize=1)
        else:
            results = map(_point_rows, *points)
        for rows in results:
            for row in rows:
                bad = [key for key in _FINITE_COLUMNS if not math.isfinite(row[key])]
                if bad:
                    raise NumericalError(
                        f"non-finite {', '.join(bad)} at p={row['p']}, "
                        f"N/kappa={row['N_over_kappa']:.6g}, estimator {row['estimator']}"
                    )
                writer.writerow(row)
            fh.flush()
            all_rows.extend(rows)
    return all_rows
