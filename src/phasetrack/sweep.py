"""Parameter sweeps over photon flux: run estimator ensembles per grid point
and persist tidy CSV rows alongside the analytic predictions.

The sweep spec is a flat INI file (section [sweep], key = value). The grid is
given in units of (N/kappa)^((p-1)/p), the natural abscissa on which every
exponent's asymptotic MSE is the same power of the grid value. Other
sections, [DEFAULT] keys, unknown keys, malformed values, and a dt_factor
above 0.01 or burn_in_factor below 20 (the limits each run checks) are
rejected when the spec is parsed, before any output is written.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import filter_mse_power_law, qcrb_power_law
from .errors import NumericalError, ValidationError
from .lg import build_lg_system, lg_filter_mse
from .phase_process import PhaseModel
from .simulation import _MAX_DT_FACTOR, _MIN_BURN_IN_FACTOR, default_config, run_abc_trials, simulate_filter_trials

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
_SPEC_KEYS = frozenset({
    "p", "kappa", "grid", *_LOG_GRID_KEYS, "estimators", "trials", "seed", "linearized",
    "abc_chi", "abc_cutoff", "dt_factor", "duration_factor", "burn_in_factor", "wrap_errors",
})
_FINITE_COLUMNS = ("mse", "stderr", "lg_filter_mse", "qcrb", "wiener_filter_mse")


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep description."""

    p_values: tuple[int, ...]
    kappa: float
    grid: tuple[float, ...]  # values of (N/kappa)^((p-1)/p)
    estimators: tuple[str, ...]
    trials: int
    seed: int
    linearized: bool = False
    abc_chi: Optional[float] = None
    abc_cutoff: Optional[float] = None
    dt_factor: float = 0.01
    duration_factor: float = 1000.0
    burn_in_factor: float = 20.0
    wrap_errors: bool = False

    def __post_init__(self):
        if not self.p_values:
            raise ValidationError("sweep spec field 'p' must list at least one even exponent")
        for p in self.p_values:
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


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ValidationError(f"sweep spec is missing required field '{key}'")
        return default
    try:
        raw = section[key].strip()
    except configparser.Error as exc:  # e.g. a lone '%' under interpolation
        raise ValidationError(f"sweep spec field '{key}' is invalid: {exc}") from exc
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"sweep spec field '{key}' is invalid: {raw!r}") from exc


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _words(raw: str) -> tuple[str, ...]:
    return tuple(tok for tok in raw.replace(",", " ").split())


def _bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


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
    unknown = sorted(set(sec) - _SPEC_KEYS)
    if unknown:
        raise ValidationError(f"sweep spec has unknown field {', '.join(map(repr, unknown))}")

    if "grid" in sec:
        both = [key for key in _LOG_GRID_KEYS if key in sec]
        if both:
            raise ValidationError(f"sweep spec field 'grid' excludes '{both[0]}'")
        grid = _get(sec, "grid", _floats, required=True)
    else:
        gmin = _get(sec, "grid_min", float, required=True)
        gmax = _get(sec, "grid_max", float, required=True)
        gnum = _get(sec, "grid_points", int, required=True)
        if not (gnum >= 1 and 0 < gmin <= gmax < math.inf):
            raise ValidationError("sweep spec fields 'grid_min'/'grid_max'/'grid_points' are inconsistent")
        grid = tuple(np.logspace(math.log10(gmin), math.log10(gmax), gnum))

    return SweepSpec(
        p_values=_get(sec, "p", _ints, required=True),
        kappa=_get(sec, "kappa", float, default=1.0),
        grid=grid,
        estimators=_get(sec, "estimators", _words, required=True),
        trials=_get(sec, "trials", int, default=64),
        seed=_get(sec, "seed", int, required=True),
        linearized=_get(sec, "linearized", _bool, default=False),
        abc_chi=_get(sec, "abc_chi", float),
        abc_cutoff=_get(sec, "abc_cutoff", float),
        dt_factor=_get(sec, "dt_factor", float, default=0.01),
        duration_factor=_get(sec, "duration_factor", float, default=1000.0),
        burn_in_factor=_get(sec, "burn_in_factor", float, default=20.0),
        wrap_errors=_get(sec, "wrap_errors", _bool, default=False),
    )


def derive_seed(*parts: int) -> int:
    """Collapse (master seed, indices...) into one reproducible integer seed."""
    state = np.random.SeedSequence(list(parts)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _abc_setup(
    p: int, kappa: float, mu: float, chi: Optional[float], cutoff: Optional[float]
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
        chi = math.sqrt(mu)
    dampings = () if cutoff is None else (cutoff,) + (0.0,) * (p // 2 - 1)
    return PhaseModel(p, kappa, dampings), chi


def _point_rows(spec: SweepSpec, p_idx: int, g_idx: int) -> list[dict]:
    """All estimator rows for one (p, grid) sweep point."""
    p = spec.p_values[p_idx]
    grid_val = spec.grid[g_idx]
    n_over_kappa = grid_val ** (p / (p - 1.0))
    flux = spec.kappa * n_over_kappa
    system = build_lg_system(p, spec.kappa, flux)
    analytic = {
        "lg_filter_mse": lg_filter_mse(system),
        "qcrb": qcrb_power_law(p, spec.kappa, flux),
        "wiener_filter_mse": filter_mse_power_law(p, spec.kappa, flux),
    }

    def base_row(estimator, mse, stderr, config):
        return {
            "p": p,
            "N_over_kappa": n_over_kappa,
            "estimator": estimator,
            "mse": mse,
            "stderr": stderr,
            "n_trials": spec.trials,
            "dt": config.dt,
            "duration": config.duration,
            "seed": spec.seed,
            **analytic,
        }

    def point_config(kind: int):
        return default_config(
            system,
            seed=derive_seed(spec.seed, p_idx, g_idx, kind),
            duration_factor=spec.duration_factor,
            dt_factor=spec.dt_factor,
            burn_in_factor=spec.burn_in_factor,
            linearized=spec.linearized,
        )

    rows = []
    want_filter = "filter" in spec.estimators
    want_smoother = "smoother" in spec.estimators
    if want_filter or want_smoother:
        model = PhaseModel(p, spec.kappa)
        config = point_config(0)
        res = simulate_filter_trials(
            model, config, spec.trials, smoother=want_smoother, wrap_errors=spec.wrap_errors
        )
        if want_filter:
            rows.append(base_row("filter", res.filter_mse, res.filter_stderr, config))
        if want_smoother:
            rows.append(base_row("smoother", res.smoother_mse, res.smoother_stderr, config))

    if "abc" in spec.estimators:
        model, chi = _abc_setup(p, spec.kappa, system.mu, spec.abc_chi, spec.abc_cutoff)
        config = point_config(1)
        res = run_abc_trials(model, config, spec.trials, chi, wrap_errors=spec.wrap_errors)
        name = "abc:diverged" if res.diverged else "abc"
        rows.append(base_row(name, res.mse, res.stderr, config))
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
    p_idx, g_idx = zip(*itertools.product(range(len(spec.p_values)), range(len(spec.grid))))
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
