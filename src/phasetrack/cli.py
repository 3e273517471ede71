"""Command-line front end: bound tables, steady-state covariances, single
simulation records, and flux sweeps with CSV output.

Exit codes: 0 success, 2 invalid parameters or spec, a run too large for
memory, or a sweep worker that died, 3 numerical failure (divergent bound,
stalled iteration).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .bounds import (
    BoundQuery,
    filter_mse_power_law,
    filter_mse_quadrature,
    qcrb_power_law,
    qcrb_quadrature,
    smoother_mse_quadrature,
    tabulated_spectrum,
)
from .errors import NumericalError, ValidationError
from .lg import (
    retro_covariance,
    riccati_residual,
    smoother_covariance,
    smoother_covariance_closed_form,
    solve_filter_covariance,
)
from .phase_process import PhaseModel
from .simulation import default_config, run_abc, simulate_record
from .sweep import _abc_setup, parse_sweep_spec, run_sweep

__all__ = ["main"]

_CSV_BLOCK_ROWS = 1024  # record rows converted to Python floats at a time


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def cmd_bounds(args) -> int:
    if args.spectrum_file:
        density = tabulated_spectrum(args.spectrum_file)
        query = BoundQuery(density, args.flux)
    else:
        if args.p is None:
            raise ValidationError("bounds needs either --p or --spectrum-file")
        query = BoundQuery(PhaseModel(args.p, args.kappa), args.flux)
    # quadrature first: divergent inputs surface as a numerical failure
    quads = (qcrb_quadrature(query), filter_mse_quadrature(query), smoother_mse_quadrature(query))
    if args.spectrum_file:
        closed_forms = (None,) * 3
    else:
        law = (args.p, args.kappa, args.flux)
        closed_forms = (qcrb_power_law(*law), filter_mse_power_law(*law), qcrb_power_law(*law))
    rows = tuple(zip(("QCRB", "filter MSE", "smoother MSE"), quads, closed_forms))
    qcrb, filt = (quad[0] if closed is None else closed for _, quad, closed in rows[:2])
    ratio = filt / qcrb if qcrb > 0 else math.nan
    if not math.isfinite(ratio):  # a closed form or quadrature beyond the float range
        raise NumericalError(f"bound-not-finite: filter/QCRB = {filt} / {qcrb}")
    for label, (val, err), closed in rows:
        line = f"{label:<14}" + ("" if closed is None else f"{_fmt(closed):>14}")
        print(f"{line}   quadrature {_fmt(val)} +- {err:.2g}")
    print(f"{'filter/QCRB':<14}{_fmt(ratio):>14}")
    return 0


def _print_matrix(name: str, mat: np.ndarray) -> None:
    print(f"{name} =")
    for row in np.atleast_2d(mat):
        print("  [" + ", ".join(f"{v: .9g}" for v in row) + "]")


def cmd_riccati(args) -> int:
    vf = solve_filter_covariance(args.p)
    vr = retro_covariance(vf)
    vs = smoother_covariance(vf, vr)
    vs_closed = smoother_covariance_closed_form(args.p)
    _print_matrix("Vt_F (causal)", vf)
    _print_matrix("Vt_R (anticausal)", vr)
    _print_matrix("Vt_S (two-sided)", vs)
    print(f"recurrence residual = {riccati_residual(vf):.3e}")
    print(f"closed-form smoother deviation = {np.max(np.abs(vs - vs_closed)):.3e}")
    return 0


def _record_csv_blocks(record):
    """CSV text of the record's first trial, _CSV_BLOCK_ROWS rows at a time,
    each row ended by CRLF; absent paths read nan, and phi_f is the theta
    that a filter-mode record fed back.

    Each value is the repr of its Python float, the text csv.writer gives
    it. Columns become floats a block of rows at a time, so the rows never
    exist all at once. A path in two columns and the nan of absent paths
    are formatted once per block.
    """
    phi_f = record.theta if record.phi_abc is None else None
    paths = (record.t[None], record.phi, record.theta, record.y, phi_f, record.phi_s, record.phi_abc)
    unique = {id(a): a for a in paths}
    n_rows = len(record.t)
    for start in range(0, n_rows, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, n_rows)
        text = {
            key: ["nan"] * (stop - start) if a is None else list(map(repr, a[0, start:stop].tolist()))
            for key, a in unique.items()
        }
        yield "\r\n".join(map(",".join, zip(*(text[id(a)] for a in paths)))) + "\r\n"


def cmd_simulate(args) -> int:
    if not args.flux > 0:
        raise ValidationError("simulate needs --flux > 0")
    if args.estimator == "abc":
        model, chi = _abc_setup(args.p, args.kappa, args.flux, args.chi, args.cutoff)
    else:
        model = PhaseModel(args.p, args.kappa)
    config = default_config(
        model,
        args.flux,
        seed=args.seed,
        duration_factor=args.duration_factor,
        dt_factor=args.dt_factor,
        linearized=args.linearized,
    )
    if args.estimator == "abc":
        record = run_abc(model, config, chi)
    else:  # a filter record skips the backward pass
        record = simulate_record(model, config, smoother=args.estimator == "smoother")
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,phi,theta,y,phi_f,phi_s,phi_abc\r\n")
        fh.writelines(_record_csv_blocks(record))
    print(f"wrote {len(record.t)} steps to {args.output}")
    return 0


def cmd_sweep(args) -> int:
    spec = parse_sweep_spec(args.spec)
    rows = run_sweep(spec, args.output, workers=args.workers)
    print(f"wrote {len(rows)} rows to {args.output}")
    print(f"{'p':>3} {'grid':>10} {'estimator':>14} {'mse/lg_filter':>14}")
    for row in rows:
        grid_val = row["N_over_kappa"] ** ((row["p"] - 1.0) / row["p"])
        print(
            f"{row['p']:>3} {grid_val:>10.4g} {row['estimator']:>14} "
            f"{row['mse'] / row['lg_filter_mse']:>14.4g}"
        )
    return 0


@functools.cache  # parsing leaves the parser unchanged, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasetrack",
        description="Bounds, steady-state estimators, and adaptive homodyne simulations "
        "for a time-varying optical phase with power-law spectrum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="print QCRB, filter and smoother MSE for a spectrum")
    b.add_argument("--p", type=float, default=None, help="spectral exponent (> 1)")
    b.add_argument("--kappa", type=float, default=1.0, help="rate constant kappa (1/s)")
    b.add_argument("--flux", type=float, required=True, help="photon flux N (1/s)")
    b.add_argument("--spectrum-file", default=None, help="CSV of omega,density rows instead of --p")
    b.set_defaults(func=cmd_bounds)

    r = sub.add_parser("riccati", help="print the normalized steady-state covariances")
    r.add_argument("--p", type=int, required=True, help="even spectral exponent, 2..20")
    r.set_defaults(func=cmd_riccati)

    s = sub.add_parser("simulate", help="write one simulated record as CSV")
    s.add_argument("--p", type=int, required=True, help="even spectral exponent")
    s.add_argument("--kappa", type=float, default=1.0)
    s.add_argument("--flux", type=float, required=True)
    s.add_argument("--estimator", choices=("filter", "smoother", "abc"), default="filter")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--output", required=True)
    s.add_argument("--chi", type=float, default=None, help="window rate for estimator=abc")
    s.add_argument("--cutoff", type=float, default=None, help="low-frequency cutoff for estimator=abc")
    s.add_argument("--linearized", action="store_true")
    s.add_argument("--duration-factor", type=float, default=200.0)
    s.add_argument("--dt-factor", type=float, default=0.01)
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="run a flux sweep from an INI spec")
    w.add_argument("spec", help="sweep spec file")
    w.add_argument("--output", "-o", required=True, help="output CSV path")
    w.add_argument("--workers", type=int, default=1, help="process pool size for sweep points")
    w.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
