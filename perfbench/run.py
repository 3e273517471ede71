"""phasetrack benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload smoother_p4_p8 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics from span wrappers (see ``spans.py``).
Human-readable lines come first, then an ``env`` line, and the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. ``attempted`` counts operations (the reference repetition
included); ``failed`` counts operations with an unexpected failure. Known
program defects (``workloads.KNOWN_DEFECTS``) count in failed_frac only.
See README.md in this directory for the workloads, bands and held-out seed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# wall_tail_s is the highest percentile with ten samples beyond it; with at
# least 21 operations that percentile is at or above the median.
MIN_TIMED = 21
MIN_TRACED = 3
HARD_STOP_S = 100.0  # keeps a run under the 180 s limit even when operations slow down
SETUP_PROBES = 5
# Operation times of the untraced run are scaled to a fixed machine speed:
# each is multiplied by KERNEL_REFERENCE_S over the time of _reference_kernel
# measured around it. The host this was tuned on swings by 20-50 % over tens of
# seconds, which a 15 s run cannot average out; the scaled times cancel that
# drift (README.md, "Calibration").
KERNEL_REFERENCE_S = 0.02

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]
_SPANS = [
    ("simulation.simulate_filter_trials", "self_s"),
    ("simulation.run_abc_trials", "self_s"),
    ("simulation.simulate_record", "self_s"),
    ("simulation.run_retrofilter_pass", "s"),
    ("simulation.combine_smoothed", "s"),
    ("simulation.mse_statistics", "s"),
    ("simulation.windowed_mse", "s"),
    ("lg.covariance_set", "calls"),
    ("lg.covariance_set", "s"),
    ("lg.solve_filter_covariance", "calls"),
    ("lg.solve_filter_covariance", "s"),
    ("phase_process.spectrum", "calls"),
    ("phase_process.spectrum", "s"),
    ("sweep.run_sweep", "self_s"),
    ("cli.main", "self_s"),
]
_QUADRATURES = ("bounds.qcrb_quadrature", "bounds.filter_mse_quadrature", "bounds.smoother_mse_quadrature")
PER_LAYER = [(f"{name}.{field}", "count" if field == "calls" else "s") for name, field in _SPANS] + [
    ("bounds.quadrature.calls", "count"),
    ("bounds.quadrature.s", "s"),
    ("bounds.quad_warnings", "count"),
    ("simulation.trial_steps", "count"),
    ("simulation.trial_steps_per_s", "1/s"),
    ("simulation.abc_held_frac", "frac"),
    ("simulation.alloc_peak_mb", "MB"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_frac", "frac"),
    ("checks.failed_frac", "frac"),
]

_PROBE = """
import sys, time
from pathlib import Path
sys.path[0:1] = [sys.argv[1], sys.argv[2]]
from perfbench import workloads
workload = workloads.make(sys.argv[3], smoke=sys.argv[4] == "1")
workload.prepare(int(sys.argv[5]), Path(sys.argv[6]))
print(repr(time.perf_counter()))
"""


def _setup_probe(name: str, seed: int, smoke: bool, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter until it has imported the
    package and generated the workload inputs, ready for the first operation.

    perf_counter is CLOCK_MONOTONIC, shared by parent and child on Linux.
    """
    workdir.mkdir()
    argv = [sys.executable, "-c", _PROBE, str(ROOT / "src"), str(ROOT), name, str(int(smoke)), str(seed), str(workdir)]
    start = perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - start


def _reference_kernel() -> float:
    """Seconds for a fixed pure-Python loop, about 20 ms on a 2.1 GHz Xeon."""
    start = perf_counter()
    acc = 0.0
    for i in range(250_000):
        acc += i * 0.5
    return perf_counter() - start


def _blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


class Session:
    """Runs operations of one workload and judges each against the first."""

    def __init__(self, workload, known_defects):
        self.workload = workload
        self.known = {check: defect for (name, check), defect in known_defects.items() if name == workload.name}
        self.reference = None
        self.ops = self.failed_ops = 0
        self.outputs = self.failed_outputs = 0
        self.known_seen: dict[str, str] = {}
        self.problems: dict[str, None] = {}  # insertion-ordered set of unexpected failures

    def run(self, tracer_mode=None):
        """One operation; returns (seconds, tracer or None, outcome), or None if it raised."""
        from perfbench import spans

        self.ops += 1
        try:
            if tracer_mode is None:
                start = perf_counter()
                result = self.workload.op()
                elapsed = perf_counter() - start
                tracer = None
            else:
                tracer, result, elapsed = spans.traced(self.workload.op, alloc=tracer_mode == "alloc")
            outcome = self.workload.collect(result)
        except Exception:
            traceback.print_exc()
            self.failed_ops += 1
            self.outputs += self.workload.outputs_per_op
            self.failed_outputs += self.workload.outputs_per_op
            self.problems["operation raised (traceback on stderr)"] = None
            return None
        self._judge(outcome)
        return elapsed, tracer, outcome

    def _judge(self, outcome) -> None:
        if self.reference is None:
            self.reference = outcome
        differs = outcome.digest != self.reference.digest
        unexpected = False
        for check in outcome.checks:
            self.outputs += 1
            problems = check.problems + (["bytes differ from the first repetition"] if differs else [])
            if not problems:
                continue
            self.failed_outputs += 1
            message = f"{check.id}: {'; '.join(problems)}"
            symptom, reason = self.known.get(check.id, (None, None))
            if symptom and all(problem.startswith(symptom) for problem in problems):
                self.known_seen.setdefault(check.id, f"{message} ({reason})")
            else:
                unexpected = True
                self.problems[message] = None
        if outcome.counters != self.reference.counters:
            unexpected = True
            self.problems[f"counters {outcome.counters} != first repetition {self.reference.counters}"] = None
        self.failed_ops += unexpected

    @property
    def failed_frac(self) -> float:
        return self.failed_outputs / self.outputs if self.outputs else 1.0


def _tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"maximum of only {n} operations: no percentile has ten samples beyond it"
    k = n - 11
    return ordered[k], f"p{100.0 * (k + 1) / n:.0f} of {n} operations, 10 samples beyond it"


def _timed_loop(session, seconds, min_count, modes, probe=None, probes=0):
    """Alternate the given modes until ``seconds`` of operations have run and
    every mode has ``min_count`` timed operations.

    Returns ({mode: [(seconds, tracer, outcome, scale)]}, [set-up probe
    seconds]), where ``scale`` is KERNEL_REFERENCE_S over the mean of the
    reference kernel times measured just before and just after the
    operation. The set-up probes run between operations, spread evenly over
    the window (at (2 i + 1) / (2 probes) of it), so they sample the
    machine's drift too; they are not scaled, because import time does not
    follow the kernel. Time spent in probes does not count toward
    ``seconds``.
    """
    samples = {mode: [] for mode in modes}
    due = [seconds * (2 * i + 1) / (2 * probes) for i in range(probes)]
    setup = []
    start = perf_counter()
    paused = 0.0
    before = _reference_kernel()

    def scale():
        nonlocal before
        after = _reference_kernel()
        factor = 2.0 * KERNEL_REFERENCE_S / (before + after)
        before = after
        return factor

    while True:
        busy = perf_counter() - start - paused
        if due and busy >= due[0]:
            due.pop(0)
            began = perf_counter()
            setup.append(probe())
            before = _reference_kernel()
            paused += perf_counter() - began
            continue
        if busy >= HARD_STOP_S or (busy >= seconds and all(len(s) >= min_count for s in samples.values())):
            break
        for mode in modes:
            got = session.run(mode)
            factor = scale()
            if got is not None:
                samples[mode].append(got + (factor,))
    setup += [probe() for _ in due]  # only when HARD_STOP_S cut the window short
    return samples, setup


def _span_metrics(traced, scaled_wall) -> tuple[dict, list[str]]:
    """Per-layer metrics as medians over the traced operations, plus the
    exact-count mismatches found between them. ``scaled_wall`` is the median
    kernel-scaled untraced time, the base of trial_steps_per_s as in the
    untraced run."""
    tracers = [sample[1] for sample in traced]
    outcome = traced[0][2]

    def median(fn):
        return statistics.median(fn(t) for t in tracers)

    values = {}
    for name, field in _SPANS:
        values[f"{name}.{field}"] = median(lambda t: t.span_stat(name, field))
    values["bounds.quadrature.calls"] = median(lambda t: sum(t.span_stat(q, "calls") for q in _QUADRATURES))
    values["bounds.quadrature.s"] = median(lambda t: sum(t.span_stat(q, "s") for q in _QUADRATURES))
    for counter in ("bounds.quad_warnings", "cli.output_bytes"):
        values[counter] = outcome.counters[counter]
    steps = tracers[0].counts.get("simulation.trial_steps", 0)
    values["simulation.trial_steps"] = steps
    values["simulation.trial_steps_per_s"] = steps / scaled_wall
    abc_steps = tracers[0].counts.get("simulation.abc_trial_steps", 0)
    held = tracers[0].counts.get("simulation.abc_indeterminate_steps", 0)
    values["simulation.abc_held_frac"] = held / abc_steps if abc_steps else 0.0

    mismatches = []
    exact = [({n: s[0] for n, s in t.stats.items()}, t.counts) for t in tracers]
    if any(e != exact[0] for e in exact):
        mismatches.append("span call counts or counters differ between traced operations")
    if steps != outcome.counters["simulation.trial_steps"]:
        mismatches.append(f"traced trial_steps {steps} != {outcome.counters['simulation.trial_steps']} from outputs")
    return values, mismatches


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            probes: int = SETUP_PROBES, min_timed: int = MIN_TIMED) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, report lines)."""
    from perfbench import workloads

    workload = workloads.make(name, smoke)
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload.prepare(seed, workdir)
        session = Session(workload, workloads.KNOWN_DEFECTS)
        session.run()  # reference repetition: warms caches, fixes the expected bytes
        if trace:
            samples, _ = _timed_loop(session, seconds, min(MIN_TRACED, min_timed), (None, "trace"))
            alloc = session.run("alloc")
        else:
            probe_dirs = (workdir / f"probe{i}" for i in range(probes))
            samples, setup = _timed_loop(session, seconds, min_timed, (None,),
                                         lambda: _setup_probe(name, seed, smoke, next(probe_dirs)), probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = [s[0] for s in samples[None]]
    lines = [f"workload {name} (seed {seed}, tracing {'on' if trace else 'off'}, closed loop, 1 client): {workload.why}"]
    metrics = {}
    mismatches = []
    if trace and samples["trace"] and wall:
        traced_wall = statistics.median(s[0] for s in samples["trace"])
        untraced_wall = statistics.median(wall)
        scaled_wall = statistics.median(s[0] * s[3] for s in samples[None])
        values, mismatches = _span_metrics(samples["trace"], scaled_wall)
        values["simulation.alloc_peak_mb"] = alloc[1].alloc_peak_bytes / 2**20 if alloc else 0.0
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        values["checks.failed_frac"] = session.failed_frac
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER}
        lines.append(f"  {len(samples['trace'])} traced and {len(wall)} untraced operations; medians per operation")
        lines += [f"  {key:<42} {values[key]:>14.6g} {unit}" for key, unit in PER_LAYER]
    elif not trace and wall:
        scaled = [s[0] * s[3] for s in samples[None]]
        speed = statistics.median(s[3] for s in samples[None])
        tail, tail_label = _tail(scaled)
        steps = session.reference.counters["simulation.trial_steps"]
        values = {
            "setup_s": statistics.median(setup) if setup else 0.0,
            "wall_s": statistics.median(scaled),
            "wall_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
        notes = {
            "setup_s": f"median of {len(setup)} fresh-interpreter set-ups (not scaled)",
            "wall_s": f"median of {len(wall)} operations (unscaled: {statistics.median(wall):.6g} s)",
            "wall_tail_s": tail_label,
            "peak_rss_mb": "ru_maxrss of this process",
        }
        lines.append(f"  operation times are scaled to a {KERNEL_REFERENCE_S * 1e3:g} ms reference kernel; "
                     f"median scale factor this run {speed:.4f}")
        lines += [f"  {key:<18} {values[key]:>12.6g} {unit:<4} {notes[key]}" for key, unit in END_TO_END]
        if steps:
            lines.append(f"  {'trial_steps_per_s':<18} {steps / values['wall_s']:>12.6g} 1/s  "
                         f"{steps} trial-steps per operation over wall_s")
    lines.append(f"  {'failed_frac':<18} {session.failed_frac:>12.6g}      "
                 f"{session.failed_outputs} of {session.outputs} checked outputs in {session.ops} operations")
    lines += [f"  known defect: {message}" for message in session.known_seen.values()]
    problems = list(session.problems) + mismatches
    lines += [f"  FAILED {message}" for message in problems]
    env = environment(seed)
    if trace and "trace.overhead_frac" in metrics:
        env["tracing_overhead_frac"] = metrics["trace.overhead_frac"]["value"]
    lines.append("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not problems and bool(metrics),
        "attempted": session.ops,
        "failed": session.failed_ops + (1 if mismatches else 0),
        "metrics": metrics,
    }
    return result, lines


def _run_all(args) -> int:
    """Each workload in a fresh interpreter, so peak RSS belongs to it."""
    from perfbench import workloads

    results = {}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=180)
        out = done.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        results[name] = json.loads(out[-1]) if done.returncode == 0 and out else {"correct": False, "exit": done.returncode}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()), "workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "phasetrack" / "__init__.py").is_file():
        print(f"error: no phasetrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)} or all")
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        del sys.path[0]  # keep this directory's modules importable only as perfbench.*
    sys.exit(main())
