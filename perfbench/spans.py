"""Span recorders wrapped around the public functions of each phasetrack module.

The tracer replaces, for the duration of one traced operation, every public
function of the layer modules with a wrapper named ``<layer>.<function>``.
The wrapper is installed under every name a phasetrack module binds the
function to (``phasetrack.bounds.spectrum`` as well as
``phasetrack.phase_process.spectrum``), so calls between modules are seen
too. Nothing in the package source is modified; ``uninstall`` restores the
original bindings.

Per span name the tracer keeps the call count, the inclusive time and the
self time (inclusive time minus the time covered by child spans). Spans run
strictly nested on one thread, so the children of a span never overlap and
their summed durations are the covered part of its interval.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import tracemalloc
from time import perf_counter

LAYERS = ("phase_process", "lg", "bounds", "simulation", "sweep", "cli")
_NAMESPACES = ("",) + tuple("." + layer for layer in LAYERS)


class Tracer:
    """Aggregated span statistics for the calls made while installed.

    With ``alloc=True`` the tracer also records the tracemalloc peak above
    the entry level of each outermost ``simulation`` span; tracemalloc must
    be running for that (see ``traced``).
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict[str, float] = {}
        self.alloc_peak_bytes = 0
        self._stack: list[list[float]] = []  # child time covered, per open span
        self._sim_depth = 0
        self._patched: list[tuple[object, str, object]] = []
        self._observers = {
            "simulation.simulate_filter_trials": _count_trial_steps("n_trials"),
            "simulation.run_abc_trials": _count_abc_trial_steps,
            "simulation.simulate_record": _count_trial_steps(None),
            "simulation.run_abc": _count_trial_steps(None),
        }

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def _wrap(self, name: str, fn):
        observer = self._observers.get(name)
        signature = inspect.signature(fn) if observer else None
        simulation = name.startswith("simulation.")

        @functools.wraps(fn)
        def span(*args, **kwargs):
            track = self.alloc and simulation and self._sim_depth == 0
            if simulation:
                self._sim_depth += 1
            if track:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if simulation:
                    self._sim_depth -= 1
                if track:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.alloc_peak_bytes = max(self.alloc_peak_bytes, peak)
            if observer:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observer(self, bound.arguments, result)
            return result

        return span

    def install(self) -> None:
        """Bind a span wrapper in place of every public layer function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module("phasetrack." + layer)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for suffix in _NAMESPACES:
            namespace = importlib.import_module("phasetrack" + suffix)
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(namespace, attr, wrappers[value])
                    self._patched.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patched):
            setattr(namespace, attr, value)
        self._patched.clear()

    def span_stat(self, name: str, field: str) -> float:
        """``calls``, ``s`` (inclusive) or ``self_s`` of one span name; 0 if never entered."""
        calls, total, self_time = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": total, "self_s": self_time}[field]


def _count_trial_steps(trials_arg):
    def observe(tracer, arguments, result):
        trials = arguments[trials_arg] if trials_arg else 1
        tracer.add("simulation.trial_steps", trials * arguments["config"].n_steps)

    return observe


def _count_abc_trial_steps(tracer, arguments, result):
    steps = arguments["n_trials"] * arguments["config"].n_steps
    tracer.add("simulation.trial_steps", steps)
    tracer.add("simulation.abc_trial_steps", steps)
    tracer.add("simulation.abc_indeterminate_steps", result.indeterminate_steps)


def traced(op, alloc: bool = False) -> tuple[Tracer, object, float]:
    """Run ``op()`` once under a fresh tracer; return (tracer, result, wall s)."""
    tracer = Tracer(alloc=alloc)
    if alloc:
        tracemalloc.start()
    tracer.install()
    try:
        start = perf_counter()
        result = op()
        elapsed = perf_counter() - start
    finally:
        tracer.uninstall()
        if alloc:
            tracemalloc.stop()
    return tracer, result, elapsed
