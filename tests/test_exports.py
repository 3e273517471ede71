"""Every exported name resolves: the package and each layer module. The
package exports only what the CLI, the sweep and the README use, and the
README's library example runs. The functions the benchmark traces stay
public, the CLI reaches simulation through them alone, and the simulation
entry points keep the parameter names that the benchmark binds and take no
LgSystem. Importing the package loads no scipy module."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import phasetrack
from phasetrack import phase_process, simulation
from phasetrack.lg import LgSystem

LAYERS = ("phase_process", "lg", "bounds", "simulation", "sweep", "cli")

# perfbench/spans.py wraps only the functions a layer lists in __all__
TRACED = {
    "simulation": (
        "simulate_filter_trials", "run_abc_trials", "simulate_record", "run_abc",
    ),
    "lg": ("covariance_set", "solve_filter_covariance", "retro_covariance", "smoother_covariance", "scale_covariance"),
    "phase_process": ("spectrum",),
    "sweep": ("run_sweep",),
    "cli": ("main",),
}


def _missing(module):
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_package_exports_resolve():
    assert phasetrack.__all__
    assert _missing(phasetrack) == []


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_exports_resolve(layer):
    module = importlib.import_module(f"phasetrack.{layer}")
    assert _missing(module) == []


@pytest.mark.parametrize("layer", sorted(TRACED))
def test_traced_functions_stay_public(layer):
    module = importlib.import_module(f"phasetrack.{layer}")
    assert set(TRACED[layer]) <= set(module.__all__)


def test_package_binds_spectrum():
    """The tracer rebinds phasetrack.spectrum too, and checks it restores it."""
    assert phasetrack.spectrum is phase_process.spectrum


def _used_names() -> set[str]:
    """Identifiers in the code of cli.py and sweep.py, and the words in the
    README's code spans and blocks (a hyphen joins a CLI option's words)."""
    used = set()
    for name in ("cli.py", "sweep.py"):
        tree = ast.parse((Path(phasetrack.__file__).parent / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used.add(node.name)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for code in re.findall(r"```.*?```|`[^`]+`", readme, flags=re.S):
        used.update(re.findall(r"[A-Za-z_][\w-]*", code))
    return used


def test_package_exports_only_what_cli_sweep_or_readme_use():
    """Test oracles and internal building blocks stay out of the package API."""
    used = _used_names()
    assert [name for name in phasetrack.__all__ if name not in used] == []


@pytest.mark.parametrize(
    "name, params",
    [
        ("simulate_filter_trials", ("n_trials", "config")),
        ("run_abc_trials", ("n_trials", "config")),
        ("simulate_record", ("config",)),
        ("run_abc", ("config",)),
    ],
)
def test_step_counting_parameter_names(name, params):
    """perfbench/spans.py counts simulation.trial_steps by binding these
    entry points' arguments by name; a rename would silently zero it."""
    signature = inspect.signature(getattr(simulation, name))
    assert set(params) <= set(signature.parameters)


def test_abc_ensemble_result_keeps_the_held_count_the_benchmark_reads():
    """perfbench/spans.py reads result.indeterminate_steps from each
    run_abc_trials result for simulation.abc_held_frac: on a 2-trial
    ensemble at flux 0, where every trial-step holds, it is the integer
    count in the result's diagnostics."""
    config = simulation.HomodyneConfig(photon_flux=0.0, dt=0.01, duration=10.0, burn_in=1.0, seed=5)
    res = simulation.run_abc_trials(phase_process.PhaseModel(2, 1.0), config, 2, chi=2.0)
    assert res.indeterminate_steps == res.diagnostics["indeterminate_steps"] == 2 * config.n_steps
    assert isinstance(res.indeterminate_steps, int)


def test_simulation_functions_take_no_lg_system():
    """A run is stated by a PhaseModel plus a HomodyneConfig or the photon
    flux; each simulation function derives the linear-Gaussian system from
    those, so none takes one."""
    takes_system = []
    for name in simulation.__all__:
        obj = getattr(simulation, name)
        if inspect.isfunction(obj):
            hints = typing.get_type_hints(obj)
            takes_system += [f"{name}({arg})" for arg, hint in hints.items() if arg != "return" and hint is LgSystem]
    assert takes_system == []


_FOOTPRINT_PROBE = """
import contextlib, io, sys
import phasetrack, phasetrack.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
with contextlib.redirect_stdout(io.StringIO()):
    code = phasetrack.cli.main(["bounds", "--p", "4", "--flux", "100"])
print(code, sorted(m for m in ("scipy.signal", "scipy.stats") if m in sys.modules))
"""


def test_import_loads_no_scipy():
    """scipy is loaded on first use: importing the package and its CLI loads
    none of it, and a bounds quadrature loads scipy.integrate without the
    scipy.signal/scipy.stats import chain. Run in a fresh interpreter, since
    this test process has imported scipy already."""
    src = str(Path(phasetrack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE], capture_output=True, text=True, env=env, check=True, timeout=120
    ).stdout.splitlines()
    assert out == ["[]", "0 []"]


def test_simulation_calls_no_linalg():
    """The run path takes the smoother's constants from lg's closed forms, so
    simulation.py calls no np.linalg function and does not import the
    inverse-based smoother_covariance: float inverses lose digits with
    cond(Vt_F), about 9.3e7 at p = 20."""
    tree = ast.parse(Path(simulation.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(ast.unparse(node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            found += [name for name in names if "linalg" in name or name == "smoother_covariance"]
    assert found == []


def _simulation_callers(*names) -> dict:
    """The top-level functions and the methods (as Class.method) of
    simulation.py that call each of names."""
    tree = ast.parse(Path(simulation.__file__).read_text())
    callers = {name: set() for name in names}
    methods = [(f"{cls.name}.", f) for cls in tree.body if isinstance(cls, ast.ClassDef) for f in cls.body]
    for prefix, func in [("", f) for f in tree.body] + methods:
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in callers:
                    callers[node.func.id].add(prefix + func.name)
    return callers


def test_filter_set_up_has_one_home():
    """Records and ensembles share one filter set-up: in simulation.py the
    covariance solve, its scaling and the smoother weights are each called
    from exactly one function, so the two entry points cannot drift apart."""
    callers = _simulation_callers("solve_filter_covariance", "scale_covariance", "_smoothing_weights")
    assert {name: len(funcs) for name, funcs in callers.items()} == dict.fromkeys(callers, 1), callers


def test_run_check_has_one_home_per_loop():
    """Every run is checked by its loop's set-up: in simulation.py only the
    filter's and the exponential window's set-up homes call _run_system,
    and the entry points of each loop, records and ensembles, call its home."""
    assert _simulation_callers("_run_system") == {"_run_system": {"_run_filter_feedback", "_run_abc_feedback"}}
    assert _simulation_callers("_run_filter_feedback", "_run_abc_feedback") == {
        "_run_filter_feedback": {"simulate_record", "simulate_filter_trials"},
        "_run_abc_feedback": {"run_abc", "run_abc_trials"},
    }


def test_memory_declaration_is_read_where_runs_allocate():
    """The arrays a run holds at its peak are declared once, in
    _peak_arrays: _check_footprint sums the declaration, and only the sites
    that allocate a run's arrays read it, each for the shapes it allocates
    (the filter's set-up home for the noise buffers that _noise_draws
    makes, and each run's record or block driver for the rest). A buffer
    allocated elsewhere would bypass the estimate."""
    assert _simulation_callers("_peak_arrays") == {"_peak_arrays": {
        "_check_footprint", "_run_filter_feedback", "_error_blocks", "_BackwardPass.__init__", "_abc_blocks",
        "simulate_record", "run_abc",
    }}


def test_cli_imports_no_private_simulation_name():
    """The CLI builds every record through simulation's public entry
    points, the ones the benchmark traces."""
    tree = ast.parse((Path(phasetrack.__file__).parent / "cli.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "simulation"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_readme_library_example_runs(capsys):
    """The README's library example runs as written and prints its two
    lines, so the calls it documents stay valid."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"## Library example\s+```python\n(.*?)```", readme, flags=re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
