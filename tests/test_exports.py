"""Every exported name resolves: the package and each layer module. The
package exports only what the CLI, the sweep and the README use. The
functions the benchmark traces stay public, and the simulation entry points
keep the parameter names that the benchmark binds."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import phasetrack
from phasetrack import phase_process, simulation

LAYERS = ("phase_process", "lg", "bounds", "simulation", "sweep", "cli")

# perfbench/spans.py wraps only the functions a layer lists in __all__
TRACED = {
    "simulation": (
        "simulate_filter_trials", "run_abc_trials", "simulate_record", "run_abc", "mse_statistics", "windowed_mse",
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
