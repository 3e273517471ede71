"""Every exported name resolves: the package and each layer module. The
simulation entry points keep the parameter names that the benchmark binds."""

import importlib
import inspect

import pytest

import phasetrack
from phasetrack import simulation

LAYERS = ("phase_process", "lg", "bounds", "simulation", "sweep", "cli")


def _missing(module):
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_package_exports_resolve():
    assert phasetrack.__all__
    assert _missing(phasetrack) == []


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_exports_resolve(layer):
    module = importlib.import_module(f"phasetrack.{layer}")
    assert _missing(module) == []


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
