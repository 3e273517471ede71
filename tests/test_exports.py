"""Every exported name resolves: the package and each layer module."""

import importlib

import pytest

import phasetrack

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
