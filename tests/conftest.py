"""Shared fixtures."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


@pytest.fixture(scope="session")
def perfbench_tracer():
    """perfbench/tracer.py, loaded from its file without touching it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
