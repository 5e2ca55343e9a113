"""Fixtures shared across test modules."""

import copy
import json

import pytest

from fluxwalk.cli import bundled_scenarios
from fluxwalk.scenarios import run_scenario


@pytest.fixture(scope="session")
def bundled_run():
    """``bundled_run(name)``: the result of running bundled scenario ``name``
    unmodified, at its own seed and the default profile, as a deep copy that
    the caller may change.  Each scenario runs once per session, when first
    asked for; tests that count calls, mutate a scenario or go through the
    CLI run their own."""
    results = {}

    def run(name):
        if name not in results:
            results[name] = run_scenario(json.loads(bundled_scenarios()[name].read_text()))
        return copy.deepcopy(results[name])

    return run
