"""Every function the benchmark tracer probes still exists where it looks.

``fluxbench/spans.py`` wraps its targets by name, so renaming or deleting one
breaks a traced benchmark run (``--trace 1``) with a ``KeyError``.  This
resolves each probe the way ``Tracer.install`` does, without wrapping
anything.  The file is read with ``runpy``, which leaves no bytecode behind.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "fluxbench" / "spans.py"
PROBES = runpy.run_path(str(SPANS))["PROBES"]


@pytest.mark.parametrize(
    "module_name,path",
    [(probe[0], probe[1]) for probe in PROBES],
    ids=[f"{probe[0]}:{probe[1]}" for probe in PROBES],
)
def test_probe_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{module_name}.{path} is not defined there"
