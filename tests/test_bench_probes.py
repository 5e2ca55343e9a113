"""Every function the benchmark tracer probes still exists where it looks.

``fluxbench/spans.py`` wraps its targets by name, so renaming or deleting one
breaks a traced benchmark run (``--trace 1``) with a ``KeyError``.  This
resolves each probe the way ``Tracer.install`` does, without wrapping
anything.  The file is read with ``runpy``, which leaves no bytecode behind.

``fluxbench/selftest.py`` also pins, in ``REBOUND``, the ``from .x import f``
copies that tracing must reach.  Each must still be bound in its module to a
probed module-level function.  ``REBOUND`` is read with ``ast``; nothing in
that file runs.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "fluxbench" / "spans.py"
PROBES = runpy.run_path(str(SPANS))["PROBES"]


def _rebound() -> list:
    """``REBOUND``: a set comprehension over ``{module: names}.items()``."""
    tree = ast.parse(SPANS.with_name("selftest.py").read_text())
    (comp,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["REBOUND"]
    ]
    table = ast.literal_eval(comp.generators[0].iter.func.value)
    return sorted((f"fluxwalk.{mod}", name) for mod, names in table.items() for name in names)


REBOUND = _rebound()


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


@pytest.mark.parametrize("module_name,name", REBOUND, ids=[f"{m}:{n}" for m, n in REBOUND])
def test_rebound_binding_is_a_probed_function(module_name, name):
    bound = vars(importlib.import_module(module_name)).get(name)
    assert bound is not None, f"{module_name} no longer binds {name}"
    probed = [
        getattr(importlib.import_module(module), path)
        for module, path, *_ in PROBES
        if "." not in path
    ]
    assert any(bound is fn for fn in probed), f"{module_name}.{name} is not a probed function"


def test_scalar_field_probes_fire_on_a_lead_network(monkeypatch):
    """Block assembly reads fields through the array lookups, but the
    benchmark's ``fields.Ray.locate``, ``fields.open_slots`` and
    ``fields.SiteMap.value`` metrics must still record work on the walk
    workloads: the scalar lookups keep serving lead synthesis and the walk
    actions on small states."""
    import json

    from fluxwalk import fields
    from fluxwalk.cli import bundled_scenarios
    from fluxwalk.scenarios import run_scenario

    targets = ((fields.Ray, "locate"), (fields.AdaptedProjection, "open_slots"), (fields.SiteMap, "value"))
    counts = {}
    for owner, attr in targets:
        key = f"{owner.__name__}.{attr}"
        counts[key] = 0

        def counting(*args, _key=key, _original=owner.__dict__[attr], **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    spec = json.loads(bundled_scenarios()["two_incoming_leads"].read_text())
    assert run_scenario(spec).ok
    assert all(counts.values()), counts


@pytest.mark.parametrize("name", ["cc_rpath", "cc_anomalous"])
def test_network_probes_fire_on_the_cc_scenarios(monkeypatch, name):
    """The benchmark's ``cc.CCUnitary.apply``, ``lattice.LatticeState.add``
    and ``flux.selfcheck`` metrics must still record work on the CC
    workload: the selfcheck sends its probes through the network actions and
    subtracts states, for a lone flux (``cc_rpath``) and for the stack of an
    anomalous draw (``cc_anomalous``), through the binding ``cc`` calls."""
    import json

    from fluxwalk import cc, lattice
    from fluxwalk.cli import bundled_scenarios
    from fluxwalk.scenarios import run_scenario

    counts = {}

    def counting(key, original):
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    for owner, attr in ((cc.CCUnitary, "apply"), (cc.CCUnitary, "apply_adjoint"), (lattice.LatticeState, "__add__")):
        monkeypatch.setattr(owner, attr, counting(f"{owner.__name__}.{attr}", owner.__dict__[attr]))
    selfcheck = cc.selfcheck_against_operator
    monkeypatch.setattr(cc, "selfcheck_against_operator", counting("selfcheck_against_operator", selfcheck))
    spec = json.loads(bundled_scenarios()[name].read_text())
    assert run_scenario(spec).ok
    assert all(counts.values()), counts
