"""Single mutations of valid scenarios end in a ``ValidationError`` or a report.

The specs are the bundled scenarios and one seed-3 batch of each benchmark
workload (``fluxbench/workloads.py``, read with ``runpy``, which writes no
bytecode next to it), each cut to its ``index`` analysis or, without one,
its first.  Each example applies one mutation at one key or list entry:
rename, drop or retype it, put a bool or a float where a number is, negate
a number, put ``NaN`` or ``inf`` there, nest the value in a list, or drop
the last coordinate of an integer site.  ``run_scenario`` must then raise
``ValidationError`` or return a report in which no analysis recorded an
internal error, and a renamed key never leaves a valid scenario.

Two table-driven tests put a bad value at each key of each analysis type in
``scenarios.ARGUMENTS`` and at each key of each part type in
``scenarios.PARTS``, and require ``validate_scenario`` to raise and name it;
every bundled scenario and benchmark spec must still validate whole.
"""

import copy
import functools
import json
import math
import re
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxwalk.scenarios as scenarios_module
from fluxwalk.cc import DualPath
from fluxwalk.cli import bundled_scenarios
from fluxwalk.errors import ValidationError
from fluxwalk.config import STEPS_MOST
from fluxwalk.scenarios import ANALYSES, ARGUMENTS, PARTS, _steps, run_scenario, validate_scenario


def cut(spec: dict) -> dict:
    """The spec with only its ``index`` analysis, or its first one."""
    index = [a for a in spec["analyses"] if a["type"] == "index"]
    return {**spec, "analyses": [index[0] if index else spec["analyses"][0]]}


@functools.cache
def full_specs() -> tuple:
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "fluxbench" / "workloads.py"))
    bench = [job.spec for name in workloads["WORKLOADS"] for job in workloads["generate"](name, 3, 1)]
    bundled = [json.loads(path.read_text()) for path in bundled_scenarios().values()]
    return tuple(json.dumps(spec) for spec in (*bundled, *bench))


@functools.cache
def specs() -> tuple:
    return tuple(json.dumps(cut(json.loads(spec))) for spec in full_specs())


def test_every_bundled_and_bench_spec_validates_whole():
    # the bounds on steps, draws, reroutes, leads and epsilons admit every
    # analysis of the bundled scenarios and of a benchmark batch
    for spec in full_specs():
        validate_scenario(json.loads(spec))


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# mutation: (whether it applies to a value in its container, the new value,
# or None to drop the key or entry)
MUTATIONS = {
    "rename": (lambda parent, v: isinstance(parent, dict), None),
    "drop": (lambda parent, v: True, None),
    "retype": (lambda parent, v: True, lambda v: 7 if isinstance(v, str) else "x"),
    "bool": (lambda parent, v: True, lambda v: True),
    "float": (lambda parent, v: True, lambda v: v + 0.5 if is_number(v) else 0.5),
    "negate": (lambda parent, v: is_number(v), lambda v: -v if v else -1),
    "nan": (lambda parent, v: True, lambda v: math.nan),
    "inf": (lambda parent, v: True, lambda v: -math.inf if is_number(v) and v < 0 else math.inf),
    "nest": (lambda parent, v: True, lambda v: [v]),
    "coordinate": (
        lambda parent, v: isinstance(v, list) and v and all(isinstance(c, int) and not isinstance(c, bool) for c in v),
        lambda v: v[:-1],
    ),
}


@st.composite
def mutated_specs(draw):
    """A spec, a key or list entry reached by descending from the top, one
    level at a time, so the few top-level keys are drawn as often as the
    many site coordinates, and one mutation that applies there."""
    spec = json.loads(draw(st.sampled_from(specs())))
    parent = spec
    while True:
        key = draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
        value = parent[key]
        if not (isinstance(value, (dict, list)) and value) or draw(st.booleans()):
            break
        parent = value
    mutation = draw(st.sampled_from([name for name, (applies, _) in MUTATIONS.items() if applies(parent, value)]))
    change = MUTATIONS[mutation][1]
    if mutation == "rename":
        parent[f"{key}_x"] = parent.pop(key)
    elif change is None:
        del parent[key]
    else:
        parent[key] = change(copy.deepcopy(value))
    return mutation, key, spec


@settings(max_examples=300, deadline=None)
@given(mutated_specs())
def test_a_mutated_scenario_fails_validation_or_runs_to_a_report(case):
    mutation, key, spec = case
    try:
        result = run_scenario(spec)
    except ValidationError:
        return
    assert mutation != "rename", f"renamed key {key!r} passed validation"
    assert not [block for block in result.report["analyses"].values() if "internal_error" in block]


# one base scenario of each kind, to which each analysis type belongs
TABLE_SCENARIOS = {"walk": "two_incoming_leads", "cc": "cc_rpath"}


def bad_arguments():
    """(kind, type, key, value) for each analysis argument in ``ARGUMENTS``:
    values of the wrong type, one under its least value and one over its
    most where it has them (evolution steps: 1 and ``STEPS_MOST``), ``NaN``
    and ``inf``; a list argument, the epsilons, also takes them as its entry,
    and 0, 1e-12 and 1.5."""
    for kind, types in ANALYSES.items():
        for atype in types:
            for key, (argkind, low, _) in ARGUMENTS[atype].items():
                values = ["x", None, [], math.nan, math.inf, -math.inf]
                values += [["x"], [math.nan], [math.inf]] if argkind is list else [[1]]
                least, most = low if isinstance(low, tuple) else (low, None)
                if argkind is _steps:
                    least, most = 1, STEPS_MOST
                if argkind is list:  # the epsilons, within (least, 1)
                    values += [[0], [1e-12], [1.5]]
                    least = most = None
                if least is not None:
                    values.append(least - 1 if argkind in (int, _steps) else least - 0.5)
                if most is not None:
                    values.append(most + 1)
                for value in values:
                    yield kind, atype, key, value


@pytest.mark.parametrize("kind, atype, key, value", list(bad_arguments()))
def test_every_analysis_argument_is_checked_at_validation(kind, atype, key, value):
    spec = json.loads(bundled_scenarios()[TABLE_SCENARIOS[kind]].read_text())
    spec["analyses"] = [{"type": atype}]
    validate_scenario(spec)
    spec["analyses"][0][key] = value
    with pytest.raises(ValidationError, match=re.escape(f"analysis #0 ({atype}) {key} must be")):
        validate_scenario(spec)


class Listed(Exception):
    """Raised by a patched ``DualPath.vertices``."""


def listed(*args):
    raise Listed


@pytest.mark.parametrize("epsilons", [[1e-12], [0.25, 1e-12]])
def test_a_tiny_epsilon_is_refused_before_the_path_is_listed(monkeypatch, epsilons):
    # 1e-12 validated and then asked DualPath.is_pure for about 10^12 steps;
    # once the setup is built, validation lists no vertex of the path
    vertices, build = DualPath.vertices, scenarios_module.build_cc_setup

    def built(*args):
        monkeypatch.setattr(DualPath, "vertices", vertices)
        setup = build(*args)
        monkeypatch.setattr(DualPath, "vertices", listed)
        return setup

    monkeypatch.setattr(scenarios_module, "build_cc_setup", built)
    spec = json.loads(bundled_scenarios()["cc_anomalous"].read_text())
    validate_scenario(spec)
    spec["analyses"][0]["epsilons"] = epsilons
    with pytest.raises(ValidationError, match=re.escape("analysis #0 (anomalous_transport) epsilons must be at least")):
        validate_scenario(spec)


EXPLICIT_PATH = {"type": "explicit", "middle": [[0, 0]], "pre": [-1, 0], "post": [1, 0]}
# one base scenario of each part type: its name, the slot of the part, and
# the part put in that slot (None: the bundled one)
PART_SCENARIOS = {
    "geometry": ("half_line_plus", "geometry", None),
    "basic_example": ("basic_example", "coin", None),
    "halfline_commuting": ("half_line_plus", "coin", None),
    "lead_network": ("two_incoming_leads", "coin", None),
    "reflecting": ("bulk_boundary", "coin", None),
    "basic_halfspace": ("basic_example", "projection", None),
    "halfline": ("half_line_plus", "projection", None),
    "network": ("two_incoming_leads", "projection", None),
    "boundary_full": ("bulk_boundary", "projection", None),
    "straight_r": ("cc_rpath", "path", None),
    "crossover": ("cc_anomalous", "path", None),
    "wiggled_r": ("cc_rpath", "path", {"type": "wiggled_r"}),
    "explicit": ("cc_rpath", "path", EXPLICIT_PATH),
    "scattering": ("cc_rpath", "scattering", None),
}


def bad_fields():
    """(part type, key, value) for each key of each part type in ``PARTS``:
    a quoted number, a bool where the key takes none, ``null``, ``NaN`` and
    ``inf``, and a value under its least value or over its most, where it
    has them."""
    for ptype, rows in PARTS.items():
        for key, (kind, low, _) in rows.items():
            values = ["1", None, math.nan, math.inf] + ([] if kind == (True, False) else [True])
            least, most = low if isinstance(low, tuple) else (low, None)
            if least is not None:
                values.append(least - 1 if kind is int else least - 0.5)
            if most is not None:
                values.append(most + 0.5)
            for value in values:
                yield ptype, key, value


def test_every_part_type_has_a_base_scenario():
    assert PART_SCENARIOS.keys() == PARTS.keys()


@pytest.mark.parametrize("ptype, key, value", list(bad_fields()))
def test_every_part_field_is_checked_at_validation(ptype, key, value):
    name, slot, part = PART_SCENARIOS[ptype]
    spec = json.loads(bundled_scenarios()[name].read_text())
    if part is not None:
        spec[slot] = copy.deepcopy(part)
    validate_scenario(spec)
    spec[slot][key] = value
    with pytest.raises(ValidationError, match=re.escape(f"{slot} {key} must")):
        validate_scenario(spec)
