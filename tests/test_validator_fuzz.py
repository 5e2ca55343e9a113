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
"""

import copy
import functools
import json
import math
import runpy
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fluxwalk.cli import bundled_scenarios
from fluxwalk.errors import ValidationError
from fluxwalk.scenarios import run_scenario


def cut(spec: dict) -> dict:
    """The spec with only its ``index`` analysis, or its first one."""
    index = [a for a in spec["analyses"] if a["type"] == "index"]
    return {**spec, "analyses": [index[0] if index else spec["analyses"][0]]}


@functools.cache
def specs() -> tuple:
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "fluxbench" / "workloads.py"))
    bench = [job.spec for name in workloads["WORKLOADS"] for job in workloads["generate"](name, 3, 1)]
    bundled = [json.loads(path.read_text()) for path in bundled_scenarios().values()]
    return tuple(json.dumps(cut(spec)) for spec in (*bundled, *bench))


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
