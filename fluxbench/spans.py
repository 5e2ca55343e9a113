"""In-memory span tracer that wraps fluxwalk's public functions from outside.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` replaces each
probed function or method with a wrapper and rebinds every module-level name
in the ``fluxwalk`` package that refers to the original object, so the
``from .x import f`` copies held by other modules are traced too.
``Tracer.uninstall`` puts every original back.

A span probe records (name, start, end, parent span, job id) per call in
flat arrays; a count probe only increments a counter and adds no span, which
keeps the hottest leaf calls (``Ray.locate``, ``open_slots``,
``LatticeState.__init__``) cheap.  Self time of a span is its duration minus
the durations of its direct children; because calls nest strictly, that is
the time the children cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

SPAN = "span"
COUNT = "count"

# assemble_field's wrapper also wraps the block_fn closure it is handed.
ASSEMBLE = "flux.assemble_field"
BLOCK_FN = "flux.block_fn"
JOB = "job"


def _add_sites(args, kwargs, result):
    return {"sites": args[0].support_size() + args[1].support_size()}


def _apply_sites(args, kwargs, result):
    return {"sites": args[1].support_size()}


def _region_points(args, kwargs, result):
    split = args[0]
    return {"points": (split.hi[0] - split.lo[0] + 1) * (split.hi[1] - split.lo[1] + 1)}


def _eig_n3(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    shape = np.shape(a)
    n = shape[-1]
    return {"n3": int(np.prod(shape[:-2], dtype=np.int64)) * n**3}


# (module, attribute path, metric prefix, kind, extra counters).  Several
# probes may share one prefix; their counts and times add up.
PROBES = (
    ("fluxwalk.scenarios", "validate_scenario", "scenarios.validate_scenario", SPAN, None),
    ("fluxwalk.scenarios", "build_walk_setup", "scenarios.build_setup", SPAN, None),
    ("fluxwalk.scenarios", "build_cc_setup", "scenarios.build_setup", SPAN, None),
    ("fluxwalk.fields", "SiteMap.value", "fields.SiteMap.value", SPAN, None),
    ("fluxwalk.fields", "Ray.locate", "fields.Ray.locate", COUNT, None),
    ("fluxwalk.fields", "AdaptedProjection.open_slots", "fields.open_slots", COUNT, None),
    ("fluxwalk.fields", "_ShiftConjugate.open_slots", "fields.open_slots", COUNT, None),
    ("fluxwalk.fields", "_Complement.open_slots", "fields.open_slots", COUNT, None),
    ("fluxwalk.cc", "RegionSplit.__init__", "cc.RegionSplit", SPAN, _region_points),
    ("fluxwalk.cc", "cc_flux", "cc.cc_flux", SPAN, None),
    ("fluxwalk.cc", "CCUnitary.apply", "cc.CCUnitary.apply", COUNT, None),
    ("fluxwalk.cc", "CCUnitary.apply_adjoint", "cc.CCUnitary.apply", COUNT, None),
    ("fluxwalk.flux", "assemble_field", ASSEMBLE, SPAN, None),
    ("fluxwalk.flux", "selfcheck_against_operator", "flux.selfcheck", SPAN, None),
    ("fluxwalk.flux", "analyze", "flux.analyze", SPAN, None),
    ("fluxwalk.flux", "dense_window_index", "flux.dense_window_index", SPAN, None),
    ("numpy.linalg", "eigh", "linalg.eig", SPAN, _eig_n3),
    ("numpy.linalg", "eigvalsh", "linalg.eig", SPAN, _eig_n3),
    ("numpy.linalg", "eig", "linalg.eig", SPAN, _eig_n3),
    ("numpy.linalg", "eigvals", "linalg.eig", SPAN, _eig_n3),
    ("fluxwalk.lattice", "LatticeState.__init__", "lattice.LatticeState.new", COUNT, None),
    ("fluxwalk.lattice", "LatticeState.__add__", "lattice.LatticeState.add", SPAN, _add_sites),
    ("fluxwalk.lattice", "LatticeState.inner", "lattice.LatticeState.inner", SPAN, None),
    ("fluxwalk.operators", "CoinedWalk.apply", "operators.apply", SPAN, _apply_sites),
    ("fluxwalk.operators", "CoinedWalk.apply_adjoint", "operators.apply", SPAN, _apply_sites),
    ("fluxwalk.operators", "matrix_on_window", "operators.matrix_on_window", SPAN, None),
    ("fluxwalk.walks", "synthesize_lead_coin", "walks.synthesize_lead_coin", SPAN, None),
    ("fluxwalk.walks", "validate_network", "walks.validate_network", SPAN, None),
    ("fluxwalk.walks", "verify_wandering", "walks.verify_wandering", SPAN, None),
    ("fluxwalk.walks", "verify_confinement", "walks.verify_confinement", SPAN, None),
    ("fluxwalk.shift", "extract_kernels", "shift.extract_kernels", SPAN, None),
    ("fluxwalk.shift", "build_perturbed", "shift.build_perturbed", SPAN, None),
    ("fluxwalk.shift", "verify_shift_structure", "shift.verify_shift_structure", SPAN, None),
    ("fluxwalk.report", "dump_report", "report.dump_report", SPAN, None),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counters: dict[str, int] = defaultdict(int)
        self.job_id = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers -------------------------------------------------------------

    def span_wrapper(self, name: str, fn, extra=None):
        nid = self._name_id(name)
        names, starts, ends, parents, jobs = self.name, self.start, self.end, self.parent, self.job
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        counters = self.counters
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _assemble_wrapper(self, fn):
        traced = self.span_wrapper(ASSEMBLE, fn)

        @functools.wraps(fn)
        def wrapper(geometry, block_fn, *args, **kwargs):
            return traced(geometry, self.span_wrapper(BLOCK_FN, block_fn), *args, **kwargs)

        return wrapper

    def job_span(self, fn):
        return self.span_wrapper(JOB, fn)

    # -- installation -----------------------------------------------------------

    def install(self) -> "Tracer":
        import fluxwalk  # noqa: F401  (loads every submodule)

        for module_name, path, name, kind, extra in PROBES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if kind == COUNT:
                wrapped = self.count_wrapper(name, original)
            elif name == ASSEMBLE:
                wrapped = self._assemble_wrapper(original)
            else:
                wrapped = self.span_wrapper(name, original, extra)
            self._rebind(owner, attr, original, wrapped)
            if not outer:
                # module-level function: rebind every `from .x import f` copy
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not mod_name.startswith("fluxwalk"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapped)
        return self

    def _rebind(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns as zero-copy NumPy views; drop them before tracing
        again, since an exported buffer cannot grow."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
        }

    def totals(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` per span name, plus every
        counter."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        calls = np.bincount(a["name"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_time, minlength=n_names)
        out: dict[str, float] = dict(self.counters)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(self_s[nid])
        return out

    def save(self, path) -> None:
        """Write spans and counters as one compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            counter_names=np.array(sorted(self.counters)),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)], dtype=np.int64),
            **self.arrays(),
        )
