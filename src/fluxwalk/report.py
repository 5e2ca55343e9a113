"""Deterministic JSON serialization of reports."""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .flux import IndexReport

SCHEMA_VERSION = 1


def jsonable(value: Any) -> Any:
    """Convert to JSON-stable primitives; complex numbers become [re, im]."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        seq = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v) for v in seq]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    raise TypeError(f"cannot serialize {type(value)!r}")


def index_report_dict(report: IndexReport) -> dict:
    return {
        "index": report.index,
        "dim_ker_plus": report.dim_ker_plus,
        "dim_ker_minus": report.dim_ker_minus,
        "odd_trace": jsonable(report.odd_trace),
        "supertrace": jsonable(report.supertrace),
        "kitaev_sum": jsonable(report.kitaev_sum),
        "gap": report.gap,
        "trace_norm": jsonable(report.trace_norm),
        "rank_difference": report.rank_difference,
        "certificate": report.certificate.as_dict(),
    }


def dump_report(report: dict) -> str:
    """Canonical rendering: sorted keys, fixed indentation, trailing newline."""
    return json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"
