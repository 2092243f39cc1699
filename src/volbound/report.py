"""Report assembly and deterministic serialization.

A report is one JSON document: tool version, the resolved configuration,
and the command's results. Wall-clock timing lives in its own top-level
block so reproducibility comparisons can drop it; everything else is a
pure function of (config, seed), and the serialization is canonical
(sorted keys, shortest round-trip floats), so two identical runs produce
byte-identical bodies.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from . import __version__


def plain(obj):
    """Recursively convert to JSON-safe builtins.

    numpy scalars and arrays become python numbers and lists; tuples
    become lists; non-finite floats become their string spelling (JSON
    has no literal for them and a lossy 'null' would hide the value).
    """
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def build_report(command: str, config_doc: dict, results: dict, verdict: bool) -> dict:
    return {
        "tool": "volbound",
        "tool_version": __version__,
        "command": command,
        "config": plain(config_doc),
        "results": plain(results),
        "verdict": bool(verdict),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        # plain-float repr: shortest round-trip digits, no numpy wrapper
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, (list, tuple, dict)):
        # a nested block (a scan row's per_weight) as canonical JSON
        return json.dumps(plain(value), sort_keys=True)
    return str(value)


def render_csv(header, rows) -> str:
    """Flat table with repr-exact floats, one row per sweep point."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()
