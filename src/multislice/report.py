"""JSON report envelope, its schema, and CSV emission for the CLI and audits."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Any, Iterable

import numpy as np

#: Envelope wrapping every CLI result.
ENVELOPE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "config", "results", "certificates", "timing"],
    "properties": {
        "command": {"type": "string"},
        "config": {"type": "object"},
        "results": {},
        "certificates": {"type": "array", "items": {"type": "object"}},
        "timing": {"type": "object", "required": ["seconds"]},
    },
}


def to_jsonable(obj: Any) -> Any:
    """Recursively convert report objects into plain JSON-ready values.

    Fractions become "p/q" strings to stay exact; numpy scalars and arrays
    become Python numbers and lists; NaN and infinities, which JSON lacks,
    become None.  The plain types come first, by exact type; subclasses and
    everything else take the chain below.
    """
    kind = type(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is dict:
        return {str(key): to_jsonable(v) for key, v in obj.items()}
    if kind is list or kind is tuple:
        return [to_jsonable(v) for v in obj]
    if kind is float:
        return obj if math.isfinite(obj) else None
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(key): to_jsonable(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def envelope(command: str, config: dict, results: Any, certificates: list, seconds: float) -> dict:
    return {
        "command": command,
        "config": to_jsonable(config),
        "results": to_jsonable(results),
        "certificates": [to_jsonable(c) for c in certificates],
        "timing": {"seconds": seconds},
    }


def csv_lines(header: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    out = [",".join(str(h) for h in header)]
    for row in rows:
        out.append(",".join(str(v) for v in row))
    return "\n".join(out) + "\n"
