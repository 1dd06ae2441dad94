"""Deterministic JSON emission and small parsing helpers.

Floats are printed with 17 significant digits so every double round-trips
and equal inputs yield byte-identical output.  Complex scalars serialize
as {"re": ..., "im": ...}; numpy arrays as plain lists; fractions as
"num/den" strings.  Key order is insertion order (fixed by construction),
never locale- or hash-dependent.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import ContractViolation


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ContractViolation(f"non-finite float in JSON output: {x!r}")
    return format(float(x), ".17g")


def _encode(obj, out: list[str], indent: int | None, level: int) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    close_pad = "" if indent is None else "\n" + " " * (indent * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _encode({"re": float(obj.real), "im": float(obj.imag)}, out, indent, level)
    elif isinstance(obj, Fraction):
        out.append(json.dumps(f"{obj.numerator}/{obj.denominator}"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), out, indent, level)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise ContractViolation(f"JSON object keys must be strings, got {k!r}")
            out.append(("," if i else "") + pad)
            out.append(json.dumps(k))
            out.append(": " if indent is not None else ":")
            _encode(v, out, indent, level + 1)
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[")
        for i, v in enumerate(obj):
            out.append(("," if i else "") + pad)
            _encode(v, out, indent, level + 1)
        out.append(close_pad + "]")
    else:
        raise ContractViolation(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj, pretty: bool = True) -> str:
    out: list[str] = []
    _encode(obj, out, 2 if pretty else None, 0)
    return "".join(out)


def scalar_from_json(v) -> float | complex:
    """Accept a number or an {"re", "im"} object."""
    if isinstance(v, bool):
        raise ContractViolation(f"expected a scalar, got {v!r}")
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, dict) and set(v) <= {"re", "im"}:
        return complex(float(v.get("re", 0.0)), float(v.get("im", 0.0)))
    raise ContractViolation(f"expected a scalar, got {v!r}")


def int_from_json(v) -> int:
    """Accept a JSON integer only; bools, floats and strings are refused."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ContractViolation(f"expected an integer, got {v!r}")
    return v


def vec_from_json(v) -> np.ndarray:
    if not isinstance(v, list):
        raise ContractViolation(f"expected a vector (JSON array), got {v!r}")
    vals = [scalar_from_json(c) for c in v]
    if any(isinstance(c, complex) for c in vals):
        return np.array([complex(c) for c in vals], dtype=np.complex128)
    return np.array(vals, dtype=np.float64)
