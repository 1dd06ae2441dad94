"""Deterministic JSON emission and small parsing helpers.

Floats are printed with 17 significant digits so every double round-trips
and equal inputs yield byte-identical output.  Complex scalars serialize
as {"re": ..., "im": ...}; numpy arrays as plain lists; fractions as
"num/den" strings.  Key order is insertion order (fixed by construction),
never locale- or hash-dependent.

``dumps`` tests the types that make up nearly all output first (floats,
dicts, lists, complex scalars, arrays, strings) and ``bool`` before
``int``.  Strings and keys are quoted by
``json.encoder.encode_basestring_ascii``, the function ``json.dumps`` uses
for a ``str``, so they print exactly as ``json.dumps`` prints them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import ContractViolation

_quote = json.encoder.encode_basestring_ascii


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ContractViolation(f"non-finite float in JSON output: {x!r}")
    return format(float(x), ".17g")


def _encode(obj, out: list[str], pad: str, step: str) -> None:
    """Append the JSON text of ``obj`` to ``out``.

    ``pad`` is the line break and indentation of the level ``obj`` sits at
    and ``step`` one level of indentation; both are "" in compact mode.
    """
    if isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, dict):
        _encode_dict(obj, out, pad, step)
    elif isinstance(obj, (list, tuple)):
        _encode_list(obj, out, pad, step)
    elif isinstance(obj, (complex, np.complexfloating)):
        _encode_complex(obj, out, pad, step)
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), out, pad, step)
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, Fraction):
        out.append(_quote(f"{obj.numerator}/{obj.denominator}"))
    else:
        raise ContractViolation(f"cannot serialize {type(obj).__name__} to JSON")


def _encode_complex(z, out: list[str], pad: str, step: str) -> None:
    inner = pad + step
    re = _fmt_float(float(z.real))
    im = _fmt_float(float(z.imag))
    if step:
        out.append(f'{{{inner}"re": {re},{inner}"im": {im}{pad}}}')
    else:
        out.append(f'{{"re":{re},"im":{im}}}')


def _encode_dict(obj, out: list[str], pad: str, step: str) -> None:
    if not obj:
        out.append("{}")
        return
    inner = pad + step
    sep = "," + inner
    colon = ": " if step else ":"
    out.append("{")
    first = len(out)
    for k, v in obj.items():
        if not isinstance(k, str):
            raise ContractViolation(f"JSON object keys must be strings, got {k!r}")
        out.append(sep + _quote(k) + colon)
        _encode(v, out, inner, step)
    out[first] = out[first][1:]  # the first item takes no comma
    out.append(pad + "}")


def _encode_list(obj, out: list[str], pad: str, step: str) -> None:
    if not obj:
        out.append("[]")
        return
    inner = pad + step
    sep = "," + inner
    out.append("[")
    first = len(out)
    for v in obj:
        out.append(sep)
        _encode(v, out, inner, step)
    out[first] = inner  # the first item takes no comma
    out.append(pad + "]")


def dumps(obj, pretty: bool = True) -> str:
    """``obj`` as JSON text: indented by two spaces per level, or on one
    line without spaces when ``pretty`` is false."""
    out: list[str] = []
    if pretty:
        _encode(obj, out, "\n", "  ")
    else:
        _encode(obj, out, "", "")
    return "".join(out)


def object_from_json(v, what: str, required: tuple[str, ...],
                     optional: tuple[str, ...]) -> dict:
    """``v`` when it is a JSON object with every ``required`` key and no key
    outside ``required`` and ``optional``; ``what`` names it in errors."""
    if not isinstance(v, dict):
        raise ContractViolation(f"{what} must be a JSON object, got {v!r}")
    unknown = [k for k in v if k not in required and k not in optional]
    if unknown:
        raise ContractViolation(f"unknown {what} keys: {sorted(unknown)}")
    missing = [k for k in required if k not in v]
    if missing:
        raise ContractViolation(f"missing {what} keys: {missing}")
    return v


def float_from_json(v) -> float:
    """Accept a JSON number only; bools, strings and other values are refused."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ContractViolation(f"expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer past the float range
        raise ContractViolation(f"number out of the float range: {v!r}") from None


def scalar_from_json(v) -> float | complex:
    """Accept a number or an {"re", "im"} object of numbers."""
    if isinstance(v, dict):
        v = object_from_json(v, "scalar", (), ("re", "im"))
        return complex(float_from_json(v.get("re", 0.0)), float_from_json(v.get("im", 0.0)))
    return float_from_json(v)


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
