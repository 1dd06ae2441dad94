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

Every float, alone, in a complex scalar or in an array, is written by one
text rule: the ``%.17g`` template, the C formatter of ``format(x, ".17g")``.
A complex value fills ``_complex_item``'s ``{"re", "im"}`` template.  A
non-empty float64 or complex128 array with an axis is written one last-axis
row per ``%`` call; other arrays go through ``tolist()``.  A finite ``%.17g``
never holds the letter ``n``, and ``inf`` and ``nan`` do, so ``_finite``
tests the text, not the values, and raises at the first non-finite value in
output order.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import ContractViolation

_quote = json.encoder.encode_basestring_ascii


def _finite(text: str, values) -> str:
    """``text``, the ``%.17g`` text of the floats ``values`` (in output
    order), unless it holds an inf or a nan; then raise at the first one."""
    if "n" in text:
        x = next(float(v) for v in values if not math.isfinite(v))
        raise ContractViolation(f"non-finite float in JSON output: {x!r}")
    return text


def _complex_item(pad: str, step: str) -> str:
    """The ``{"re", "im"}`` template, two ``%.17g`` slots, of a complex value
    at the level whose line break and indentation is ``pad``."""
    if step:
        inner = pad + step
        return f'{{{inner}"re": %.17g,{inner}"im": %.17g{pad}}}'
    return '{"re":%.17g,"im":%.17g}'


def _encode(obj, out: list[str], pad: str, step: str) -> None:
    """Append the JSON text of ``obj`` to ``out``.

    ``pad`` is the line break and indentation of the level ``obj`` sits at
    and ``step`` one level of indentation; both are "" in compact mode.
    """
    if isinstance(obj, (float, np.floating)):
        out.append(_finite("%.17g" % obj, (obj,)))
    elif isinstance(obj, dict):
        _encode_dict(obj, out, pad, step)
    elif isinstance(obj, (list, tuple)):
        _encode_list(obj, out, pad, step)
    elif isinstance(obj, (complex, np.complexfloating)):
        re, im = obj.real, obj.imag
        out.append(_finite(_complex_item(pad, step) % (re, im), (re, im)))
    elif isinstance(obj, np.ndarray):
        # not for subclasses: a masked array's tolist() holds None
        if obj.ndim and obj.size and obj.dtype.char in "dD" and type(obj) is np.ndarray:
            _encode_rows(obj, out, pad, step)
        else:
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


def _encode_rows(a: np.ndarray, out: list[str], pad: str, step: str) -> None:
    """A float64 or complex128 array with an axis and at least one value."""
    row_pad = pad + step * (a.ndim - 1)
    inner = row_pad + step
    if a.dtype.char == "d":
        item, floats = "%.17g", a
    else:  # (re, im) pairs, in output order
        item, floats = _complex_item(inner, step), np.ascontiguousarray(a).view(np.float64)
    row = "[" + inner + ("," + inner).join([item] * a.shape[-1]) + row_pad + "]"
    out.append(_finite(_join_rows(floats.tolist(), a.ndim - 1, row, pad, step), floats.flat))


def _join_rows(vals: list, depth: int, row: str, pad: str, step: str) -> str:
    """The nested lists ``vals``, ``depth`` levels above their rows."""
    if not depth:
        return row % tuple(vals)
    inner = pad + step
    return ("[" + inner + ("," + inner).join([_join_rows(v, depth - 1, row, inner, step)
                                               for v in vals]) + pad + "]")


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
