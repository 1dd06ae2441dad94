"""The JSON encoder gives the bytes of the plain recursive encoder it replaced.

``reference_dumps`` below is that encoder, kept verbatim as the reference:
one ``isinstance`` chain per value and ``json.dumps`` for every string.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sipwigner import ContractViolation
from sipwigner.jsonio import dumps


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


def reference_dumps(obj, pretty: bool = True) -> str:
    out: list[str] = []
    _encode(obj, out, 2 if pretty else None, 0)
    return "".join(out)


def outcome(encode, obj, pretty):
    """The bytes, or the type and message of the error."""
    try:
        return encode(obj, pretty)
    except Exception as exc:
        return type(exc).__name__, str(exc)


ODD_TEXT = ['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "☃", "\U0001d11e", " "]
text = st.one_of(st.text(max_size=6), st.sampled_from(ODD_TEXT))
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]))
finite_complex = st.builds(complex, finite, finite)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), finite, finite_complex, text, st.fractions(),
    finite.map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    finite_complex.map(np.complex128),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=3), elements=finite),
    arrays(np.complex128, array_shapes(min_dims=0, max_dims=2, max_side=3),
           elements=finite_complex),
)
bad_leaves = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([np.float64(math.nan), complex(1.0, math.inf), np.complex128(math.nan),
                     np.array([1.0, math.inf]), {1: 2.0}, {"a": 1, None: 2}, {(1, 2): []},
                     {1.5, 2.5}, b"bytes", object()]),
)


def trees(leaf, key):
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(key, children, max_size=4),
        ),
        max_leaves=24,
    )


@settings(deadline=None)
@given(trees(leaves, text))
def test_encoder_matches_the_reference_bytes(obj):
    for pretty in (True, False):
        assert dumps(obj, pretty) == reference_dumps(obj, pretty)


@settings(deadline=None)
@given(trees(st.one_of(leaves, bad_leaves), st.one_of(text, st.integers())))
def test_encoder_matches_the_reference_on_bad_values(obj):
    # the same output, or the same error raised at the same first bad value
    for pretty in (True, False):
        assert outcome(dumps, obj, pretty) == outcome(reference_dumps, obj, pretty)


@pytest.mark.parametrize("obj, message", [
    (math.nan, "non-finite float in JSON output: nan"),
    ([1.0, {"x": -math.inf}], "non-finite float in JSON output: -inf"),
    (np.float64(math.inf), "non-finite float in JSON output: inf"),
    (complex(math.nan, 1.0), "non-finite float in JSON output: nan"),
    (np.array([[1.0 + 0j, complex(0.0, math.inf)]]), "non-finite float in JSON output: inf"),
    ({"a": 1, 2: 3}, "JSON object keys must be strings, got 2"),
    ([{(1, "k"): None}], "JSON object keys must be strings, got (1, 'k')"),
    ({"s": {1, 2}}, "cannot serialize set to JSON"),
    ([b"raw"], "cannot serialize bytes to JSON"),
])
def test_encoder_errors_match_the_reference(obj, message):
    for pretty in (True, False):
        with pytest.raises(ContractViolation) as want:
            reference_dumps(obj, pretty)
        with pytest.raises(ContractViolation) as got:
            dumps(obj, pretty)
        assert str(got.value) == str(want.value) == message
