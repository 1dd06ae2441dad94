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
from sipwigner.jsonio import dumps, object_from_json, vec_from_json


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


# ------------------------------------------- arrays written row by row

rows = array_shapes(min_dims=1, max_dims=3, max_side=17)


def views(a):
    """``a`` and non-contiguous views of it: strided, transposed, reversed,
    and the real and imaginary parts of a complex array."""
    if not a.ndim:
        return [a]
    out = [a, a[::2], a.T, a[..., ::-1]]
    if a.dtype.kind == "c":
        out += [a.real, a.imag]
    return out


@settings(deadline=None, max_examples=30)
@given(st.one_of(arrays(np.float64, rows, elements=finite),
                 arrays(np.complex128, rows, elements=finite_complex)))
def test_row_path_matches_the_reference_on_arrays_and_their_views(a):
    for pretty in (True, False):
        for v in views(a):
            assert dumps(v, pretty) == reference_dumps(v, pretty)
        nested = {"a": [1, a]}  # rows written two levels down
        assert dumps(nested, pretty) == reference_dumps(nested, pretty)


@settings(deadline=None)
@given(st.sampled_from([np.float32, np.complex64, np.float16, np.int64, np.bool_]).flatmap(
    lambda dtype: arrays(dtype, array_shapes(min_dims=0, max_dims=3, max_side=5))))
def test_arrays_of_other_dtypes_match_the_reference(a):
    for v in views(a):
        for pretty in (True, False):
            assert outcome(dumps, v, pretty) == outcome(reference_dumps, v, pretty)


EDGES = np.array([1.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1, 1e-7, 123456789.0])


@pytest.mark.parametrize("a", [
    EDGES, EDGES.reshape(3, 3), EDGES.reshape(3, 1, 3), EDGES + 1j * EDGES[::-1],
    np.stack([EDGES - 1j * EDGES, EDGES[::-1] + 0j]), np.zeros((2, 0)), np.array(-0.0),
    np.array(5e-324 + 1.7e308j), np.ones((1, 1, 1)),
    np.ma.masked_array([[1.0, 2.0]], mask=[[False, True]]),  # a subclass: masked is null
], ids=lambda a: f"{type(a).__name__}-{a.dtype}{a.shape}")
def test_extreme_finite_values_inside_rows(a):
    for pretty in (True, False):
        assert dumps(a, pretty) == reference_dumps(a, pretty)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["real", "real part", "imaginary part"])
def test_a_non_finite_value_late_in_a_row_raises_the_reference_error(bad, part):
    # the first non-finite value in output order is the one reported
    a = np.linspace(-1.0, 1.0, 34).reshape(2, 17)
    if part != "real":
        a = a + 1j * a[::-1]
    for k, value in ((12, bad), (15, math.nan if bad != bad else math.inf)):
        a[1, k] = complex(a[1, k].real, value) if part == "imaginary part" else value
    for pretty in (True, False):
        got = outcome(dumps, a, pretty)
        assert got == outcome(reference_dumps, a, pretty)
        assert got == ("ContractViolation", f"non-finite float in JSON output: {bad!r}")


@pytest.mark.parametrize("read, message", [
    (lambda: object_from_json([1], "space", ("field",), ()), r"space must be a JSON object, got \[1\]"),
    (lambda: object_from_json({"field": "real"}, "space", ("field", "dim"), ()),
     r"missing space keys: \['dim'\]"),
    (lambda: vec_from_json("[1, 2]"), "expected a vector"),
], ids=["not-an-object", "missing-key", "vector-not-array"])
def test_wire_readers_refuse_the_wrong_json_shape(read, message):
    with pytest.raises(ContractViolation, match=message):
        read()
