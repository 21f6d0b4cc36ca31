"""Flat lists in ``jsonio.dumps_canonical`` against the per-scalar path.

A list whose items are all exactly ``float`` is printed by one ``%``
format of ``%.17g`` fields, with ``nan`` turned into ``null``; one of
exactly ``int`` items by one join of ``str``, and one of ``bool`` items by
one join of ``true`` and ``false``.  Every list used to go through
``_format_scalar`` item by item; that path is kept below as the oracle,
and every flat list must give its bytes: -0.0, both infinities,
subnormals, NaN as ``null``, numpy scalars, integers, booleans, ``None``
and strings, alone or mixed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styluskit import jsonio
from styluskit.jsonio import _format_scalar, dumps_canonical


def oracle_flat_list(seq) -> str:
    return "[" + ", ".join(_format_scalar(x) for x in seq) + "]"


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072009e-308,
            1.7976931348623157e308, 0.1, 1.0, 1e16, 1e17, 123456789012345680.0]

floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL))
scalars = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(-(2**70), 2**70),
    st.integers(-5, 5).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)


@settings(max_examples=100, deadline=None)
@given(seq=st.one_of(st.lists(floats, max_size=20), st.lists(scalars, max_size=12)))
def test_flat_lists_match_the_per_scalar_path(seq):
    expected = oracle_flat_list(seq)
    assert dumps_canonical(seq) == expected
    assert dumps_canonical(tuple(seq)) == expected
    assert dumps_canonical({"a": [seq]}) == '{\n  "a": [\n    ' + expected + "\n  ]\n}"


@settings(max_examples=50, deadline=None)
@given(seq=st.lists(st.floats(), max_size=20))
def test_float_arrays_match_the_per_scalar_path(seq):
    a = np.array(seq, dtype=float)
    assert dumps_canonical(a) == oracle_flat_list(a.tolist())
    assert dumps_canonical([a]) == "[\n  " + oracle_flat_list(a.tolist()) + "\n]"


ints = st.one_of(st.integers(), st.integers(-(2**70), 2**70), st.sampled_from([0, -1, 2**53 + 1]))


@settings(max_examples=100, deadline=None)
@given(
    seq=st.one_of(
        st.lists(ints, max_size=20),
        st.lists(st.booleans(), max_size=20),
        st.lists(st.one_of(ints, st.booleans(), st.integers(-5, 5).map(np.int64)), max_size=12),
    )
)
def test_int_and_bool_lists_match_the_per_scalar_path(seq):
    expected = oracle_flat_list(seq)
    assert dumps_canonical(seq) == expected
    assert dumps_canonical(tuple(seq)) == expected
    assert dumps_canonical({"a": [seq]}) == '{\n  "a": [\n    ' + expected + "\n  ]\n}"


@settings(max_examples=50, deadline=None)
@given(seq=st.lists(st.integers(-(2**62), 2**62), max_size=20), flags=st.lists(st.booleans()))
def test_int_and_bool_arrays_match_the_per_scalar_path(seq, flags):
    a = np.array(seq, dtype=np.int64)
    b = np.array(flags, dtype=bool)
    assert dumps_canonical(a) == oracle_flat_list(a.tolist())
    assert dumps_canonical(b) == oracle_flat_list(b.tolist())


def test_int_and_bool_lists_skip_the_per_scalar_path(monkeypatch):
    """Lists of Python ints or bools, such as outlier indices and missing
    flags, are joined whole; numpy scalars still go one at a time."""

    def per_scalar(x):
        raise AssertionError(f"per-scalar path taken for {x!r}")

    monkeypatch.setattr(jsonio, "_format_scalar", per_scalar)
    assert dumps_canonical(list(range(-3, 1000))) == "[" + ", ".join(map(str, range(-3, 1000))) + "]"
    assert dumps_canonical([True, False, True]) == "[true, false, true]"
    assert dumps_canonical(np.zeros(3, dtype=bool)) == "[false, false, false]"
    with pytest.raises(AssertionError, match="per-scalar path"):
        dumps_canonical([np.int64(1), 2])
