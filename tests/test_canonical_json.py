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

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styluskit import jsonio
from styluskit.errors import NonFiniteOutput
from styluskit.ingest import DemonstrationTrace, PoseRecording, write_demo_csv, write_pose_csv
from styluskit.jsonio import _format_scalar, dumps_canonical, write_csv


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


# ------------------------------------------------------------ infinities


@pytest.mark.parametrize(
    "doc, where",
    [({"config": {"note": math.inf}}, "config.note"),
     ({"a": [0.5, {"b": (1.0, np.float64(-math.inf))}]}, "a[1].b[1]"),
     ({"spectra": [{"amplitudes": np.array([0.0, math.inf])}]}, "spectra[0].amplitudes[1]"),
     ({"p": np.array([[0.0, 1.0], [2.0, -math.inf]])}, "p[1][1]"),
     (-math.inf, "the document")],
)
def test_refused_infinity_names_its_key_path(doc, where):
    assert "inf" in dumps_canonical(doc)  # the writer prints it; the check refuses it
    with pytest.raises(NonFiniteOutput, match=rf"^cannot write {re.escape(where)}: -?inf is"):
        jsonio.refuse_inf(doc)


def test_refusal_passes_nan_strings_and_large_ints():
    jsonio.refuse_inf({"info": "inf", "nan": math.nan, "count": 10**400, "rows": [math.nan, 1e308]})
    jsonio.refuse_inf({"ints": np.arange(3), "flags": np.ones(2, dtype=bool), "nan": np.array([np.nan])})


def test_csv_writer_prints_infinity_as_inf():
    columns = [np.arange(3) * 0.1, np.array([[0.0, 1.0], [2.0, -math.inf], [math.nan, 4.0]])]
    stream = io.StringIO()
    write_csv(stream, "t,a,b", columns)
    assert stream.getvalue() == (
        "t,a,b\n0,0,1\n0.10000000000000001,2,-inf\n0.20000000000000001,nan,4\n"
    )


def test_recording_writers_refuse_infinity():
    t, identity = np.array([0.0, 0.01, math.inf]), np.tile([0.0, 0.0, 0.0, 1.0], (3, 1))
    trace = DemonstrationTrace(t[:2], np.zeros((2, 3)), [1.0, math.inf])
    stream = io.StringIO()
    with pytest.raises(NonFiniteOutput, match=r"^cannot write Fz\[1\]: inf is not finite$"):
        write_demo_csv(trace, stream)
    p = np.zeros((3, 3))
    p[1, 2] = -math.inf
    recording = PoseRecording("world", t=t, q=identity, p=p)
    with pytest.raises(NonFiniteOutput, match=r"^cannot write t\[2\]: inf"):
        write_pose_csv(recording, stream)
    recording = PoseRecording("world", t=t[:2], q=identity[:2], p=p[:2])
    with pytest.raises(NonFiniteOutput, match=r"^cannot write z\[1\]: -inf"):
        write_pose_csv(recording, stream)
    assert stream.getvalue() == ""  # refused before the header is written
