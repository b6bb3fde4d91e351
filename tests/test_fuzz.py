"""Fuzz properties of the input boundary: a document or a command-line text
either gives a result or the documented error, never another exception."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings, strategies as st

from currentalg import Algebra, ChevalleyCochain
from currentalg.cli import run_command
from currentalg.io import AlgebraFileError, algebra_from_dict, cochain_from_dict

from conftest import FIXTURES

# Any JSON value, small, and a few values that are wrong wherever they stand.
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8)
_junk = st.sampled_from([None, True, 2.0, -1, 0, "", "x", [], {}, [1], {"re": "1"}])


def _mostly(common, *rare):
    """``common`` in three draws of four, else one of ``rare``."""
    return st.sampled_from([common] * 3 + [st.one_of(rare)]).flatmap(lambda s: s)


# Rows of an i, j, k, coefficient table: near-valid, so most reach the scalar
# parser, with indices mostly in 1..2 so that the triangle rules and a repeated
# (i, j, k) come up too.
_index = _mostly(st.integers(1, 2), st.integers(-1, 5), _junk)
_coeff = _mostly(st.sampled_from(["1", "-1/2", "0", "2/4", "1/0", "1.5", "i", "", "1e3", "+3"]),
                 st.dictionaries(st.sampled_from(["re", "im", "x"]),
                                 st.sampled_from(["1", "-2/3", "0", "i", "1/0"]) | _junk,
                                 max_size=3),
                 _junk)
_row = st.tuples(_index, _index, _index, _coeff).map(list)


def _repeat_first(rows, again, coeff):
    """``rows`` with, if ``again``, its first row repeated next under ``coeff``."""
    if again and rows and isinstance(rows[0], list):
        return rows[:1] + [rows[0][:3] + [coeff]] + rows[1:]
    return rows


_rows = st.builds(_repeat_first, st.lists(_mostly(_row, _junk), max_size=6), st.booleans(), _coeff)

# Basis labels of a document of dimension dim: absent, one label each, one label
# too many, or labels that are not text.
_BASES = (None, None, lambda dim: [f"e{k}" for k in range(1, dim + 1)],
          lambda dim: [f"e{k}" for k in range(1, dim + 1)],
          lambda dim: ["x"] * (dim + 1), lambda dim: [None] * dim)


def _labelled(doc, basis):
    return doc if basis is None else {**doc, "basis": basis(doc["dim"])}


def _documents(header, table, bases=(None,)):
    """A well-formed header, its basis drawn from ``bases``, with fuzzed rows
    (three draws in four), a fuzzed header (keys missing, wrong or unknown), or
    any JSON value."""
    good = {k: st.sampled_from(v) for k, v in header.items()}
    rows = st.builds(_labelled, st.fixed_dictionaries({**good, table: _rows}),
                     st.sampled_from(bases))
    loose = st.fixed_dictionaries({}, optional={
        **{k: v | _junk for k, v in good.items()}, table: _rows | _junk, "extra": _junk})
    return _mostly(rows, loose, _json)


_algebra_docs = _documents({"name": ["a"], "kind": ["lie", "assoc-comm"], "field": ["Q", "Qi"],
                            "dim": [1, 2, 3, 4]}, "constants", _BASES)
_cochain_docs = _documents({"field": ["Q", "Qi"], "dim": [1, 2, 3, 4], "degree": [2]}, "entries")


@settings(max_examples=300)
@given(_algebra_docs, _cochain_docs)
@example({"name": "a", "kind": "lie", "field": "Q", "dim": 2, "constants": [[1, 2, 2, "1"]]},
         {"field": "Q", "dim": 2, "entries": [[1, 2, 1, "1"]]})
def test_documents_give_an_object_or_a_file_error(algebra_doc, cochain_doc):
    for parse, doc, kind in ((algebra_from_dict, algebra_doc, Algebra),
                             (cochain_from_dict, cochain_doc, ChevalleyCochain)):
        try:
            assert isinstance(parse(doc), kind)
        except AlgebraFileError:
            pass


_coordinate_text = st.text(st.sampled_from(list("0129/+-i ,.eauto")) | st.characters(),
                           max_size=16)


@settings(max_examples=150)
@given(_coordinate_text, st.sampled_from(["m1_2.json", "real_rigid_2_1_qi.json"]))
@example("1/2,0/11/2i", "real_rigid_2_1_qi.json")
@example("1," + "9" * 5000, "m1_2.json")
@example("-1", "m1_2.json")
@example("--", "m1_2.json")
@example("-1/2,0", "m1_2.json")
def test_pierce_idempotent_text_exits_cleanly(text, fixture):
    argv = ["pierce", str(FIXTURES / fixture), "--idempotent", text]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = run_command(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2)
