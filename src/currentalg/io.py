"""Serialization of algebras and degree-2 cochains.

The algebra file is a JSON document:

    {"name": str, "kind": "lie"|"assoc-comm", "field": "Q"|"Qi",
     "dim": int, "basis": [labels...],      # optional
     "constants": [[i, j, k, coeff], ...]}

with 1-based indices, only i < j rows for Lie kind (i <= j for
assoc-comm), coefficients "p/q" over Q and {"re": "p/q", "im": "p/q"}
over Qi.  A degree-2 cochain file has i < j rows under "entries".  Both
kinds pass one header check and one row reader, which differ only in their
keys and triangle rule.  Emission is canonical: sorted keys, sorted index
triples, lowest-terms coefficients, two-space indent, trailing newline;
parsing a canonical file and emitting it again reproduces it byte for byte.
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path

from . import scalars
from .algebra import ASSOC_COMM, KINDS, LIE, Algebra
from .cohomology import ChevalleyCochain

class AlgebraFileError(ValueError):
    """Schema violation with a location-carrying message."""


def _fail(where: str, msg: str):
    raise AlgebraFileError(f"{where}: {msg}")


# Header rules (key, required, test(value, dim), message), checked in this
# order on the keys present; "{dim}" in a message is the document's dim.
_FIELD = ("field", True, lambda v, dim: v in scalars.FIELDS,
          f"must be one of {list(scalars.FIELDS)}")
# true and false are not integers here
_DIM = ("dim", True, lambda v, dim: type(v) is int and v >= 1, "must be a positive integer")
_ALGEBRA_KEYS = (
    ("name", True, lambda v, dim: isinstance(v, str), "must be a string"),
    ("kind", True, lambda v, dim: v in KINDS, f"must be one of {list(KINDS)}"),
    _FIELD, _DIM,
    ("basis", False, lambda v, dim: v is None or (isinstance(v, list) and len(v) == dim
                                                  and all(isinstance(b, str) for b in v)),
     "must be a list of {dim} labels"),
    ("constants", True, lambda v, dim: isinstance(v, list), "must be a list"))
_COCHAIN_KEYS = (
    ("name", False, lambda v, dim: True, ""),
    _FIELD, _DIM,
    ("degree", False, lambda v, dim: type(v) is int and v == 2,  # 2.0 and true are not 2
     "only degree-2 cochains are supported"),
    ("entries", True, lambda v, dim: isinstance(v, list), "must be a list"))
# The triangle rule of each algebra kind, and its message on (i, j).
_TRIANGLES = {LIE: (operator.lt, "lower-triangular entry ({},{}) not permitted for lie"),
              ASSOC_COMM: (operator.le, "entry ({},{}) must have i <= j for assoc-comm")}


def _header(doc, where: str, rules) -> None:
    """An object with only the keys of ``rules``, the required ones, valid values."""
    if not isinstance(doc, dict):
        _fail(where, "top-level JSON value must be an object")
    unknown = set(doc) - {key for key, *_ in rules}
    if unknown:
        _fail(where, f"unknown keys {sorted(unknown)}")
    for key, required, _, _ in rules:
        if required and key not in doc:
            _fail(where, f"missing key {key!r}")
    for key, _, test, msg in rules:
        if key in doc and not test(doc[key], doc["dim"]):
            _fail(f"{where}.{key}", msg.format(dim=doc["dim"]))


def _rows(doc, where: str, table: str, triangle, message: str) -> dict:
    """{(i, j): dense vector} from the [i, j, k, coeff] rows of ``doc[table]``,
    each with ``triangle(i, j)`` (else ``message`` on (i, j) is the error)."""
    field, dim = doc["field"], doc["dim"]
    data: dict = {}
    seen = set()
    for pos, row in enumerate(doc[table]):
        loc = f"{where}.{table}[{pos}]"
        if not isinstance(row, list) or len(row) != 4:
            _fail(loc, "each entry must be [i, j, k, coeff]")
        for label, idx in zip("ijk", row):
            if type(idx) is not int or not 1 <= idx <= dim:  # true and false are not indices
                _fail(loc, f"index {label}={idx!r} out of range 1..{dim}")
        i, j, k, coeff = row
        if not triangle(i, j):
            _fail(loc, message.format(i, j))
        if (i, j, k) in seen:
            _fail(loc, f"duplicate key ({i},{j},{k})")
        seen.add((i, j, k))
        try:
            value = scalars.scalar_from_json(field, coeff)
        except scalars.ScalarError as exc:
            _fail(loc, str(exc))
        data.setdefault((i, j), [scalars.zero(field)] * dim)[k - 1] = value
    return {key: tuple(vec) for key, vec in data.items()}


def _load_document(source) -> tuple:
    """The JSON value read from a path, a stream or stdin ("-"), and its name."""
    if hasattr(source, "read"):
        read, where = source.read, getattr(source, "name", "<stream>")
    elif source == "-":
        read, where = sys.stdin.read, "<stdin>"
    else:
        read, where = Path(source).read_text, str(Path(source))
    try:
        return json.loads(read()), where
    except OSError as exc:
        raise AlgebraFileError(f"{where}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer longer than int() converts
        raise AlgebraFileError(f"{where}: invalid JSON ({exc})") from exc


def algebra_from_dict(doc, where: str = "<doc>") -> Algebra:
    _header(doc, where, _ALGEBRA_KEYS)
    products = _rows(doc, where, "constants", *_TRIANGLES[doc["kind"]])
    return Algebra(doc["name"], doc["kind"], doc["field"], doc["dim"], products,
                   basis_labels=doc.get("basis"))


def algebra_to_dict(alg: Algebra) -> dict:
    constants = [[i, j, k, scalars.scalar_to_json(alg.field, c)]
                 for (i, j), terms in sorted(alg.tensor.items()) if i <= j for k, c in terms]
    doc = {
        "name": alg.name,
        "kind": alg.kind,
        "field": alg.field,
        "dim": alg.dim,
        "constants": constants,
    }
    if alg.basis_labels is not None:
        doc["basis"] = list(alg.basis_labels)
    return doc


def emit_algebra(alg: Algebra) -> str:
    return json.dumps(algebra_to_dict(alg), indent=2, sort_keys=True) + "\n"


def parse_algebra_file(source) -> Algebra:
    return algebra_from_dict(*_load_document(source))


def write_algebra_file(alg: Algebra, target) -> None:
    text = emit_algebra(alg)
    if hasattr(target, "write"):
        target.write(text)
    elif target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text)


# -- degree-2 cochain files (used by the deform command) --------------------

def cochain_from_dict(doc, where: str = "<doc>") -> ChevalleyCochain:
    _header(doc, where, _COCHAIN_KEYS)
    data = _rows(doc, where, "entries", operator.lt,
                 "entry ({},{}) must have i < j (alternating cochain)")
    return ChevalleyCochain(2, doc["dim"], data)


def parse_cochain_file(source) -> ChevalleyCochain:
    return cochain_from_dict(*_load_document(source))
