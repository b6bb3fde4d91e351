"""Serialization of algebras and degree-2 cochains.

The algebra file is a JSON document:

    {"name": str, "kind": "lie"|"assoc-comm", "field": "Q"|"Qi",
     "dim": int, "basis": [labels...],      # optional
     "constants": [[i, j, k, coeff], ...]}

with 1-based indices, only i < j rows for Lie kind (i <= j for
assoc-comm), coefficients "p/q" over Q and {"re": "p/q", "im": "p/q"}
over Qi.  Emission is canonical: sorted keys, sorted index triples,
lowest-terms coefficients, two-space indent, trailing newline; parsing a
canonical file and emitting it again reproduces it byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Union

from . import scalars
from .algebra import ASSOC_COMM, KINDS, LIE, Algebra
from .cohomology import ChevalleyCochain

Source = Union[str, Path]


class AlgebraFileError(ValueError):
    """Schema violation with a location-carrying message."""


def _fail(where: str, msg: str):
    raise AlgebraFileError(f"{where}: {msg}")


def _index_row(row, dim: int, loc: str) -> list:
    """An [i, j, k, coeff] row whose indices are integers (not booleans) in 1..dim."""
    if not isinstance(row, list) or len(row) != 4:
        _fail(loc, "each entry must be [i, j, k, coeff]")
    for label, idx in zip("ijk", row):
        if type(idx) is not int or not 1 <= idx <= dim:
            _fail(loc, f"index {label}={idx!r} out of range 1..{dim}")
    return row


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
    if not isinstance(doc, dict):
        _fail(where, "top-level JSON value must be an object")
    unknown = set(doc) - {"name", "kind", "field", "dim", "basis", "constants"}
    if unknown:
        _fail(where, f"unknown keys {sorted(unknown)}")
    for key in ("name", "kind", "field", "dim", "constants"):
        if key not in doc:
            _fail(where, f"missing key {key!r}")
    name, kind, field, dim = doc["name"], doc["kind"], doc["field"], doc["dim"]
    if not isinstance(name, str):
        _fail(f"{where}.name", "must be a string")
    if kind not in KINDS:
        _fail(f"{where}.kind", f"must be one of {list(KINDS)}")
    if field not in scalars.FIELDS:
        _fail(f"{where}.field", f"must be one of {list(scalars.FIELDS)}")
    if type(dim) is not int or dim < 1:  # true and false are not integers here
        _fail(f"{where}.dim", "must be a positive integer")
    basis = doc.get("basis")
    if basis is not None:
        if (not isinstance(basis, list) or len(basis) != dim
                or not all(isinstance(b, str) for b in basis)):
            _fail(f"{where}.basis", f"must be a list of {dim} labels")
    if not isinstance(doc["constants"], list):
        _fail(f"{where}.constants", "must be a list")

    products: dict = {}
    seen = set()
    for pos, row in enumerate(doc["constants"]):
        loc = f"{where}.constants[{pos}]"
        i, j, k, coeff = _index_row(row, dim, loc)
        if kind == LIE and i >= j:
            _fail(loc, f"lower-triangular entry ({i},{j}) not permitted for lie")
        if kind == ASSOC_COMM and i > j:
            _fail(loc, f"entry ({i},{j}) must have i <= j for assoc-comm")
        if (i, j, k) in seen:
            _fail(loc, f"duplicate key ({i},{j},{k})")
        seen.add((i, j, k))
        try:
            value = scalars.scalar_from_json(field, coeff)
        except scalars.ScalarError as exc:
            _fail(loc, str(exc))
        vec = products.setdefault((i, j), [scalars.zero(field)] * dim)
        vec[k - 1] = value
    return Algebra(name, kind, field, dim,
                   {key: tuple(vec) for key, vec in products.items()},
                   basis_labels=basis)


def algebra_to_dict(alg: Algebra) -> dict:
    constants = []
    for (i, j), vec in sorted(alg.table.items()):
        for k, c in enumerate(vec, start=1):
            if c != 0:
                constants.append([i, j, k, scalars.scalar_to_json(alg.field, c)])
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
    if not isinstance(doc, dict):
        _fail(where, "top-level JSON value must be an object")
    unknown = set(doc) - {"name", "field", "dim", "degree", "entries"}
    if unknown:
        _fail(where, f"unknown keys {sorted(unknown)}")
    for key in ("field", "dim", "entries"):
        if key not in doc:
            _fail(where, f"missing key {key!r}")
    field, dim = doc["field"], doc["dim"]
    if field not in scalars.FIELDS:
        _fail(f"{where}.field", f"must be one of {list(scalars.FIELDS)}")
    if type(dim) is not int or dim < 1:  # true and false are not integers here
        _fail(f"{where}.dim", "must be a positive integer")
    degree = doc.get("degree", 2)
    if type(degree) is not int or degree != 2:  # 2.0 and true are not the int 2
        _fail(f"{where}.degree", "only degree-2 cochains are supported")
    if not isinstance(doc["entries"], list):
        _fail(f"{where}.entries", "must be a list")
    data: dict = {}
    seen = set()
    for pos, row in enumerate(doc["entries"]):
        loc = f"{where}.entries[{pos}]"
        i, j, k, coeff = _index_row(row, dim, loc)
        if i >= j:
            _fail(loc, f"entry ({i},{j}) must have i < j (alternating cochain)")
        if (i, j, k) in seen:
            _fail(loc, f"duplicate key ({i},{j},{k})")
        seen.add((i, j, k))
        try:
            value = scalars.scalar_from_json(field, coeff)
        except scalars.ScalarError as exc:
            _fail(loc, str(exc))
        vec = data.setdefault((i, j), [scalars.zero(field)] * dim)
        vec[k - 1] = value
    return ChevalleyCochain(2, dim, {k: tuple(v) for k, v in data.items()})


def parse_cochain_file(source) -> ChevalleyCochain:
    return cochain_from_dict(*_load_document(source))
