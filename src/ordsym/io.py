"""JSON descriptions of algebras and filtrations.

Schema (1-based indices on the wire):

    {
      "field": {"kind": "Q"} | {"kind": "GF", "p": 7},
      "dim": D,
      "basis": ["E11", ...],
      "unit": [c1, ..., cD],                  # optional
      "mul": [[i, j, [[k, coeff], ...]], ...],
      "filtration": [[[v...], ...], ...]      # optional, spanning vectors per stage
    }

dim, p and the indices i, j, k are JSON integers (true and false are
not), and one product names each target k once.  Rational coefficients
travel as "num/den" strings (plain integers allowed); prime-field
coefficients as integers, each read once by fields.raw_from_json into the
raw form that is stored; fields.read_vector, re-exported here, reads every
JSON vector, --elements and --coeffs too, and names a bad entry by its
place.
dump_description writes that stored raw form back through raw_to_json, so
neither direction builds a Scalar.  A field override re-reads every
constant in the requested field, so one fixture can exercise both Q and a
small prime field.  A filtration comes back as a Chain of stages that no
law has checked, so reading a description loads no graded.

Only a check that reads a description file (--input) loads this module;
a vector flag needs read_vector alone, which lives in fields.  The error
classes of the command line live in errors; io re-exports them, so
ordsym.io.InputError and the others are the same objects.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import InputError, InvalidAlgebraError, InvalidFiltrationError  # noqa: F401  (the last two re-exported)
from .fields import Field, _fail, _value, field_make, field_to_json, raw_to_json, read_vector

if TYPE_CHECKING:
    from .linalg import Subspace
    from .structure import StructureAlgebra

__all__ = ["InputError", "Chain", "read_vector", "load_description", "dump_description", "load_path"]


class Chain(NamedTuple):
    """A description's filtration as read: its stages, checked against no law yet."""

    stages: tuple[Subspace, ...]


def _index(x, dim: int) -> bool:
    """Whether x is a 1-based index in 1..dim: a JSON integer, and no bool."""
    return x.__class__ is int and 1 <= x <= dim


def load_description(doc: dict, field_override: Optional[Field] = None):
    """Parse a description into (StructureAlgebra, Chain | None).

    Both come back unvalidated (schema checks only); callers decide
    whether a broken tensor or chain is a failed check or a fatal error.
    """
    from .linalg import Subspace
    from .structure import StructureAlgebra

    if not isinstance(doc, dict):
        _fail("document", "expected a JSON object")
    try:
        field = field_make(doc.get("field", {"kind": "Q"}))
    except ValueError as e:
        _fail("field", str(e))
    if field_override is not None:
        field = field_override
    dim = doc.get("dim")
    if dim.__class__ is not int or dim < 1:
        _fail("dim", f"expected a positive integer, got {dim!r}")
    basis = doc.get("basis")
    if not isinstance(basis, list) or len(basis) != dim:
        _fail("basis", f"expected {dim} names")
    names = [str(b) for b in basis]
    mul_rows = doc.get("mul")
    if not isinstance(mul_rows, list):
        _fail("mul", "expected a list of [i, j, products] rows")
    mul: dict[tuple[int, int], dict[int, object]] = {}
    for r, row in enumerate(mul_rows):
        where = f"mul[{r}]"
        if not (isinstance(row, list) and len(row) == 3):
            _fail(where, "expected [i, j, [[k, coeff], ...]]")
        i, j, prods = row
        if not (_index(i, dim) and _index(j, dim)):
            _fail(where, f"indices must be in 1..{dim}")
        if (i - 1, j - 1) in mul:
            _fail(where, f"duplicate product entry for ({i},{j})")
        if not isinstance(prods, list):
            _fail(where, "products must be a list of [k, coeff]")
        entry: dict[int, object] = {}
        for s, pair in enumerate(prods):
            if not (isinstance(pair, list) and len(pair) == 2):
                _fail(f"{where}[{s}]", "expected [k, coeff]")
            k, c = pair
            if not _index(k, dim):
                _fail(f"{where}[{s}]", f"target index must be in 1..{dim}")
            if k - 1 in entry:
                _fail(f"{where}[{s}]", f"duplicate target index {k}")
            entry[k - 1] = _value(field, c, f"{where}[{s}]")
        mul[(i - 1, j - 1)] = entry
    unit = None
    if doc.get("unit") is not None:
        unit = read_vector(field, dim, doc["unit"], "unit")
    try:
        algebra = StructureAlgebra(field, names, mul, unit=unit, check=False)
    except ValueError as e:
        _fail("algebra", str(e))

    chain = None
    if doc.get("filtration") is not None:
        raw_stages = doc["filtration"]
        if not isinstance(raw_stages, list) or not raw_stages:
            _fail("filtration", "expected a nonempty list of stages")
        stages = []
        for s, vecs in enumerate(raw_stages):
            if not isinstance(vecs, list):
                _fail(f"filtration[{s}]", "expected a list of spanning vectors")
            rows = (read_vector(field, dim, v, f"filtration[{s}][{r}]") for r, v in enumerate(vecs))
            stages.append(Subspace.from_raw(field, dim, ({k: x for k, x in enumerate(row) if x} for row in rows)))
        chain = Chain(tuple(stages))
    return algebra, chain


def dump_description(algebra: StructureAlgebra, filtration=None) -> dict:
    """Serialize back to the wire schema, canonically ordered; filtration is a Filtration or a Chain."""
    doc: dict = {
        "field": field_to_json(algebra.field),
        "dim": algebra.dim,
        "basis": list(algebra.names),
    }
    field, dim = algebra.field, algebra.dim
    if algebra._unit is not None:
        doc["unit"] = [raw_to_json(field, algebra._unit.get(k, 0)) for k in range(dim)]
    doc["mul"] = [[i + 1, j + 1, [[k + 1, raw_to_json(field, c)] for k, c in sorted(left[j].items())]]
                  for i, left in enumerate(algebra._by_left) for j in sorted(left)]
    if filtration is not None:
        doc["filtration"] = [
            [[raw_to_json(field, row.get(k, 0)) for k in range(dim)] for row in stage.raw_rows()]
            for stage in filtration.stages
        ]
    return doc


def load_path(path: str, field_override: Optional[Field] = None):
    """Read and parse a description file; all failures become InputError."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"{path or repr(path)}: {e}") from None  # quoted when empty, so the message starts with a name
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except ValueError:  # an integer longer than int() converts
        raise InputError(f"{path}: a JSON integer has more than {sys.get_int_max_str_digits()} digits") from None
    return load_description(doc, field_override=field_override)
