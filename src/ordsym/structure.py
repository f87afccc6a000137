"""The algebra core: structure constants, elements, and the record base of results.

An algebra is a basis, a field, and the sparse coordinate vectors of every
pairwise basis product.  Associativity is checked eagerly on construction,
on the structure constants; validate returns a report for mutation testing
and file input.  Constants and element coordinates are stored once, as
sparse raw values {index: raw} (see fields); mul, unit and coords are views
wrapped into Scalars on first read.  Every product, sum and scalar multiple
is one linalg.combine, and multiply_coords and the dense constructors are
boundary adapters over it.  The two power searches, raw_nil_index (which
AlgElement.nil_index and algebra.brute_force_nil_index run) and
algebraic_degree, take each next power with StructureAlgebra.product on
raw rows, so neither builds an AlgElement.

A check that reads only a filtration needs nothing else of an algebra, so
it loads this module and not algebra, which imports these names back;
rees takes algebraic_degree from here too.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .fields import Field, Scalar, dense_scalars, is_rational, raw_value, read_sparse
from .errors import InvalidAlgebraError
from .linalg import Subspace, combine

__all__ = ["Record", "ValidationReport", "StructureAlgebra", "AlgElement", "algebraic_degree"]

Coords = tuple[Scalar, ...]


class Record:
    """Base of the result classes: a mutable record of its constructor's arguments.

    Each subclass's __init__ keeps every parameter as the attribute of the
    same name.  Those attributes, in parameter order, are the record's
    value: == compares them between records of one class, and repr shows
    them.  Any other attribute is not part of the value.  Records are
    unhashable, as they are mutable.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"


class ValidationReport(Record):
    def __init__(self, ok: bool, failures: Optional[list[dict]] = None):
        self.ok = ok
        self.failures = [] if failures is None else failures
        # what a passing check built and its caller may reuse (a filtration's
        # adapted basis); not part of the report's value
        self.basis: object = None

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(
            f"{f['law']} fails at {f.get('where')}" for f in self.failures
        )


class StructureAlgebra:
    """Associative algebra over a field, multiplication given basis-by-basis.

    mul maps a 0-based index pair (i, j) to the sparse coordinate dict of
    the product of basis elements i and j; absent pairs multiply to zero.
    Constants and unit are stored once, raw, in _by_left and _unit; mul and
    unit are read-only views of them, wrapped on first read.
    """

    __slots__ = ("field", "dim", "names", "_by_left", "_unit", "_mul", "_unit_coords")

    def __init__(
        self,
        field: Field,
        names: Sequence[str],
        mul: dict[tuple[int, int], dict[int, object]],
        unit: Sequence | None = None,
        check: bool = True,
    ):
        self.field = field
        self.dim = len(names)
        self.names = tuple(names)
        # per left factor i, the raw constants c_ij^k as {j: {k: c}}
        self._by_left: list[dict[int, dict[int, object]]] = [{} for _ in range(self.dim)]
        for (i, j), entry in mul.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"product index ({i},{j}) out of range")
            row = {}
            for k, c in entry.items():
                if not (0 <= k < self.dim):
                    raise ValueError(f"product target index {k} out of range")
                if v := raw_value(field, c):
                    row[k] = v
            if row:
                self._by_left[i][j] = row
        if unit is not None and len(unit) != self.dim:
            raise ValueError("unit vector has wrong length")
        self._unit = None if unit is None else read_sparse(field, unit)
        self._mul = self._unit_coords = None
        if check:
            report = self.validate()
            if not report.ok:
                raise InvalidAlgebraError(report)

    @property
    def mul(self) -> dict[tuple[int, int], dict[int, Scalar]]:
        """The nonzero constants {(i, j): {k: c_ij^k}} as Scalars, wrapped on first read."""
        if self._mul is None:
            self._mul = {(i, j): {k: Scalar(self.field, c) for k, c in row.items()}
                         for i, left in enumerate(self._by_left) for j, row in left.items()}
        return self._mul

    @property
    def unit(self) -> Optional[Coords]:
        """The unit's coordinates as Scalars, wrapped on first read; None without a unit."""
        if self._unit_coords is None and self._unit is not None:
            self._unit_coords = dense_scalars(self.field, self.dim, self._unit)
        return self._unit_coords

    @property
    def is_unital(self) -> bool:
        return self._unit is not None

    def multiply_coords(self, a: Sequence[Scalar], b: Sequence[Scalar]) -> Coords:
        """Coordinates of the product: product on the entries read through the field check."""
        if len(a) != self.dim or len(b) != self.dim:
            raise ValueError("coordinate vector has wrong length")
        field = self.field
        return dense_scalars(field, self.dim, self.product(read_sparse(field, a), read_sparse(field, b)))

    def products(self, a: dict, b: dict) -> list[tuple[object, dict]]:
        """The terms (a_i * b_j, raw constants of e_i e_j) whose combine is a * b, for sparse raw a and b."""
        by_left = self._by_left
        return [(x * y, row) for i, x in a.items() if (left := by_left[i])
                for j, y in b.items() if (row := left.get(j))]

    def product(self, a: dict, b: dict) -> dict:
        """a * b on sparse raw coordinates."""
        return combine(self.field, self.products(a, b))

    def validate(self) -> ValidationReport:
        """Associativity on all basis triples, unit laws if a unit is declared.

        Associativity is read off the raw structure constants that
        multiply_coords uses: for each pair (i, j), the sparse rows
        (e_i e_j) e_k = sum_l c_ij^l (e_l e_k) and e_i (e_j e_k) =
        sum_l c_jk^l (e_i e_l) are summed for every k at once and must
        agree.  Stops at the first violating triple per law, as the
        witnesses are what mutation tests need.
        """
        by_left, field, dim = self._by_left, self.field, self.dim
        for i, left in enumerate(by_left):
            for j in range(dim):
                lhs = _sparse_rows(field, (
                    (k, c, row) for l, c in left.get(j, {}).items() for k, row in by_left[l].items()
                ))
                rhs = _sparse_rows(field, (
                    (k, c, left[l]) for k, jk in by_left[j].items() for l, c in jk.items() if l in left
                ))
                if lhs != rhs:
                    k = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
                    lhs, rhs = (dense_scalars(field, dim, r.get(k, {})) for r in (lhs, rhs))
                    return ValidationReport(False, [
                        {"law": "associativity", "where": (i, j, k), "lhs": lhs, "rhs": rhs}
                    ])
        if self._unit is not None:
            for i in range(dim):
                e = {i: 1}
                if self.product(self._unit, e) != e or self.product(e, self._unit) != e:
                    return ValidationReport(False, [{"law": "unit", "where": i}])
        return ValidationReport(True)

    def element(self, coords: Iterable) -> "AlgElement":
        return AlgElement(self, tuple(coords))

    def basis_element(self, i: int) -> "AlgElement":
        if not (0 <= i < self.dim):
            raise ValueError(f"basis index {i} out of range")
        return AlgElement.from_raw(self, {i: 1})

    def basis_elements(self) -> list["AlgElement"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def zero_element(self) -> "AlgElement":
        return AlgElement.from_raw(self, {})

    def unit_element(self) -> "AlgElement":
        if self._unit is None:
            raise ValueError("algebra has no unit")
        return AlgElement.from_raw(self, self._unit)

    def __repr__(self) -> str:
        return f"StructureAlgebra(dim={self.dim}, field={self.field})"


def _sparse_rows(field: Field, terms: Iterable[tuple[int, object, dict]]) -> dict[int, dict]:
    """The nonzero sums of c * row into row k over (k, c, row) triples of raw sparse rows."""
    grouped: dict[int, list] = {}
    for k, c, row in terms:
        grouped.setdefault(k, []).append((c, row))
    return {k: acc for k, t in grouped.items() if (acc := combine(field, t))}


class AlgElement:
    """Element of a StructureAlgebra, held immutably as sparse raw coordinates {index: raw}.

    The constructor reads dense coordinates through the field check, and
    from_raw takes a kernel's result.  coords wraps them on first read.
    """

    __slots__ = ("algebra", "_raw", "_coords")

    def __init__(self, algebra: StructureAlgebra, coords: Coords):
        if len(coords) != algebra.dim:
            raise ValueError("coordinate vector has wrong length")
        self.algebra = algebra
        self._raw = read_sparse(algebra.field, coords)
        self._coords = None

    @classmethod
    def from_raw(cls, algebra: StructureAlgebra, raw: dict) -> "AlgElement":
        """The element with canonical sparse raw coordinates raw, taken as they are."""
        e = cls.__new__(cls)
        e.algebra, e._raw, e._coords = algebra, raw, None
        return e

    @property
    def coords(self) -> Coords:
        if self._coords is None:
            self._coords = dense_scalars(self.algebra.field, self.algebra.dim, self._raw)
        return self._coords

    def _check(self, other: "AlgElement") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("elements of different algebras")

    def _combine(self, terms) -> "AlgElement":
        algebra = self.algebra
        return AlgElement.from_raw(algebra, combine(algebra.field, terms))

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        return self._combine(((1, self._raw), (1, other._raw)))

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        return self._combine(((1, self._raw), (-1, other._raw)))

    def __neg__(self) -> "AlgElement":
        return self._combine(((-1, self._raw),))

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return AlgElement.from_raw(self.algebra, self.algebra.product(self._raw, other._raw))
        if isinstance(other, Scalar) or is_rational(other):
            return self._combine(((raw_value(self.algebra.field, other), self._raw),))
        return NotImplemented

    __rmul__ = __mul__  # scalars are central

    def __pow__(self, n: int) -> "AlgElement":
        if n < 1:
            if n == 0 and self.algebra.is_unital:
                return self.algebra.unit_element()
            raise ValueError("power must be >= 1 (or 0 in a unital algebra)")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self._raw

    def nil_index(self, cutoff: int) -> Optional[int]:
        """Least n <= cutoff with self**n = 0, or None; see raw_nil_index."""
        return raw_nil_index(self.algebra, self._raw, cutoff)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgElement)
            and self.algebra is other.algebra
            and self._raw == other._raw
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._raw.items()))

    def __repr__(self) -> str:
        parts = [f"({c})*{self.algebra.names[i]}" for i, c in sorted(self._raw.items())]
        return " + ".join(parts) if parts else "0"


def raw_nil_index(algebra: StructureAlgebra, a: dict, cutoff: int) -> Optional[int]:
    """Least n <= cutoff with a**n = 0 for a sparse raw row a, or None; the powers are raw rows."""
    product, p = algebra.product, a
    for n in range(1, cutoff + 1):
        if not p:
            return n
        p = product(p, a)
    return None


def algebraic_degree(a: AlgElement, unital: bool = False) -> int:
    """Least d >= 1 with a**d in the span of lower powers.

    Non-unital by default: the span runs over a, ..., a**(d-1) only.  With
    unital=True the identity joins the span (the algebra must have one).
    Always terminates: powers live in a space of dimension at most dim, so
    d never exceeds dim + 1 (dim + 2 in the seeded-unit case).
    """
    algebra = a.algebra
    spanned = Subspace(algebra.field, algebra.dim)
    if unital:
        spanned.insert_raw(algebra.unit_element()._raw)  # raises if no unit
    p = a._raw
    for d in range(1, algebra.dim + 3):
        if not spanned.insert_raw(p):
            return d
        p = algebra.product(p, a._raw)
    raise RuntimeError("unreachable: powers span a bounded space")
