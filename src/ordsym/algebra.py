"""Finite-dimensional associative algebras given by sparse structure constants.

An algebra is a basis, a field, and the coordinate vectors of every
pairwise basis product (only nonzero products stored).  Associativity is
checked eagerly on construction, on the structure constants themselves; a
report-returning validator is exposed for mutation testing and file input.

Evaluation of free polynomials, the degreewise spans of order-symmetric
values, nil-index and algebraicity-degree searches all live here.  The
degreewise spans are computed by the first-letter recursion

    s[profile] = sum_j  a_j * s[profile - e_j]

(proved and property-tested in the free algebra, transported here by the
evaluation homomorphism), which is exponentially cheaper than expanding
the symmetric sums word by word.  One level walk, _nonzero_levels, runs it
for sym_values, sym_span_in, sym_span_chain and uniform_nil_index.  It
pushes each nonzero value of a level into the profiles above it, so a
level holds only its nonzero values, and the walk ends at the first empty
level.

Only sym_values reads the free algebra (for the order of its profiles),
and it imports freealg when called; evaluate names FreePoly in its
annotation alone.  So no command that reads an algebra loads freealg.

An algebra stores its structure constants once, as sparse raw rows, and
an element its coordinates, as sparse raw values {index: raw} (see
fields); mul, unit and coords are views that wrap them into Scalars on
first read.  A product is the sparse sum, through linalg.combine, of the
structure constants against which its two factors' entries meet; every
sum, difference and scalar multiple of elements is one combine too, and
so is each value of the level walk.  multiply_coords and the dense
constructors are boundary adapters over those kernels.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .fields import Field, Scalar, dense_scalars, raw_value, read_sparse
from .io import InvalidAlgebraError
from .linalg import Subspace, combine

if TYPE_CHECKING:
    from .freealg import FreePoly

__all__ = [
    "ValidationReport",
    "InvalidAlgebraError",
    "StructureAlgebra",
    "AlgElement",
    "evaluate",
    "sym_values",
    "sym_span_in",
    "ChainResult",
    "sym_span_chain",
    "uniform_nil_index",
    "brute_force_nil_index",
    "algebraic_degree",
    "BoundResult",
    "uniform_algebraic_bound",
]

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
        if isinstance(other, (Scalar, int, Fraction)):
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
        """Least n <= cutoff with self**n = 0, or None."""
        p = self
        for n in range(1, cutoff + 1):
            if p.is_zero():
                return n
            p = p * self
        return None

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


def evaluate(p: FreePoly, assignment: Sequence[AlgElement]) -> AlgElement:
    """Image of a free polynomial under generator j -> assignment[j-1]: one combine of (coefficient, word value)."""
    if not assignment:
        raise ValueError("empty assignment")
    if len(assignment) != p.ngens:
        raise ValueError(f"assignment length {len(assignment)} != arity {p.ngens}")
    algebra = assignment[0].algebra
    if any(e.algebra is not algebra for e in assignment):
        raise ValueError("assignment mixes algebras")
    if p.field != algebra.field:
        raise ValueError("polynomial and algebra fields differ")
    terms = []
    for word, c in p._terms.items():
        v = assignment[word[0] - 1]._raw if word else algebra.unit_element()._raw  # raises without a unit
        for letter in word[1:]:
            v = algebra.product(v, assignment[letter - 1]._raw)
        terms.append((c, v))
    return AlgElement.from_raw(algebra, combine(algebra.field, terms))


def sym_values(elts: Sequence[AlgElement], max_total: int) -> dict[tuple[int, ...], AlgElement]:
    """Values of every order-symmetric sum of total degree 1..max_total.

    Computed by the first-letter recursion, one algebra multiplication per
    lattice edge out of a nonzero value; agrees with
    evaluate(sym_poly(profile), elts) everywhere (tested), but stays
    polynomial in the degree.  Every profile is returned, degree by degree
    in multidegrees order, the ones the walk leaves out as zero.
    """
    from .freealg import multidegrees

    levels = _nonzero_levels(elts)
    zero = elts[0].algebra.zero_element()
    vals: dict[tuple[int, ...], AlgElement] = {}
    for total in range(1, max_total + 1):
        level = next(levels, {})
        for md in multidegrees(total, len(elts)):
            vals[md] = level.get(md, zero)
    return vals


def _level_values(
    elts: Sequence[AlgElement], level: dict[tuple[int, ...], AlgElement]
) -> dict[tuple[int, ...], AlgElement]:
    """One step of the first-letter recursion, pushed from the nonzero values of a level.

    s[profile] = sum_j a_j * s[profile - e_j], so each value s[md] adds
    the product terms of a_j * s[md] into the profile md + e_j, and each
    profile's terms are summed by one combine.  Sums that cancel are
    dropped, so the next level holds only its nonzero values too.
    """
    algebra = elts[0].algebra
    by_left = algebra._by_left
    # a_j * v is zero unless v meets a right factor of some entry of a_j
    factors = [(a._raw, {k for i in a._raw for k in by_left[i]}) for a in elts]
    terms: dict[tuple[int, ...], list] = {}
    for md, v in level.items():
        v = v._raw
        for j, (a, right) in enumerate(factors):
            if right.isdisjoint(v):
                continue
            t = algebra.products(a, v)
            if t:
                terms.setdefault((*md[:j], md[j] + 1, *md[j + 1:]), []).extend(t)
    field = algebra.field
    return {md: AlgElement.from_raw(algebra, raw) for md, t in terms.items() if (raw := combine(field, t))}


def _first_level(elts: Sequence[AlgElement]) -> dict[tuple[int, ...], AlgElement]:
    """The nonzero degree-1 values: a_j at the profile e_j."""
    m = len(elts)
    return {
        tuple(1 if t == j else 0 for t in range(m)): e
        for j, e in enumerate(elts)
        if not e.is_zero()
    }


def _nonzero_levels(elts: Sequence[AlgElement]) -> Iterator[dict[tuple[int, ...], AlgElement]]:
    """The levels of degree 1, 2, ... of the first-letter recursion, up to an empty one.

    A level maps each profile with a nonzero value to that value.  Each
    level is pushed from the one before, so an empty level forces every
    later level to be empty: the walk ends there, without yielding it.  A
    level is computed only when it is asked for, and an empty tuple raises
    at the call rather than at the first step.
    """
    if not elts:
        raise ValueError("need at least one element")

    def walk(level):
        while level:
            yield level
            level = _level_values(elts, level)

    return walk(_first_level(elts))


def sym_span_in(elts: Sequence[AlgElement], n: int) -> Subspace:
    """Span of all degree-n order-symmetric values, in algebra coordinates.

    The level walk ends at the first empty level, so degree-N checks with
    N far above the nilpotency degree cost nothing extra: a walk that ends
    before degree n leaves the zero subspace.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    levels = _nonzero_levels(elts)
    algebra = elts[0].algebra
    span = Subspace(algebra.field, algebra.dim)
    for degree, level in enumerate(islice(levels, n), start=1):
        if degree == n:
            for v in level.values():
                span.insert_raw(v._raw)
    return span


class ChainResult(Record):
    """Degreewise growth of the cumulative span of order-symmetric values.

    growth[i] is the dimension added at degree i+1; cumulative is the span
    of every degree computed; stabilized_at is the first degree that added
    nothing (the stopping point), or None if the hard cap hit first.
    includes_degree_zero records whether the unit seeded the span.
    """

    def __init__(
        self,
        growth: list[int],
        cumulative: Subspace,
        stabilized_at: Optional[int],
        includes_degree_zero: bool,
    ):
        self.growth = growth
        self.cumulative = cumulative
        self.stabilized_at = stabilized_at
        self.includes_degree_zero = includes_degree_zero


def sym_span_chain(
    elts: Sequence[AlgElement],
    include_degree_zero: bool = False,
    stop_at_plateau: bool = True,
    max_degree: Optional[int] = None,
) -> ChainResult:
    """Cumulative spans of order-symmetric values, degree by degree.

    Stops at the first degree whose values add nothing to the span, capped
    at the algebra dimension.  Over a field with more elements than the
    cap, the cap is provably exhaustive (every element is algebraic of
    degree at most dim+1, which pins all higher symmetric spans inside the
    cumulative one).  Over small prime fields a plateau can be deceptive:
    symmetric sums may vanish for a few degrees because the characteristic
    divides their multinomial coefficients, and reappear later, so pass
    stop_at_plateau=False (and a taller max_degree) when the tail matters;
    uniform_algebraic_bound does exactly that for its certificate.
    """
    levels = _nonzero_levels(elts)
    algebra = elts[0].algebra
    cap = max(algebra.dim if max_degree is None else max_degree, 1)
    cum = Subspace.zero(algebra.field, algebra.dim)
    if include_degree_zero:
        if not algebra.is_unital:
            raise ValueError("degree-zero component needs a unital algebra")
        cum.insert_raw(algebra._unit)
    growth: list[int] = []
    for level in islice(levels, cap):
        before = cum.dim
        for v in level.values():
            cum.insert_raw(v._raw)
        growth.append(cum.dim - before)
        if cum.dim == algebra.dim or (stop_at_plateau and not growth[-1]):
            break
    # Every degree the walk did not reach adds nothing: the span is already
    # the whole algebra, or a level vanished and all later ones with it.
    if not stop_at_plateau:
        growth.extend([0] * (cap - len(growth)))
    elif 0 not in growth and len(growth) < cap:
        growth.append(0)
    stabilized_at = growth.index(0) + 1 if 0 in growth else None
    return ChainResult(growth, cum, stabilized_at, include_degree_zero)


def uniform_nil_index(elts: Sequence[AlgElement], cutoff: Optional[int] = None) -> Optional[int]:
    """Least n with the whole degree-n symmetric span zero, or None up to cutoff.

    A zero span at degree n certifies that every linear combination of the
    elements has n-th power zero, over any field (no field-size hypothesis
    for this direction).  Once some degree's values all vanish, so do all
    later ones, by the first-letter recursion, so the first empty level
    is exactly the certificate degree.
    """
    levels = _nonzero_levels(elts)
    algebra = elts[0].algebra
    cap = algebra.dim + 1 if cutoff is None else cutoff
    # A non-nilpotent member rules out a zero span at every degree: the
    # combination picking that member alone would have to vanish.
    for e in elts:
        if e.nil_index(cap) is None:
            return None
    nonzero = sum(1 for _ in islice(levels, cap))
    return nonzero + 1 if nonzero < cap else None


BRUTE_FORCE_BUDGET = 200_000  # most coefficient tuples brute_force_nil_index enumerates


def brute_force_nil_index(
    elts: Sequence[AlgElement], budget: int = BRUTE_FORCE_BUDGET
) -> Optional[int]:
    """Exhaustive oracle: max nilpotence index over every field combination.

    Only for finite fields; enumerates all |field|^m coefficient tuples and
    powers each combination directly.  None if any combination fails to
    vanish within dim+1.
    """
    if not elts:
        raise ValueError("need at least one element")
    algebra = elts[0].algebra
    f = algebra.field
    if not f.is_finite:
        raise ValueError("brute-force enumeration needs a finite field")
    total = f.p ** len(elts)
    if total > budget:
        raise ValueError(f"enumeration budget exceeded: {total} > {budget}")
    cap = algebra.dim + 1
    worst = 1
    for coeffs in product(f.elements(), repeat=len(elts)):
        v = AlgElement.from_raw(algebra, combine(f, ((c.value, e._raw) for c, e in zip(coeffs, elts))))
        idx = v.nil_index(cap)
        if idx is None:
            return None
        worst = max(worst, idx)
    return worst


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
    p = a
    for d in range(1, algebra.dim + 3):
        if not spanned.insert_raw(p._raw):
            return d
        p = p * a
    raise RuntimeError("unreachable: powers span a bounded space")


class BoundResult(Record):
    """Uniform algebraicity certificate from the stabilized span chain.

    d is the least degree with the cumulative span equal to the span of
    degrees < d; bound = C(d+m-1, m) then caps the algebraic degree of
    every linear combination of the elements.  sampled_degrees are seeded
    spot checks, each necessarily <= bound.
    """

    def __init__(self, d: int, bound: int, chain: ChainResult, sampled_degrees: list[int]):
        self.d = d
        self.bound = bound
        self.chain = chain
        self.sampled_degrees = sampled_degrees


def _least_collapse_degree(chain: ChainResult) -> int:
    """Least d with the cumulative span already reached by degree d-1."""
    final = chain.cumulative.dim
    d, acc = 1, 0
    for g in chain.growth:
        if acc == final:
            break
        acc += g
        d += 1
    return d


def uniform_algebraic_bound(
    elts: Sequence[AlgElement], samples: int = 8, seed: int = 0
) -> BoundResult:
    """Certified bound on the algebraic degree of every combination of elts.

    Finds the least d with the whole symmetric span collapsed into degrees
    < d, then verifies the collapse literally up to degree C(d+m-1, m): the
    cumulative span through that degree has dimension below the bound, so
    the powers 1..bound of any combination are linearly dependent.  That
    hypothesis-checking loop makes the certificate valid over any field;
    a plateau alone is not sufficient evidence on small prime fields,
    where symmetric sums can vanish for several degrees (binomial
    coefficients divisible by the characteristic) and then reappear.
    """
    m = len(elts)
    algebra = elts[0].algebra
    horizon = algebra.dim
    while True:
        chain = sym_span_chain(elts, stop_at_plateau=False, max_degree=horizon)
        d = _least_collapse_degree(chain)
        bound = comb(d + m - 1, m)
        if chain.cumulative.dim == algebra.dim:
            break  # the span is the whole algebra; nothing can escape it
        if horizon >= bound:
            break
        horizon = bound
    rng = random.Random(seed)
    degrees: list[int] = []
    for _ in range(samples):
        v = combine(algebra.field, ((rng.randint(-3, 3), e._raw) for e in elts))
        degrees.append(algebraic_degree(AlgElement.from_raw(algebra, v)))
    if any(deg > bound for deg in degrees):
        raise RuntimeError("algebraicity bound violated by a sampled element")
    return BoundResult(d, bound, chain, degrees)
