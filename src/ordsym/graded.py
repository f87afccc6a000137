"""Filtrations of a finite-dimensional algebra and their associated graded algebras.

A filtration is a nested chain F_0 <= F_1 <= ... <= F_t of subspaces with
F_t the whole algebra and F_i * F_j <= F_{i+j} (indices clamp at t, which
is harmless because F_t absorbs).  A Filtration is always a validated
one: io.Chain, a description's stages as read, becomes one only through
the constructor.  The associated graded algebra is realized concretely:
an adapted basis is grown greedily through the chain, every product of
adapted representatives is rewritten in adapted coordinates (one
linalg.times by the inverse of the adapted basis), and the component of
top weight is kept.  The result is a StructureAlgebra in its own right
and passes the same validation as any other algebra.  All of it runs on
sparse raw vectors, stored once: GradedAlgebra.adapted, the adapted basis
as Scalars, is a view wrapped on first read.

This module reads only the algebra core of structure.  The MY1 pipeline,
the last five names of __all__, lives in nilbound (its weight check in
evaluation, which nilbound forwards to) and is resolved here on first use
(PEP 562), so check-filtration, gr and the Rees commands load neither it
nor the level walk of algebra.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .fields import dense_scalars, read_sparse
from .errors import InvalidFiltrationError
from .linalg import Subspace, inverse_rows, times
from .structure import AlgElement, Coords, Record, StructureAlgebra, ValidationReport

__all__ = [
    "Filtration",
    "InvalidFiltrationError",
    "validate_filtration",
    "GradedAlgebra",
    "associated_graded",
    "graded_nil_index_bound",
    "NilVerification",
    "verify_graded_nil_index",
    "HomogeneityReport",
    "sym_degree_check",
]


def __getattr__(name: str):
    """A name of the MY1 pipeline (no other name of __all__ reaches here), loaded on first use."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import nilbound

    value = globals()[name] = getattr(nilbound, name)
    return value


def validate_filtration(algebra: StructureAlgebra, stages: Sequence[Subspace]) -> ValidationReport:
    """Nesting, exhaustion, and multiplicativity, checked on the adapted basis.

    Stops at the first violation and carries witnesses: the stage pair and
    the offending product vector.
    """
    if not stages:
        return ValidationReport(False, [{"law": "exhaustion", "where": "empty chain"}])
    t = len(stages) - 1
    for i, s in enumerate(stages):
        if s.field != algebra.field or s.ambient != algebra.dim:
            return ValidationReport(False, [{"law": "ambient", "where": i}])
    adapted, component_dims = _adapted_basis(algebra, stages)
    # Nested below i, the rows kept through stage i span F_{i-1} + F_i.
    for i in range(1, t + 1):
        if sum(component_dims[: i + 1]) != stages[i].dim:
            return ValidationReport(False, [{"law": "nesting", "where": (i - 1, i)}])
    if stages[t].dim != algebra.dim:
        return ValidationReport(False, [{"law": "exhaustion", "where": t, "dim": stages[t].dim}])
    # A row of F_i that the adapted basis skips is a vector of F_{i-1} plus
    # earlier adapted rows of F_i, all multiplied earlier in a scan of every
    # row pair, so that scan's first failing pair is an adapted pair.  Pairs
    # with i + j >= t land in F_t, the whole algebra.
    by_degree = [[v for deg, v in adapted if deg == p] for p in range(t + 1)]
    for i in range(t):
        for j in range(t - i):
            for u in by_degree[i]:
                for v in by_degree[j]:
                    prod = algebra.product(u, v)
                    if not stages[i + j].contains_raw(prod):
                        witness = dense_scalars(algebra.field, algebra.dim, prod)
                        return ValidationReport(False, [
                            {"law": "multiplicativity", "where": (i, j), "witness": witness}
                        ])
    report = ValidationReport(True)
    report.basis = adapted, component_dims
    return report


def _adapted_basis(
    algebra: StructureAlgebra, stages: Sequence[Subspace]
) -> tuple[list[tuple[int, dict]], list[int]]:
    """Adapted basis [(degree, sparse raw vector)] grown through the chain, and its size per stage.

    A stage's echelon row is kept when it lies outside the span of the rows
    kept before it, so in a nested chain the rows of degree <= p span F_p.
    """
    adapted: list[tuple[int, dict]] = []
    component_dims: list[int] = []
    grown = Subspace.zero(algebra.field, algebra.dim)
    for p, stage in enumerate(stages):
        kept = [raw for raw in stage.raw_rows() if grown.insert_raw(raw)]
        adapted.extend((p, row) for row in kept)
        component_dims.append(len(kept))
    return adapted, component_dims


class Filtration:
    """Validated chain F_0 <= ... <= F_t with F_t the whole algebra.

    Construction raises InvalidFiltrationError on a broken law, and keeps
    the adapted basis it checked the laws on for associated_graded.
    """

    __slots__ = ("algebra", "stages", "_basis")

    def __init__(self, algebra: StructureAlgebra, stages: Sequence[Subspace]):
        self.algebra = algebra
        self.stages = tuple(stages)
        report = validate_filtration(algebra, self.stages)
        if not report.ok:
            raise InvalidFiltrationError(report)
        self._basis = report.basis

    @property
    def top(self) -> int:
        return len(self.stages) - 1

    def stage(self, i: int) -> Subspace:
        """F_i, with F_{-1} = 0 and F_i = F_t for i > t."""
        if i < 0:
            return Subspace.zero(self.algebra.field, self.algebra.dim)
        return self.stages[min(i, self.top)]

    def level_of(self, coords) -> Optional[int]:
        """Least i with the vector in F_i, or None when outside every stage."""
        for i, s in enumerate(self.stages):
            if s.contains(coords):
                return i
        return None

    def dims(self) -> list[int]:
        return [s.dim for s in self.stages]


class GradedAlgebra(Record):
    """Concrete associated graded algebra over an adapted basis.

    adapted[i] = (degree, representative vector in ambient coordinates),
    a view of _degrees[i] and the sparse raw row _vectors[i], wrapped on
    first read; the graded product of slots i and j keeps the component of
    degree deg(i) + deg(j) of the representative product.  `algebra` is the
    resulting StructureAlgebra, so every element/evaluation/span tool
    applies to graded classes unchanged.  _to_adapted is the inverse of the
    matrix whose rows are the adapted vectors: its row k holds the adapted
    coordinates of the k-th ambient basis vector, as a sparse raw row.
    """

    def __init__(
        self,
        filtration: Filtration,
        adapted: list[tuple[int, Coords]],
        component_dims: list[int],
        algebra: StructureAlgebra,
        _to_adapted: list[dict],
    ):
        self.filtration = filtration
        self.component_dims = component_dims
        self.algebra = algebra
        self._to_adapted = _to_adapted
        self._degrees = [deg for deg, _ in adapted]
        self._vectors = [read_sparse(algebra.field, vec) for _, vec in adapted]
        self._adapted = None

    @classmethod
    def from_raw(cls, filtration, degrees: list[int], vectors: list[dict], component_dims, algebra, to_adapted):
        """The graded algebra over adapted slots of these degrees and sparse raw vectors, taken as they are."""
        gr = cls(filtration, (), component_dims, algebra, to_adapted)
        gr._degrees, gr._vectors = degrees, vectors
        return gr

    @property
    def adapted(self) -> list[tuple[int, Coords]]:
        """[(degree, representative vector as Scalars)] per slot, wrapped on first read."""
        if self._adapted is None:
            field, dim = self.algebra.field, self.algebra.dim
            self._adapted = [(deg, dense_scalars(field, dim, v)) for deg, v in zip(self._degrees, self._vectors)]
        return self._adapted

    def slot_degrees(self) -> list[int]:
        return list(self._degrees)

    def slots_of_degree(self, p: int) -> list[int]:
        return [i for i, deg in enumerate(self._degrees) if deg == p]

    def adapted_coords(self, coords) -> Coords:
        """Adapted coordinates of an ambient vector."""
        if len(coords) != self.algebra.dim:
            raise ValueError("coordinate vector has wrong length")
        field = self.algebra.field
        return dense_scalars(field, len(coords), times(field, read_sparse(field, coords), self._to_adapted))

    def class_element(self, coords, degree: int) -> AlgElement:
        """The class of a vector of F_degree in the degree-th component."""
        return self._class_of(self.filtration.stage(degree)._read(coords), degree)

    def _class_of(self, raw: dict, degree: int) -> AlgElement:
        """class_element of a sparse raw vector."""
        if not self.filtration.stage(degree).contains_raw(raw):
            raise ValueError(f"vector not in stage {degree} of the filtration")
        ad = times(self.algebra.field, raw, self._to_adapted)
        return AlgElement.from_raw(self.algebra, {i: x for i, x in ad.items() if self._degrees[i] == degree})

    def representative(self, elt: AlgElement) -> AlgElement:
        """A representative in the filtered algebra, summing adapted vectors."""
        base = self.filtration.algebra
        return AlgElement.from_raw(base, times(base.field, elt._raw, self._vectors))


def associated_graded(filtration: Filtration) -> GradedAlgebra:
    """Build gr = F_0 + F_1/F_0 + ... with its induced product.

    The adapted basis extends the echelon basis of F_0 stage by stage in
    chain order, so the construction is deterministic and the structure
    constants are reproducible.  The induced product of degree-p and
    degree-q classes is the degree-(p+q) component of the representative
    product; components above p+q vanish by multiplicativity, components
    below are exactly what the quotients kill.
    """
    base = filtration.algebra
    f = base.field
    adapted, component_dims = filtration._basis
    degs = [deg for deg, _ in adapted]
    vectors = [vec for _, vec in adapted]
    to_adapted = inverse_rows(f, vectors)
    mul: dict[tuple[int, int], dict[int, object]] = {}
    for i, (pi, vi) in enumerate(zip(degs, vectors)):
        for j, (pj, vj) in enumerate(zip(degs, vectors)):
            target = pi + pj
            if target > filtration.top:
                continue
            coords = times(f, base.product(vi, vj), to_adapted)
            entry = {k: c for k, c in coords.items() if degs[k] == target}
            if entry:
                mul[(i, j)] = entry
    unit = None
    if base.is_unital and filtration.stage(0).contains_raw(base._unit):
        u = times(f, base._unit, to_adapted)
        unit = [u.get(k, 0) for k in range(base.dim)]
    names = [f"deg{deg}#{i}" for i, deg in enumerate(degs)]
    gr_alg = StructureAlgebra(f, names, mul, unit=unit, check=True)
    return GradedAlgebra.from_raw(filtration, degs, vectors, component_dims, gr_alg, to_adapted)
