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

verify_graded_nil_index runs the whole pipeline behind the bound

    N = ceil((d - 1) * q / p) + 1

for elements supported in graded degrees p..q of an algebra whose stage
F_q has uniform algebraic degree at most d: the degree-N symmetric span
over the graded algebra must vanish, certifying that every combination of
the tested homogeneous components is nilpotent of index at most N.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .algebra import (
    AlgElement,
    Coords,
    Record,
    StructureAlgebra,
    ValidationReport,
    algebraic_degree,
    sym_span_in,
    sym_values,
)
from .fields import dense_scalars, raw_value, read_sparse
from .io import InvalidFiltrationError
from .linalg import Subspace, inverse_rows, times

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


def graded_nil_index_bound(p: int, q: int, d: int) -> int:
    """ceil((d-1)*q/p) + 1: nilpotence exponent for graded degrees p..q."""
    if not (1 <= p <= q):
        raise ValueError("need 1 <= p <= q")
    if d < 1:
        raise ValueError("algebraic degree bound must be >= 1")
    return -((d - 1) * q // -p) + 1


class NilVerification(Record):
    """Outcome of the filtered-to-graded nilpotence bound check."""

    def __init__(
        self,
        ok: bool,
        p: int,
        q: int,
        d: Optional[int],
        d_source: str,
        n_bound: Optional[int],
        observed_index: Optional[int],
        tested_classes: int,
        tested_samples: int,
        vacuous: bool = False,
        failures: Optional[list[dict]] = None,
    ):
        self.ok = ok
        self.p = p
        self.q = q
        self.d = d
        self.d_source = d_source
        self.n_bound = n_bound
        self.observed_index = observed_index
        self.tested_classes = tested_classes
        self.tested_samples = tested_samples
        self.vacuous = vacuous
        self.failures = [] if failures is None else failures


def verify_graded_nil_index(
    filtration: Filtration,
    p: Optional[int] = None,
    q: Optional[int] = None,
    d: Optional[int] = None,
    samples: int = 32,
    seed: int = 0,
    gr: Optional[GradedAlgebra] = None,
) -> NilVerification:
    """Check the nilpotence bound for graded components p..q end to end.

    (i) Estimate a uniform algebraic-degree bound d for the stage F_q by
    taking the max degree over its adapted basis and a seeded sample of
    combinations (unital convention when the algebra has a unit, since
    constant terms live in F_0 and are absorbed by every later stage);
    callers may pin d instead.  (ii) N = graded_nil_index_bound(p, q, d).
    (iii) For every adapted class in degrees p..q and for `samples` seeded
    mixed combinations, the degree-N symmetric span of the homogeneous
    components over gr must be the zero subspace, which certifies that
    every linear combination of those components has N-th power zero.
    (iv) The minimal vanishing power actually observed is reported next
    to N.
    """
    t = filtration.top
    if t == 0:
        return NilVerification(
            ok=True, p=0, q=0, d=d, d_source="given" if d is not None else "sampled",
            n_bound=None, observed_index=None, tested_classes=0, tested_samples=0,
            vacuous=True,
        )
    if p is None:
        p = 1
    if q is None:
        q = t
    if not (1 <= p <= q <= t):
        raise ValueError(f"need 1 <= p <= q <= top={t}")
    graded = gr if gr is not None else associated_graded(filtration)
    base = filtration.algebra
    degrees, vectors = graded._degrees, graded._vectors
    slots_pq = [i for i, deg in enumerate(degrees) if p <= deg <= q]
    slots_q = [i for i, deg in enumerate(degrees) if deg <= q]

    rng = random.Random(seed)
    sample_coeffs = [
        {s: rng.randint(-3, 3) for s in slots_q} for _ in range(samples)
    ]

    d_source = "given"
    if d is None:
        d_source = "sampled"
        candidates = [vectors[s] for s in slots_q]
        candidates.extend(times(base.field, coeffs, vectors) for coeffs in sample_coeffs)
        d = max(
            algebraic_degree(AlgElement.from_raw(base, v), unital=base.is_unital) for v in candidates
        )
    n_bound = graded_nil_index_bound(p, q, d)

    test_vectors: list[dict[int, int]] = [{s: 1} for s in slots_pq]
    test_vectors.extend(
        {s: c for s, c in coeffs.items() if s in slots_pq} for coeffs in sample_coeffs
    )

    failures: list[dict] = []
    observed = 0
    gr_alg = graded.algebra
    gr_field = gr_alg.field
    for idx, coeffs in enumerate(test_vectors):
        raw = {s: r for s, c in coeffs.items() if (r := raw_value(gr_field, c))}
        if not raw:
            continue
        components = [
            AlgElement.from_raw(gr_alg, {s: r for s, r in raw.items() if degrees[s] == deg})
            for deg in range(p, q + 1)
        ]
        span = sym_span_in(components, n_bound)
        if not span.is_zero():
            failures.append({"test": idx, "reason": "symmetric span nonzero", "degree": n_bound})
            continue
        total = AlgElement.from_raw(gr_alg, raw)
        nil = total.nil_index(n_bound)
        if nil is None:
            failures.append({"test": idx, "reason": "element power nonzero at bound"})
        else:
            observed = max(observed, nil)
    return NilVerification(
        ok=not failures,
        p=p,
        q=q,
        d=d,
        d_source=d_source,
        n_bound=n_bound,
        observed_index=observed or None,
        tested_classes=len(slots_pq),
        tested_samples=samples,
        failures=failures,
    )


class HomogeneityReport(Record):
    def __init__(
        self, ok: bool, weight: int, in_stage: bool, graded_match: Optional[bool], skipped: bool = False
    ):
        self.ok = ok
        self.weight = weight
        self.in_stage = in_stage
        self.graded_match = graded_match
        self.skipped = skipped


def sym_degree_check(
    filtration: Filtration,
    elements: Sequence[AlgElement],
    start_degree: int,
    profile: Sequence[int],
    gr: Optional[GradedAlgebra] = None,
) -> HomogeneityReport:
    """Check the weight of a symmetric value against the filtration.

    elements[i] must lie in stage start_degree + i.  The symmetric sum for
    `profile` then lands in the stage of weight sum_i (start_degree+i) *
    profile[i], and its graded class equals the symmetric sum of the
    classes.  Both values are read off the first-letter level walk of
    sym_values.  The all-zero profile is a statement about the constant 1
    and is only meaningful in a unital algebra; it is reported as skipped
    otherwise.
    """
    m = len(elements)
    if len(profile) != m:
        raise ValueError("profile length must match element count")
    t = filtration.top
    degrees = [start_degree + i for i in range(m)]
    if degrees[-1] > t:
        raise ValueError("element degrees exceed the top of the chain")
    for a, degv in zip(elements, degrees):
        if not filtration.stage(degv).contains_raw(a._raw):
            raise ValueError(f"element not in stage {degv}")
    base = filtration.algebra
    if not any(profile) and not base.is_unital:
        return HomogeneityReport(ok=True, weight=0, in_stage=True, graded_match=None, skipped=True)
    if any(i < 0 for i in profile):
        raise ValueError("profile entries must be nonnegative")
    algebra = elements[0].algebra
    if any(a.algebra is not algebra for a in elements):
        raise ValueError("assignment mixes algebras")
    if algebra.field != base.field:
        raise ValueError("polynomial and algebra fields differ")
    n = sum(profile)
    used = [j for j, i in enumerate(profile) if i]  # the letters the words use: the walk needs no others
    key = tuple(profile[j] for j in used)
    weight = sum(degv * i for degv, i in zip(degrees, profile))
    value = sym_values([elements[j] for j in used], n)[key] if n else algebra.unit_element()
    in_stage = filtration.stage(weight).contains_raw(value._raw)
    graded = gr if gr is not None else associated_graded(filtration)
    classes = [graded._class_of(a._raw, degv) for a, degv in zip(elements, degrees)]
    gval = sym_values([classes[j] for j in used], n)[key] if n else graded.algebra.unit_element()
    if weight > t:
        expected = graded.algebra.zero_element()
    else:
        expected = graded._class_of(value._raw, weight) if in_stage else None
    graded_match = expected is not None and gval == expected
    return HomogeneityReport(ok=in_stage and bool(graded_match), weight=weight, in_stage=in_stage,
                             graded_match=graded_match)
