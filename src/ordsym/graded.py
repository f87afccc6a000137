"""Filtrations of a finite-dimensional algebra and their associated graded algebras.

A filtration is a nested chain F_0 <= F_1 <= ... <= F_t of subspaces with
F_t the whole algebra and F_i * F_j <= F_{i+j} (indices clamp at t, which
is harmless because F_t absorbs).  The associated graded algebra is
realized concretely: an adapted basis is grown greedily through the chain,
every product of adapted representatives is reduced in adapted
coordinates, and the component of top weight is kept.  The result is a
StructureAlgebra in its own right and passes the same validation as any
other algebra.

verify_graded_nil_index runs the whole pipeline behind the bound

    N = ceil((d - 1) * q / p) + 1

for elements supported in graded degrees p..q of an algebra whose stage
F_q has uniform algebraic degree at most d: the degree-N symmetric span
over the graded algebra must vanish, certifying that every combination of
the tested homogeneous components is nilpotent of index at most N.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .algebra import (
    AlgElement,
    StructureAlgebra,
    ValidationReport,
    algebraic_degree,
    evaluate,
    sym_span_in,
)
from .fields import Field, Scalar
from .freealg import sym_poly
from .linalg import Subspace, invert_matrix

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

Coords = tuple[Scalar, ...]


class InvalidFiltrationError(ValueError):
    def __init__(self, report: ValidationReport):
        super().__init__(report.describe())
        self.report = report


def validate_filtration(algebra: StructureAlgebra, stages: Sequence[Subspace]) -> ValidationReport:
    """Nesting, exhaustion, and multiplicativity on spanning vectors.

    Stops at the first violation and carries witnesses: the stage pair and
    the offending product vector.
    """
    if not stages:
        return ValidationReport(False, [{"law": "exhaustion", "where": "empty chain"}])
    t = len(stages) - 1
    for i, s in enumerate(stages):
        if s.field != algebra.field or s.ambient != algebra.dim:
            return ValidationReport(
                False, [{"law": "ambient", "where": i}]
            )
    for i in range(1, t + 1):
        if not stages[i].contains_space(stages[i - 1]):
            return ValidationReport(
                False,
                [{"law": "nesting", "where": (i - 1, i)}],
            )
    if stages[t].dim != algebra.dim:
        return ValidationReport(
            False,
            [{"law": "exhaustion", "where": t, "dim": stages[t].dim}],
        )
    for i in range(t + 1):
        for j in range(t + 1):
            target = stages[min(i + j, t)]
            for u in stages[i].rows:
                for v in stages[j].rows:
                    prod = algebra.multiply_coords(u, v)
                    if not target.contains(prod):
                        return ValidationReport(
                            False,
                            [{
                                "law": "multiplicativity",
                                "where": (i, j),
                                "witness": prod,
                            }],
                        )
    return ValidationReport(True)


class Filtration:
    """Validated chain F_0 <= ... <= F_t with F_t the whole algebra."""

    __slots__ = ("algebra", "stages")

    def __init__(self, algebra: StructureAlgebra, stages: Sequence[Subspace], check: bool = True):
        self.algebra = algebra
        self.stages = tuple(stages)
        if check:
            report = validate_filtration(algebra, self.stages)
            if not report.ok:
                raise InvalidFiltrationError(report)

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


def _to_adapted_coords(f: Field, to_adapted: list[list[Scalar]], vec: Sequence[Scalar]) -> Coords:
    """to_adapted * vec: adapted coordinates of an ambient Scalar vector."""
    support = [(k, c) for k, c in enumerate(vec) if c]
    zero = f.zero()
    return tuple(sum((row[k] * c for k, c in support), zero) for row in to_adapted)


@dataclass
class GradedAlgebra:
    """Concrete associated graded algebra over an adapted basis.

    adapted[i] = (degree, representative vector in ambient coordinates);
    the graded product of slots i and j keeps the component of degree
    deg(i) + deg(j) of the representative product.  `algebra` is the
    resulting StructureAlgebra, so every element/evaluation/span tool
    applies to graded classes unchanged.
    """

    filtration: Filtration
    adapted: list[tuple[int, Coords]]
    component_dims: list[int]
    algebra: StructureAlgebra
    _to_adapted: list[list[Scalar]]

    def slot_degrees(self) -> list[int]:
        return [deg for deg, _ in self.adapted]

    def slots_of_degree(self, p: int) -> list[int]:
        return [i for i, (deg, _) in enumerate(self.adapted) if deg == p]

    def adapted_coords(self, coords) -> Coords:
        f = self.filtration.algebra.field
        return _to_adapted_coords(f, self._to_adapted, [Scalar(f, c) for c in coords])

    def class_element(self, coords, degree: int) -> AlgElement:
        """The class of a vector of F_degree in the degree-th component."""
        if not self.filtration.stage(degree).contains(coords):
            raise ValueError(f"vector not in stage {degree} of the filtration")
        ad = self.adapted_coords(coords)
        keep = [
            ad[i] if self.adapted[i][0] == degree else self.algebra.field.zero()
            for i in range(len(ad))
        ]
        return self.algebra.element(keep)

    def representative(self, elt: AlgElement) -> AlgElement:
        """A representative in the filtered algebra, summing adapted vectors."""
        base = self.filtration.algebra
        out = base.zero_element()
        for c, (_, vec) in zip(elt.coords, self.adapted):
            if c:
                out = out + c * base.element(vec)
        return out


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
    adapted: list[tuple[int, Coords]] = []
    component_dims: list[int] = []
    grown = Subspace.zero(f, base.dim)
    for p in range(filtration.top + 1):
        added = 0
        for row in filtration.stage(p).rows:
            if not grown.contains(row):
                adapted.append((p, row))
                grown = grown + Subspace(f, base.dim, [row])
                added += 1
        component_dims.append(added)
    mat = [[adapted[i][1][r] for i in range(len(adapted))] for r in range(base.dim)]
    to_adapted = invert_matrix(f, mat)
    mul: dict[tuple[int, int], dict[int, Scalar]] = {}
    degs = [deg for deg, _ in adapted]
    for i, (pi, vi) in enumerate(adapted):
        for j, (pj, vj) in enumerate(adapted):
            target = pi + pj
            if target > filtration.top:
                continue
            coords = _to_adapted_coords(f, to_adapted, base.multiply_coords(vi, vj))
            entry = {k: c for k, c in enumerate(coords) if degs[k] == target and c}
            if entry:
                mul[(i, j)] = entry
    unit = None
    if base.is_unital and filtration.stage(0).contains(base.unit):
        unit = _to_adapted_coords(f, to_adapted, base.unit)
    names = [f"deg{deg}#{i}" for i, deg in enumerate(degs)]
    gr_alg = StructureAlgebra(f, names, mul, unit=unit, check=True)
    return GradedAlgebra(filtration, adapted, component_dims, gr_alg, to_adapted)


def graded_nil_index_bound(p: int, q: int, d: int) -> int:
    """ceil((d-1)*q/p) + 1: nilpotence exponent for graded degrees p..q."""
    if not (1 <= p <= q):
        raise ValueError("need 1 <= p <= q")
    if d < 1:
        raise ValueError("algebraic degree bound must be >= 1")
    return -((d - 1) * q // -p) + 1


@dataclass
class NilVerification:
    """Outcome of the filtered-to-graded nilpotence bound check."""

    ok: bool
    p: int
    q: int
    d: Optional[int]
    d_source: str
    n_bound: Optional[int]
    observed_index: Optional[int]
    tested_classes: int
    tested_samples: int
    vacuous: bool = False
    failures: list[dict] = dc_field(default_factory=list)


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
    slots_pq = [i for i, (deg, _) in enumerate(graded.adapted) if p <= deg <= q]
    slots_q = [i for i, (deg, _) in enumerate(graded.adapted) if deg <= q]

    rng = random.Random(seed)
    sample_coeffs = [
        {s: rng.randint(-3, 3) for s in slots_q} for _ in range(samples)
    ]

    d_source = "given"
    if d is None:
        d_source = "sampled"
        candidates: list[AlgElement] = []
        for s in slots_q:
            candidates.append(base.element(graded.adapted[s][1]))
        for coeffs in sample_coeffs:
            v = base.zero_element()
            for s, c in coeffs.items():
                v = v + c * base.element(graded.adapted[s][1])
            candidates.append(v)
        d = max(
            algebraic_degree(v, unital=base.is_unital) for v in candidates
        )
    n_bound = graded_nil_index_bound(p, q, d)

    test_vectors: list[dict[int, int]] = [{s: 1} for s in slots_pq]
    test_vectors.extend(
        {s: c for s, c in coeffs.items() if s in slots_pq} for coeffs in sample_coeffs
    )

    failures: list[dict] = []
    observed = 0
    zero = graded.algebra.field.zero()
    for idx, coeffs in enumerate(test_vectors):
        components: list[AlgElement] = []
        for deg in range(p, q + 1):
            vec = [zero] * len(graded.adapted)
            for s, c in coeffs.items():
                if graded.adapted[s][0] == deg:
                    vec[s] = Scalar(graded.algebra.field, c)
            components.append(graded.algebra.element(vec))
        if all(c.is_zero() for c in components):
            continue
        span = sym_span_in(components, n_bound)
        if not span.is_zero():
            failures.append({"test": idx, "reason": "symmetric span nonzero", "degree": n_bound})
            continue
        total = components[0]
        for c in components[1:]:
            total = total + c
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


@dataclass
class HomogeneityReport:
    ok: bool
    weight: int
    in_stage: bool
    graded_match: Optional[bool]
    skipped: bool = False


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
    classes.  The all-zero profile is a statement about the constant 1 and
    is only meaningful in a unital algebra; it is reported as skipped
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
        if not filtration.stage(degv).contains(a.coords):
            raise ValueError(f"element not in stage {degv}")
    base = filtration.algebra
    if not any(profile):
        if not base.is_unital:
            return HomogeneityReport(ok=True, weight=0, in_stage=True, graded_match=None, skipped=True)
    weight = sum(degv * i for degv, i in zip(degrees, profile))
    value = evaluate(sym_poly(profile, base.field), list(elements))
    in_stage = filtration.stage(weight).contains(value.coords)
    graded = gr if gr is not None else associated_graded(filtration)
    classes = [
        graded.class_element(a.coords, degv) for a, degv in zip(elements, degrees)
    ]
    gval = evaluate(sym_poly(profile, base.field), classes)
    if weight > t:
        expected = graded.algebra.zero_element()
    else:
        expected = graded.class_element(value.coords, weight) if in_stage else None
    graded_match = expected is not None and gval == expected
    return HomogeneityReport(
        ok=in_stage and bool(graded_match),
        weight=weight,
        in_stage=in_stage,
        graded_match=graded_match,
    )
