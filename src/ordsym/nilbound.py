"""The MY1 pipeline: the graded nilpotence bound, its end-to-end check, and the weight check.

verify_graded_nil_index runs the whole pipeline behind the bound

    N = ceil((d - 1) * q / p) + 1

for elements supported in graded degrees p..q of an algebra whose stage
F_q has uniform algebraic degree at most d: the degree-N symmetric span
over the graded algebra must vanish, certifying that every combination of
the tested homogeneous components is nilpotent of index at most N.
sym_degree_check reads the weight of one symmetric value off the level
walk and compares its graded class with the symmetric value of the
classes.

Both run the level walk of algebra on the associated graded algebra, so
only verify-my1 loads this module: graded resolves these names from here
on first use (PEP 562), and ordsym.graded.verify_graded_nil_index and the
rest still resolve there.  associated_graded is read off the graded
module at each call, so a replacement bound there reaches this module
too.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

from . import graded
from .algebra import algebraic_degree, sym_span_in, sym_values
from .fields import raw_value
from .linalg import times
from .structure import AlgElement, Record

if TYPE_CHECKING:
    from .graded import Filtration, GradedAlgebra

__all__ = [
    "graded_nil_index_bound",
    "NilVerification",
    "verify_graded_nil_index",
    "HomogeneityReport",
    "sym_degree_check",
]


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
    (iv) The least vanishing power observed is reported; it is at most N,
    as a total's N-th power is the sum of its degree-N symmetric values.
    """
    t = filtration.top
    # Ranges are checked before the one-stage shortcut, so that a bad flag
    # is bad input whatever the filtration.
    if t or p is not None or q is not None:
        p, q = 1 if p is None else p, t if q is None else q
        if not (1 <= p <= q <= t):
            raise ValueError(f"need 1 <= p <= q <= top={t}")
    if d is not None and d < 1:
        raise ValueError("algebraic degree bound must be >= 1")
    if t == 0:
        return NilVerification(
            ok=True, p=0, q=0, d=d, d_source="given" if d is not None else "sampled",
            n_bound=None, observed_index=None, tested_classes=0, tested_samples=0,
            vacuous=True,
        )
    if gr is None:
        gr = graded.associated_graded(filtration)
    base = filtration.algebra
    degrees, vectors = gr._degrees, gr._vectors
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
    gr_alg = gr.algebra
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
        observed = max(observed, AlgElement.from_raw(gr_alg, raw).nil_index(n_bound))
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
    if gr is None:
        gr = graded.associated_graded(filtration)
    classes = [gr._class_of(a._raw, degv) for a, degv in zip(elements, degrees)]
    gval = sym_values([classes[j] for j in used], n)[key] if n else gr.algebra.unit_element()
    if weight > t:
        expected = gr.algebra.zero_element()
    else:
        expected = gr._class_of(value._raw, weight) if in_stage else None
    graded_match = expected is not None and gval == expected
    return HomogeneityReport(ok=in_stage and bool(graded_match), weight=weight, in_stage=in_stage,
                             graded_match=graded_match)
