"""The MY1 pipeline: the graded nilpotence bound and its end-to-end check.

verify_graded_nil_index runs the whole pipeline behind the bound

    N = ceil((d - 1) * q / p) + 1

for elements supported in graded degrees p..q of an algebra whose stage
F_q has uniform algebraic degree at most d: the degree-N symmetric span
over the graded algebra must vanish, certifying that every combination of
the tested homogeneous components is nilpotent of index at most N.

It runs the level walk of algebra on the associated graded algebra, so
only verify-my1 loads this module: graded resolves these names from here
on first use (PEP 562), and ordsym.graded.verify_graded_nil_index and the
rest still resolve there.  associated_graded is read off the graded
module at each call, so a replacement bound there reaches this module
too.  The weight check, HomogeneityReport and sym_degree_check, which no
command runs, lives in evaluation and is resolved here the same way.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import TYPE_CHECKING, Optional

from . import graded
from .algebra import algebraic_degree, sym_span_in
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


def __getattr__(name: str):
    """HomogeneityReport or sym_degree_check (no other name reaches here), loaded from evaluation on first use."""
    if name not in ("HomogeneityReport", "sym_degree_check"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import evaluation

    value = globals()[name] = getattr(evaluation, name)
    return value


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
    constant terms live in F_0 and are absorbed by every later stage),
    which stops at the first degree that reaches dim (dim + 1 without a
    unit), as none can exceed it, and gives 1 when there is nothing to
    sample (F_q is zero and samples is 0); callers may pin d instead.
    (ii) N = graded_nil_index_bound(p, q, d).
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
        candidates = chain((vectors[s] for s in slots_q),
                           (times(base.field, coeffs, vectors) for coeffs in sample_coeffs))
        # 1, a, ..., a^(d-1) (no 1 without a unit) are independent, so no
        # degree exceeds the cap and the maximum is final once it is reached
        cap = base.dim if base.is_unital else base.dim + 1

        # every element of a zero F_q has degree 1, so d starts there
        d = 1
        for v in candidates:
            d = max(d, algebraic_degree(AlgElement.from_raw(base, v), unital=base.is_unital))
            if d >= cap:
                break
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
