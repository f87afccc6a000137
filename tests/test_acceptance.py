"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything is exact arithmetic; there are no tolerances to
tune, equality means equality.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

from ordsym.algebra import (
    StructureAlgebra,
    brute_force_nil_index,
    uniform_nil_index,
)
from ordsym.catalog import builtin_example
from ordsym.fields import QQ, Field, distinct_scalars
from ordsym.freealg import (
    monomial_count,
    multidegrees,
    power_span_grid,
    sym_poly,
    sym_span,
    sym_span_upto,
)
from ordsym.graded import (
    GradedAlgebra,
    associated_graded,
    graded_nil_index_bound,
    validate_filtration,
    verify_graded_nil_index,
)
from ordsym.linalg import Subspace, multi_vandermonde_recover, vandermonde_recover
from ordsym.rees import (
    ReesElement,
    ScalarPoly,
    check_graded_rees_isomorphism,
    integral_power_in_x_ideal,
    integral_witness,
)
from oracle import unit_elt

BUILTINS = [
    ("upper-triangular", 3),
    ("upper-triangular", 4),
    ("strictly-upper-triangular", 3),
    ("strictly-upper-triangular", 4),
    ("truncated-polynomial", 4),
    ("exterior-algebra", 2),
    ("exterior-algebra", 3),
]

FIELDS = [QQ, Field("GF", 2), Field("GF", 3), Field("GF", 5), Field("GF", 7)]


def test_criterion_1_symmetric_polynomial_ground_truth():
    p = sym_poly((2, 2), QQ)
    expected_words = [
        (1, 1, 2, 2),
        (1, 2, 1, 2),
        (1, 2, 2, 1),
        (2, 1, 1, 2),
        (2, 1, 2, 1),
        (2, 2, 1, 1),
    ]
    assert [w for w, _ in p.terms()] == expected_words
    assert all(c == QQ.one() for _, c in p.terms())
    assert monomial_count((2, 2)) == 6
    print("criterion 1 PASS: sym_poly(2,2) lists the six degree-(2,2) monomials, count 6")


def test_criterion_2_dimension_formulas():
    for m in (1, 2, 3):
        for n in range(7):
            assert sym_span(n, m, QQ).dim == comb(m + n - 1, m - 1), (m, n)
            total = sum(sym_span(j, m, QQ).dim for j in range(n + 1))
            assert total == comb(n + m, m), (m, n)
            if n >= 1:
                cumulative = sym_span_upto(n, m, QQ, include_degree_zero=True)
                assert cumulative.dim == comb(n + m, m), (m, n)
    print("criterion 2 PASS: dim formulas C(m+n-1,m-1) and C(n+m,m) for m<=3, n<=6")


def test_criterion_3_grid_span_equality():
    for m in (1, 2):
        for n in range(5):
            sample = distinct_scalars(QQ, n + 1)
            space, complete = power_span_grid(n, m, sample)
            assert complete and space == sym_span(n, m, QQ), (m, n)
    gf7 = Field("GF", 7)
    for n in range(6):
        sample = distinct_scalars(gf7, n + 1)
        space, complete = power_span_grid(n, 2, sample)
        assert complete and space == sym_span(n, 2, gf7), n
    print("criterion 3 PASS: power grids span the symmetric space over Q (m<=2,n<=4) and GF(7) (m=2,n<=5)")


def test_criterion_4_vandermonde_roundtrips():
    rng = random.Random(42)
    for _ in range(100):
        d = rng.randint(0, 6)
        xis = [QQ.scalar(i) for i in range(d + 1)]
        vs = [
            [QQ.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(3)]
            for _ in range(d + 1)
        ]
        ws = []
        for xi in xis:
            w = [QQ.zero()] * 3
            for i, v in enumerate(vs):
                f = xi**i
                w = [a + f * b for a, b in zip(w, v)]
            ws.append(w)
        got = vandermonde_recover(xis, ws)
        assert [list(v) for v in got] == vs
    for n in (0, 1, 2, 3):
        sample = [QQ.scalar(i) for i in range(n + 1)]
        family = {
            mu: [QQ.scalar(rng.randint(-6, 6)) for _ in range(2)]
            for mu in multidegrees(n, 2)
        }
        grid = [(x, y) for x in sample for y in sample]
        evaluations = {}
        for pt in grid:
            acc = [QQ.zero()] * 2
            for mu, w in family.items():
                f = pt[0] ** mu[0] * pt[1] ** mu[1]
                acc = [a + f * b for a, b in zip(acc, w)]
            evaluations[pt] = acc
        got = multi_vandermonde_recover(2, n, evaluations, sample)
        assert {mu: list(v) for mu, v in got.items()} == family, n
    print("criterion 4 PASS: 100 seeded Vandermonde round-trips (d<=6) and multivariate recovery (m=2,n<=3) exact")


def test_criterion_5_nil_index_oracle_equivalence():
    gf5 = Field("GF", 5)
    A5 = builtin_example("upper-triangular", 3, gf5)[0]
    elts5 = [unit_elt(A5, "E12"), unit_elt(A5, "E23")]
    assert brute_force_nil_index(elts5) == 3
    assert uniform_nil_index(elts5) == 3
    AQ = builtin_example("upper-triangular", 3)[0]
    assert uniform_nil_index([unit_elt(AQ, "E12"), unit_elt(AQ, "E23")]) == 3

    checked = 0
    for name, param in BUILTINS:
        for field in FIELDS:
            A = builtin_example(name, param, field)[0]
            elts = A.basis_elements()
            idx = uniform_nil_index(elts)
            if idx is None:
                continue
            # certificate direction: every combination vanishes at idx
            if field.is_finite and field.p ** len(elts) <= 5000:
                combos = itertools.product(range(field.p), repeat=len(elts))
            else:
                rng = random.Random(idx)
                combos = (
                    tuple(rng.randint(-4, 4) for _ in elts) for _ in range(60)
                )
            for coeffs in combos:
                v = A.zero_element()
                for c, e in zip(coeffs, elts):
                    v = v + c * e
                assert (v**idx).is_zero(), (name, param, field, coeffs)
            checked += 1
    assert checked >= 10  # every strictly-upper builtin over every field
    print("criterion 5 PASS: brute force = span criterion = 3 on UT(3); certificate direction holds on every builtin/field")


def test_criterion_6_graded_nil_bound_desk_verification():
    start = time.monotonic()
    _, f4 = builtin_example("upper-triangular", 4)
    out4 = verify_graded_nil_index(f4, p=1, q=3)
    assert out4.ok and out4.d == 4 and out4.n_bound == 10
    assert out4.n_bound == graded_nil_index_bound(1, 3, 4)
    assert out4.observed_index == 4 <= out4.n_bound

    _, f3 = builtin_example("upper-triangular", 3)
    out3 = verify_graded_nil_index(f3, p=1, q=2)
    assert out3.ok and out3.n_bound == 5 and out3.observed_index == 3

    _, ft = builtin_example("truncated-polynomial", 4)
    outt = verify_graded_nil_index(ft, p=1, q=3)
    assert outt.ok and outt.d == 4 and outt.n_bound == 10 and outt.observed_index == 4

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"verification took {elapsed:.1f}s"
    print(
        f"criterion 6 PASS: UT(4) d=4 N=10 observed 4; UT(3) N=5 observed 3; "
        f"trunc(4) N=10 observed 4; {elapsed:.2f}s < 10s"
    )


def test_criterion_7_linear_bound_form():
    for r in range(1, 7):
        for d in range(1, 7):
            assert graded_nil_index_bound(1, r, d) == (d - 1) * r + 1
    print("criterion 7 PASS: bound(1, r, d) = (d-1)r + 1 for r, d <= 6")


def test_criterion_8_integral_power_membership():
    A, F = builtin_example("upper-triangular", 3)
    a = ReesElement(F, [A.zero_element(), unit_elt(A, "E11") + unit_elt(A, "E12")])
    w = integral_witness(a, n_max=4)
    assert w is not None and w.degree == 2
    assert w.multipliers[1] == ScalarPoly.x(QQ) and w.multipliers[0].is_zero()
    out = integral_power_in_x_ideal(a, w.degree)
    assert out.exponent == 2  # m(n-1)+1 with m=1, n=2
    assert out.ok and out.least_exponent == 2
    assert not a.in_x_ideal()
    sq = a * a
    assert sq.coeff(2) == unit_elt(A, "E11") + unit_elt(A, "E12")
    print("criterion 8 PASS: (E11+E12)x integral at n=2 via q1=x; square in xR, element itself outside")


def test_criterion_9_graded_rees_structure_check():
    for name, param in BUILTINS:
        _, F = builtin_example(name, param)
        report = check_graded_rees_isomorphism(F, max_degree=4)
        assert report.ok, (name, param, report.failures)
        for entry in report.ledger:
            assert entry["gr_dim"] == entry["stage_difference"] == entry["quotient_dim"]
    # mutation: a corrupted graded tensor must be caught
    _, F = builtin_example("upper-triangular", 3)
    gr = associated_graded(F)
    mul = {k: dict(v) for k, v in gr.algebra.mul.items()}
    (i, j), entry = next((k, v) for k, v in sorted(mul.items()) if v)
    k0 = next(iter(entry))
    entry[k0] = entry[k0] + QQ.one()
    bad = GradedAlgebra(
        gr.filtration,
        gr.adapted,
        gr.component_dims,
        StructureAlgebra(QQ, gr.algebra.names, mul, unit=gr.algebra.unit, check=False),
        gr._to_adapted,
    )
    assert not check_graded_rees_isomorphism(F, max_degree=4, gr=bad).ok
    print("criterion 9 PASS: gr ~ Rees quotient on all builtins (maxdeg 4); corrupted tensor detected")


def _corrupt_algebra(A, seed):
    """Single-entry tensor corruption guaranteed to violate a law."""
    rng = random.Random(seed)
    mul = {k: dict(v) for k, v in A.mul.items()}
    if A.is_unital:
        u = next(i for i, c in enumerate(A.unit) if c)
        j = rng.randrange(A.dim)
        k = rng.randrange(A.dim)
        entry = dict(mul.get((u, j), {}))
        entry[k] = entry.get(k, A.field.zero()) + A.field.one()
        mul[(u, j)] = entry
    else:
        # square a seeded superdiagonal unit onto the next band: breaks
        # associativity at the (E, E, E) triple
        supers = [nm for nm in A.names if len(nm) == 3 and int(nm[2]) == int(nm[1]) + 1]
        name = supers[rng.randrange(len(supers) - 1)]
        i0 = A.names.index(name)
        row, col = int(name[1]), int(name[2])
        mul[(i0, i0)] = {A.names.index(f"E{row + 1}{col + 1}"): A.field.one()}
    return StructureAlgebra(A.field, A.names, mul, unit=A.unit, check=False)


def test_criterion_10_mutation_sensitivity():
    detected_a = detected_f = total = 0
    for seed, (name, param) in enumerate(BUILTINS):
        A, F = builtin_example(name, param)
        bad = _corrupt_algebra(A, seed)
        assert any(
            bad.multiply_coords(bad.basis_element(i).coords, bad.basis_element(j).coords)
            != A.multiply_coords(A.basis_element(i).coords, A.basis_element(j).coords)
            for i in range(A.dim)
            for j in range(A.dim)
        ), "corruption must change the tensor"
        report = bad.validate()
        assert not report.ok, (name, param, "algebra corruption undetected")
        detected_a += 1

        # filtration mutation 1: drop the top stage (exhaustion)
        rep1 = validate_filtration(A, list(F.stages[:-1]))
        assert not rep1.ok, (name, param)
        # filtration mutation 2: inject a top-only vector into a lower stage
        rng = random.Random(seed)
        t = F.top
        s = rng.randrange(0, t - 1) if t >= 2 else 0
        outside = [r for r in F.stages[t].rows if not F.stages[min(s + 1, t)].contains(r)]
        v = outside[rng.randrange(len(outside))]
        stages = list(F.stages)
        stages[s] = stages[s] + Subspace(A.field, A.dim, [v])
        rep2 = validate_filtration(A, stages)
        assert not rep2.ok, (name, param)
        detected_f += 2
        total += 3
    assert detected_a + detected_f == total == 3 * len(BUILTINS)
    print(
        f"criterion 10 PASS: {total}/{total} seeded corruptions detected "
        f"({detected_a} algebra, {detected_f} filtration)"
    )
