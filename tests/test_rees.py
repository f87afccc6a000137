import contextlib
import io
import random

import pytest

from ordsym import rees
from ordsym.algebra import StructureAlgebra
from ordsym.catalog import builtin_example
from ordsym.cli import main
from ordsym.fields import QQ, Field
from ordsym.graded import GradedAlgebra, associated_graded
from ordsym.rees import (
    ReesElement,
    ScalarPoly,
    check_graded_rees_isomorphism,
    integral_power_in_x_ideal,
    integral_witness,
)
from oracle import BUILTINS, power_membership_reference, stage_element, unit_elt, ut3

def test_make_valid_element():
    A, F = ut3()
    r = ReesElement(F, [A.zero_element(), unit_elt(A, "E12"), unit_elt(A, "E13")])
    assert r.degree == 2


def test_make_rejects_membership_violation():
    A, F = ut3()
    with pytest.raises(ValueError, match=r"x\^1"):
        ReesElement(F, [A.zero_element(), unit_elt(A, "E13")])


def test_zero_element_valid():
    A, F = ut3()
    r = ReesElement(F, [A.zero_element()])
    assert r.is_zero() and r.degree == -1


def test_product_of_superdiagonal_slices():
    A, F = ut3()
    a = ReesElement(F, [A.zero_element(), unit_elt(A, "E12")])
    b = ReesElement(F, [A.zero_element(), unit_elt(A, "E23")])
    prod = a * b
    assert prod.degree == 2
    assert prod.coeff(2) == unit_elt(A, "E13")
    assert prod.coeff(0).is_zero() and prod.coeff(1).is_zero()


def test_sum_of_elements():
    A, F = ut3()
    a = ReesElement(F, [unit_elt(A, "E11"), 2 * unit_elt(A, "E12")])
    b = ReesElement(F, [-1 * unit_elt(A, "E11"), unit_elt(A, "E12") + unit_elt(A, "E23"), unit_elt(A, "E13")])
    assert repr(a) == "((1)*E11)*x^0 + ((2)*E12)*x^1"
    total = a + b
    # the x^0 coefficients cancel and are left out
    assert repr(total) == "((3)*E12 + (1)*E23)*x^1 + ((1)*E13)*x^2"
    assert total == ReesElement(F, [A.zero_element(), 3 * unit_elt(A, "E12") + unit_elt(A, "E23"), unit_elt(A, "E13")])
    assert total != a and a != "a"
    assert repr(ReesElement(F, [])) == "0"


def test_product_with_zero():
    A, F = ut3()
    a = ReesElement(F, [A.zero_element(), unit_elt(A, "E12")])
    z = ReesElement(F, [])
    assert (a * z).is_zero()


def test_idempotent_square():
    A, F = ut3()
    e = unit_elt(A, "E11") + unit_elt(A, "E12")
    a = ReesElement(F, [A.zero_element(), e])
    sq = a * a
    assert sq.coeff(2) == e and sq.degree == 2


def test_closure_under_products():
    rng = random.Random(17)
    for name, param in BUILTINS:
        A, F = builtin_example(name, param)
        for _ in range(5):
            coeffs = [A.zero_element()] + [stage_element(F, n, rng) for n in range(1, F.top + 1)]
            r = ReesElement(F, coeffs)
            prod = r * r  # revalidates membership internally
            for n, c in enumerate(prod.coeffs):
                assert F.stage(n).contains(c.coords)


def test_integral_witness_idempotent_slice():
    A, F = ut3()
    a = ReesElement(F, [A.zero_element(), unit_elt(A, "E11") + unit_elt(A, "E12")])
    w = integral_witness(a, n_max=4)
    assert w is not None and w.degree == 2
    assert w.multipliers[0].is_zero()
    assert w.multipliers[1] == ScalarPoly.x(QQ)  # a^2 = x * a


def test_integral_witness_square_zero():
    A, F = ut3()
    a = ReesElement(F, [A.zero_element(), unit_elt(A, "E12")])
    w = integral_witness(a, n_max=4)
    assert w is not None and w.degree == 2
    assert all(q.is_zero() for q in w.multipliers)


def test_integral_witness_none_unitless_degree_one():
    A, F = builtin_example("strictly-upper-triangular", 3)
    a = ReesElement(F, [A.zero_element(), unit_elt(A, "E12")])
    assert integral_witness(a, n_max=1) is None


def test_integral_witness_zero_element():
    A, F = ut3()
    z = ReesElement(F, [])
    w = integral_witness(z, n_max=2)
    assert w is not None and w.degree == 1


def test_power_membership_idempotent_slice():
    A, F = ut3()
    a = ReesElement(F, [A.zero_element(), unit_elt(A, "E11") + unit_elt(A, "E12")])
    out = integral_power_in_x_ideal(a, 2)
    assert out.exponent == 2  # top degree 1, witness degree 2
    assert out.ok
    assert out.least_exponent == 2
    assert not a.in_x_ideal()  # E11+E12 sits outside stage 0


def test_power_membership_square_zero():
    A, F = ut3()
    a = ReesElement(F, [A.zero_element(), unit_elt(A, "E12")])
    out = integral_power_in_x_ideal(a, 2)
    assert out.ok and out.exponent == 2 and out.least_exponent == 2


def test_power_membership_already_inside():
    A, F = ut3()
    a = ReesElement(F, [A.zero_element(), A.zero_element(), unit_elt(A, "E12")])
    assert a.in_x_ideal()  # E12 already in stage 1
    out = integral_power_in_x_ideal(a, 2)
    assert out.least_exponent == 1


def test_power_membership_rejects_constant_term():
    A, F = ut3()
    a = ReesElement(F, [unit_elt(A, "E11")])
    with pytest.raises(ValueError, match="constant"):
        integral_power_in_x_ideal(a, 2)


def test_integrality_implies_power_in_ideal():
    # seeded positive-degree elements: witness found => the certified power
    # lands in xR
    rng = random.Random(23)
    for name, param in BUILTINS:
        A, F = builtin_example(name, param)
        for _ in range(3):
            coeffs = [A.zero_element()] + [stage_element(F, n, rng, bound=1) for n in range(1, F.top + 1)]
            a = ReesElement(F, coeffs)
            w = integral_witness(a, n_max=4)
            if w is None:
                continue
            out = integral_power_in_x_ideal(a, w.degree)
            assert out.ok, (name, param)


def test_iso_check_all_builtins():
    for name, param in BUILTINS:
        _, F = builtin_example(name, param)
        report = check_graded_rees_isomorphism(F, max_degree=4)
        assert report.ok, (name, param, report.failures)
        for entry in report.ledger:
            assert entry["gr_dim"] == entry["stage_difference"] == entry["quotient_dim"]


def test_iso_check_detects_corrupted_tensor():
    _, F = ut3()
    gr = associated_graded(F)
    mul = {k: dict(v) for k, v in gr.algebra.mul.items()}
    (i, j), entry = next(
        ((k, v) for k, v in sorted(mul.items()) if v), (None, None)
    )
    k0 = next(iter(entry))
    entry[k0] = entry[k0] + QQ.one()
    bad_alg = StructureAlgebra(
        gr.algebra.field, gr.algebra.names, mul, unit=gr.algebra.unit, check=False
    )
    corrupted = GradedAlgebra(
        gr.filtration, gr.adapted, gr.component_dims, bad_alg, gr._to_adapted
    )
    report = check_graded_rees_isomorphism(F, max_degree=4, gr=corrupted)
    assert not report.ok
    assert any(f["kind"] == "multiplicativity" for f in report.failures)


def test_scalar_poly_trims_and_compares():
    p = ScalarPoly(QQ, [0, 1, 0])
    assert p == ScalarPoly.x(QQ)
    assert p.degree == 1
    assert ScalarPoly(QQ, []).is_zero()
    gf7 = Field("GF", 7)
    q = ScalarPoly(gf7, [1, 0, 3])
    assert (q.coeff(0), q.coeff(2), q.coeff(5), q.coeff(-1)) == (gf7.one(), gf7.scalar(3), gf7.zero(), gf7.zero())
    assert repr(q) == "1 + 3*x^2"
    # unreduced residues and trailing zeros read as the same polynomial, and hash alike
    assert q == ScalarPoly(gf7, [8, 7, 3, 0]) and hash(q) == hash(ScalarPoly(gf7, [8, 7, 3, 0]))


def _substitute(witness, a):
    """Recombine sum_i q_i(x) * a^i in the ambient polynomial algebra."""
    base = a.filtration.algebra
    n = witness.degree
    width = 1 + a.degree * n if a.degree >= 0 else 1
    acc = [base.zero_element() for _ in range(width + max(q.degree for q in witness.multipliers) + 1)]
    power = [base.unit_element()] if base.is_unital else []
    for i, q in enumerate(witness.multipliers):
        if i >= 1:
            power = list((a**i).coeffs) if not a.is_zero() else []
        for j, c in enumerate(q.coeffs):
            if not c:
                continue
            for e, coeff in enumerate(power):
                acc[j + e] = acc[j + e] + c * coeff
    return acc


def test_integral_witness_with_polynomial_multipliers():
    # a = (1+t)x in k[t]/(t^4): (a - x)^4 = (tx)^4 = 0, so a is integral of
    # degree 4 with genuinely polynomial multipliers, and no smaller degree
    # works (matching t-coefficients rules out n = 2, 3).
    A, F = builtin_example("truncated-polynomial", 4)
    one_plus_t = A.element([1, 1, 0, 0])
    a = ReesElement(F, [A.zero_element(), one_plus_t])
    assert integral_witness(a, n_max=3) is None
    w = integral_witness(a, n_max=4)
    assert w is not None and w.degree == 4
    # substitute the witness back in and compare with a^4 exactly
    recombined = _substitute(w, a)
    target = (a**4).coeffs
    for e, coeff in enumerate(recombined):
        expected = target[e] if e < len(target) else A.zero_element()
        assert coeff == expected, e
    out = integral_power_in_x_ideal(a, w.degree)
    assert out.ok and out.exponent == 4
    assert out.least_exponent == 4  # (1+t)^2 and (1+t)^3 overflow their stages
    assert not a.in_x_ideal()


def test_iso_check_over_prime_fields():
    for p in (2, 3, 5):
        f = Field("GF", p)
        for name, param in BUILTINS:
            _, F = builtin_example(name, param, f)
            report = check_graded_rees_isomorphism(F, max_degree=4)
            assert report.ok, (name, param, p, report.failures)


@pytest.mark.parametrize("field", [QQ, Field("GF", 2), Field("GF", 3), Field("GF", 101)], ids=repr)
def test_truncated_power_check_matches_the_full_powers(field):
    rng = random.Random(41)
    for name, param in [("truncated-polynomial", 4), ("truncated-polynomial", 6), ("upper-triangular", 4),
                        ("exterior-algebra", 3), ("strictly-upper-triangular", 4)]:
        A, F = builtin_example(name, param, field)
        for _ in range(2):
            # one coefficient above the top, where stages clamp
            coeffs = [A.zero_element()] + [stage_element(F, n, rng) for n in range(1, F.top + 2)]
            a = ReesElement(F, coeffs)
            w = integral_witness(a, n_max=A.dim)
            for n in range(1, (w.degree if w else 2) + 1):
                assert integral_power_in_x_ideal(a, n) == power_membership_reference(a, n), (name, n)
    # failing cases: t x + t^2 x^2 in k[t]/(t^4) is outside xR up to its cube
    A, F = builtin_example("truncated-polynomial", 4, field)
    a = ReesElement.make(F, [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    for n, exponent, x_degree in ((1, 1, 1), (2, 3, 3)):
        out = integral_power_in_x_ideal(a, n)
        assert out == power_membership_reference(a, n)
        assert not out.ok and out.least_exponent is None
        assert out.witness == {"power": exponent, "x_degree": x_degree}
    assert integral_power_in_x_ideal(a, 3) == power_membership_reference(a, 3)
    assert integral_power_in_x_ideal(a, 3).least_exponent == 4


def counting(monkeypatch, owner, name):
    """Wrap owner.name so that each call is counted; returns the list of counts."""
    calls = [0]
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("field", [QQ, Field("GF", 3)], ids=repr)
def test_power_check_stops_at_the_least_power_in_x_ideal(field, monkeypatch):
    """xR is an ideal: no power past the least one in xR is multiplied out, and no power is a ReesElement."""
    rng = random.Random(43)
    cases = []
    for name, param in [("truncated-polynomial", 6), ("upper-triangular", 4), ("exterior-algebra", 3)]:
        A, F = builtin_example(name, param, field)
        for _ in range(3):
            a = ReesElement(F, [A.zero_element()] + [stage_element(F, n, rng) for n in range(1, F.top + 1)])
            for n in (2, 4):
                cases.append((a, n, power_membership_reference(a, n)))
    products = counting(monkeypatch, rees, "_ax_mul")
    built = counting(monkeypatch, ReesElement, "__init__")
    stops_early = 0
    for a, n, expected in cases:
        products[0] = 0
        assert integral_power_in_x_ideal(a, n) == expected
        least = expected.least_exponent
        assert products[0] == (least if expected.ok else expected.exponent) - 1
        stops_early += expected.ok and least < expected.exponent
    assert built[0] == 0 and stops_early


def test_rees_integrality_multiplies_only_up_to_the_least_power(monkeypatch):
    """truncated-polynomial:9: 8 products in the witness search and 8 in the power check (least power 9)."""
    products = counting(monkeypatch, rees, "_ax_mul")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["rees-integrality", "--builtin", "truncated-polynomial:9", "--nmax", "9"]) == 0
    assert '"least_power_in_x_ideal": 9' in out.getvalue() and '"power_exponent": 65' in out.getvalue()
    assert products[0] == 16
