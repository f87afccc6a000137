import random

import pytest

from ordsym.algebra import AlgElement, algebraic_degree
from ordsym.catalog import builtin_example, builtin_names
from ordsym.fields import QQ, Field
from ordsym.freealg import multidegrees
from ordsym.graded import (
    Filtration,
    InvalidFiltrationError,
    associated_graded,
    graded_nil_index_bound,
    sym_degree_check,
    validate_filtration,
    verify_graded_nil_index,
)
from ordsym.linalg import Subspace, times
from oracle import BUILTINS, outcome, reference_sym_degree_check, stage_element, unit_elt, ut3


def test_band_chain_validates():
    A, F = ut3()
    assert validate_filtration(A, F.stages).ok


def test_nesting_violation_detected():
    A, F = ut3()
    report = validate_filtration(A, [F.stages[1], F.stages[0], F.stages[2]])
    assert not report.ok and report.failures[0]["law"] == "nesting"


def test_exhaustion_violation_detected():
    A, F = ut3()
    report = validate_filtration(A, list(F.stages[:2]))
    assert not report.ok and report.failures[0]["law"] == "exhaustion"


def test_multiplicativity_violation_detected():
    A, F = ut3()
    bad0 = Subspace(QQ, A.dim, [unit_elt(A, "E12").coords, unit_elt(A, "E23").coords])
    report = validate_filtration(A, [bad0, F.stages[2]])
    assert not report.ok and report.failures[0]["law"] == "multiplicativity"
    assert "witness" in report.failures[0]


def test_invalid_filtration_raises_on_construction():
    A, F = ut3()
    with pytest.raises(InvalidFiltrationError):
        Filtration(A, list(F.stages[:2]))


def test_gr_ut3_component_dims():
    A, F = ut3()
    gr = associated_graded(F)
    assert gr.component_dims == [3, 2, 1]
    assert gr.algebra.validate().ok


def test_gr_class_product():
    A, F = ut3()
    gr = associated_graded(F)
    i12, i23, i13 = (A.names.index(n) for n in ("E12", "E23", "E13"))
    prod = gr.algebra.basis_element(i12) * gr.algebra.basis_element(i23)
    assert prod == gr.algebra.basis_element(i13)


def test_gr_trivial_chain_reproduces_tensor():
    A, _ = ut3()
    full = Subspace.full(QQ, A.dim)
    gr = associated_graded(Filtration(A, [full]))
    assert gr.component_dims == [A.dim]
    assert gr.algebra.mul == A.mul
    assert gr.algebra.unit == A.unit


def test_graded_product_degree_law():
    for name, param in BUILTINS:
        A, F = builtin_example(name, param)
        gr = associated_graded(F)
        degs = gr.slot_degrees()
        for (i, j), entry in gr.algebra.mul.items():
            for k in entry:
                assert degs[k] == degs[i] + degs[j]


def test_gr_products_of_degree_zero_classes_exact():
    A, F = ut3()
    gr = associated_graded(F)
    for i in gr.slots_of_degree(0):
        for j in gr.slots_of_degree(0):
            vi, vj = gr.adapted[i][1], gr.adapted[j][1]
            prod_in_a = A.multiply_coords(vi, vj)
            rep = gr.representative(
                gr.algebra.basis_element(i) * gr.algebra.basis_element(j)
            )
            assert rep.coords == prod_in_a


def test_bound_formula_values():
    assert graded_nil_index_bound(1, 3, 4) == 10
    assert graded_nil_index_bound(1, 2, 3) == 5
    for p in (1, 2, 3):
        for q in range(p, 5):
            assert graded_nil_index_bound(p, q, 1) == 1


def test_bound_reduces_to_linear_form_at_p1():
    for r in range(1, 7):
        for d in range(1, 7):
            assert graded_nil_index_bound(1, r, d) == (d - 1) * r + 1


def test_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        graded_nil_index_bound(3, 2, 4)
    with pytest.raises(ValueError):
        graded_nil_index_bound(1, 2, 0)


def test_verify_ut4():
    _, F = builtin_example("upper-triangular", 4)
    out = verify_graded_nil_index(F, p=1, q=3)
    assert out.ok
    assert out.d == 4 and out.n_bound == 10
    assert out.observed_index == 4
    assert out.tested_classes == 6  # strictly-upper slots of UT(4)
    assert out.d_source == "sampled"


def test_verify_ut3():
    _, F = ut3()
    out = verify_graded_nil_index(F, p=1, q=2)
    assert out.ok and out.d == 3 and out.n_bound == 5 and out.observed_index == 3


def test_verify_truncated_polynomial():
    _, F = builtin_example("truncated-polynomial", 4)
    out = verify_graded_nil_index(F, p=1, q=3)
    assert out.ok and out.d == 4 and out.n_bound == 10 and out.observed_index == 4


def test_verify_trivial_chain_vacuous():
    A, _ = ut3()
    F = Filtration(A, [Subspace.full(QQ, A.dim)])
    out = verify_graded_nil_index(F)
    assert out.ok and out.vacuous


def test_verify_with_pinned_d():
    _, F = ut3()
    out = verify_graded_nil_index(F, p=1, q=2, d=3)
    assert out.ok and out.d_source == "given" and out.n_bound == 5


def test_verify_fractional_bound_range():
    # p = 2 exercises the ceiling in N = ceil((d-1)q/p) + 1
    _, F = builtin_example("upper-triangular", 4)
    out = verify_graded_nil_index(F, p=2, q=3)
    assert out.ok
    assert out.n_bound == graded_nil_index_bound(2, 3, out.d)
    assert out.n_bound == -((out.d - 1) * 3 // -2) + 1
    assert out.observed_index is not None and out.observed_index <= out.n_bound


def test_verify_rejects_bad_range():
    _, F = ut3()
    with pytest.raises(ValueError):
        verify_graded_nil_index(F, p=2, q=1)
    with pytest.raises(ValueError):
        verify_graded_nil_index(F, p=1, q=9)


def test_verify_observed_never_exceeds_bound_across_builtins():
    for name, param in BUILTINS:
        _, F = builtin_example(name, param)
        for seed in (0, 1):
            out = verify_graded_nil_index(F, seed=seed)
            assert out.ok, (name, param, seed, out.failures)
            if out.observed_index is not None:
                assert out.observed_index <= out.n_bound


def test_verify_over_prime_fields():
    # the vanishing-span certificate needs no field-size hypothesis, so the
    # check must pass over tiny fields as well
    from ordsym.fields import Field

    for p in (2, 3):
        f = Field("GF", p)
        for name, param in BUILTINS:
            _, F = builtin_example(name, param, f)
            out = verify_graded_nil_index(F)
            assert out.ok, (name, param, p, out.failures)
            if out.observed_index is not None:
                assert out.observed_index <= out.n_bound


@pytest.mark.parametrize("field", [QQ, Field("GF", 2), Field("GF", 3), Field("GF", 101)], ids=str)
def test_sampled_d_stopped_at_the_dimension_cap_is_the_full_maximum(field):
    """No algebraic degree exceeds dim (dim + 1 without a unit), so stopping there keeps the maximum."""
    for name, param in BUILTINS:
        A, F = builtin_example(name, param, field)
        vectors = associated_graded(F)._vectors
        for seed in range(5):
            rng = random.Random(seed)
            samples = [{s: rng.randint(-3, 3) for s in range(A.dim)} for _ in range(32)]
            candidates = vectors + [times(field, coeffs, vectors) for coeffs in samples]
            full = max(algebraic_degree(AlgElement.from_raw(A, v), unital=A.is_unital) for v in candidates)
            assert verify_graded_nil_index(F, seed=seed).d == full, (name, param, seed)


def test_sampled_d_on_truncated_polynomial_computes_two_degrees(monkeypatch, capsys):
    """t has degree 6 = dim in k[t]/(t^6), so the unit and t decide d."""
    from ordsym import nilbound
    from ordsym.cli import main

    calls = []
    real = nilbound.algebraic_degree

    def counted(a, unital=False):
        calls.append(a)
        return real(a, unital=unital)

    monkeypatch.setattr(nilbound, "algebraic_degree", counted)
    assert main(["verify-my1", "--builtin", "truncated-polynomial:6"]) == 0
    assert '"d": 6' in capsys.readouterr().out
    assert len(calls) == 2


def test_sym_degree_check_mixed_stages():
    A, F = ut3()
    report = sym_degree_check(F, [unit_elt(A, "E12"), unit_elt(A, "E13")], 1, (1, 1))
    assert report.ok and report.weight == 3
    assert report.in_stage and report.graded_match


def test_sym_degree_check_zero_profile_unital():
    A, F = ut3()
    report = sym_degree_check(F, [unit_elt(A, "E12")], 1, (0,))
    assert report.ok and report.weight == 0 and not report.skipped


def test_sym_degree_check_zero_profile_skipped_unitless():
    A, F = builtin_example("strictly-upper-triangular", 3)
    report = sym_degree_check(F, [unit_elt(A, "E12")], 1, (0,))
    assert report.ok and report.skipped


def test_sym_degree_check_zero_class_case():
    A, F = ut3()
    # element chosen one stage below: its class vanishes, the check still holds
    report = sym_degree_check(F, [unit_elt(A, "E11"), unit_elt(A, "E13")], 1, (2, 1))
    assert report.ok


def test_sym_degree_check_rejects_bad_membership():
    A, F = ut3()
    with pytest.raises(ValueError, match="stage"):
        sym_degree_check(F, [unit_elt(A, "E13")], 1, (2,))


def test_graded_class_compatibility_sweep():
    # evaluating a symmetric sum on graded classes equals the class of the
    # symmetric sum of representatives, all profiles of total <= 4
    rng = random.Random(13)
    for name, param in BUILTINS:
        A, F = builtin_example(name, param)
        t = F.top
        if t < 1:
            continue
        gr = associated_graded(F)
        q = min(t, 2)
        elements = [stage_element(F, deg, rng) for deg in range(1, q + 1)]
        m = len(elements)
        for total in range(1, 5):
            for md in multidegrees(total, m):
                report = sym_degree_check(F, elements, 1, md, gr=gr)
                assert report.ok, (name, param, md)


@pytest.mark.parametrize("field", [QQ, Field("GF", 2), Field("GF", 3), Field("GF", 101)], ids=str)
def test_sym_degree_check_matches_word_by_word_reference(field):
    """Report for report, and error for error, the level walk gives what word-by-word evaluation gave."""
    seen = set()
    for name, param in BUILTINS:
        A, F = builtin_example(name, param, field)
        gr = associated_graded(F)
        rng = random.Random(f"{name}:{param}/{field}")
        for start in range(F.top + 1):
            for m in range(1, min(2, F.top - start + 1) + 1):
                elements = [stage_element(F, start + i, rng) for i in range(m)]
                for total in range(5):
                    for md in multidegrees(total, m):
                        args = (F, elements, start, md)
                        expected = reference_sym_degree_check(*args, gr=gr)
                        assert sym_degree_check(*args, gr=gr) == expected, (name, param, start, md)
                        seen.add("skipped" if expected.skipped else "checked")
                        if expected.weight > F.top:
                            seen.add("weight above t")
        # a negative profile entry, elements of two copies of one algebra, and an element outside its stage
        other = builtin_example(name, param, field)[0]
        x, y = stage_element(F, 0, rng), stage_element(F, 1, rng)
        for args in ((F, [y], 1, (-1,)), (F, [x, other.element(y.coords)], 0, (1, 1)),
                     (F, [A.basis_element(A.dim - 1)] * 2, 0, (1, 0))):
            expected = outcome(lambda: reference_sym_degree_check(*args, gr=gr))
            assert outcome(lambda: sym_degree_check(*args, gr=gr)) == expected, (name, param, args[3])
            seen.add(expected if isinstance(expected, str) else "no error")
    # a unital algebra whose unit sits in degree 1: gr has no unit, and the empty word raises on both sides
    A, F = builtin_example("upper-triangular", 3, field)
    chain = Filtration(A, [Subspace.zero(field, A.dim), Subspace(field, A.dim, [A.unit]), Subspace.full(field, A.dim)])
    args = (chain, [A.unit_element()], 1, (0,))
    assert outcome(lambda: sym_degree_check(*args)) == outcome(lambda: reference_sym_degree_check(*args))
    assert outcome(lambda: sym_degree_check(*args)) == "ValueError: algebra has no unit"
    assert {name for name, _ in BUILTINS} == set(builtin_names())
    assert {"skipped", "checked", "weight above t", "ValueError: profile entries must be nonnegative",
            "ValueError: assignment mixes algebras", "ValueError: element not in stage 0"} <= seen, seen


def test_refined_band_chain_pipeline():
    # a chain strictly between the builtin ones: the first superdiagonal
    # unit gets its own stage; still multiplicative since band offsets add
    A, F = builtin_example("upper-triangular", 3)
    refine = [
        F.stages[0],
        F.stages[0] + Subspace(QQ, A.dim, [unit_elt(A, "E12").coords]),
        F.stages[1],
        F.stages[2],
    ]
    assert validate_filtration(A, refine).ok
    G = Filtration(A, refine)
    gr = associated_graded(G)
    assert gr.component_dims == [3, 1, 1, 1]
    assert gr.algebra.validate().ok
    out = verify_graded_nil_index(G)
    assert out.ok and out.observed_index is not None
    assert out.observed_index <= out.n_bound

    from ordsym.rees import check_graded_rees_isomorphism

    iso = check_graded_rees_isomorphism(G, max_degree=4)
    assert iso.ok
    for entry in iso.ledger:
        assert entry["gr_dim"] == entry["stage_difference"] == entry["quotient_dim"]


def test_filtration_stage_clamps():
    _, F = ut3()
    assert F.stage(-1).is_zero()
    assert F.stage(99) == F.stages[-1]


def test_level_of():
    A, F = ut3()
    assert F.level_of(unit_elt(A, "E11").coords) == 0
    assert F.level_of(unit_elt(A, "E12").coords) == 1
    assert F.level_of(unit_elt(A, "E13").coords) == 2


@pytest.mark.parametrize("field", [QQ, Field("GF", 7)], ids=repr)
def test_class_element_reads_a_dense_vector_of_its_stage(field):
    for name, param in BUILTINS:
        A, F = builtin_example(name, param, field)
        gr = associated_graded(F)
        for d in range(F.top + 1):
            stage = F.stage(d)
            for row, raw in zip(stage.rows, stage.raw_rows()):
                assert gr.class_element(row, d) == gr._class_of(raw, d), (name, d)
            outside = next((e for e in A.basis_elements() if not stage.contains(e.coords)), None)
            if outside is not None:
                with pytest.raises(ValueError, match="not in stage"):
                    gr.class_element(outside.coords, d)
            with pytest.raises(ValueError, match="length"):
                gr.class_element([field.zero()] * (A.dim + 1), d)
