import json
from fractions import Fraction

import pytest

from ordsym.algebra import StructureAlgebra
from ordsym.catalog import builtin_example
from ordsym.fields import Field, Scalar
from ordsym.io import InputError, dump_description, load_description, load_path


def doc_ut3():
    A, F = builtin_example("upper-triangular", 3)
    return dump_description(A, F)


def test_missing_dim_rejected():
    with pytest.raises(InputError, match="dim"):
        load_description({"field": {"kind": "Q"}, "basis": [], "mul": []})


def test_basis_length_mismatch():
    doc = doc_ut3()
    doc["basis"] = doc["basis"][:-1]
    with pytest.raises(InputError, match="basis"):
        load_description(doc)


def test_duplicate_mul_entry_located():
    doc = doc_ut3()
    doc["mul"].append(list(doc["mul"][0]))
    with pytest.raises(InputError, match=r"mul\[\d+\].*duplicate"):
        load_description(doc)


def test_out_of_range_index_located():
    doc = doc_ut3()
    doc["mul"][0] = [1, 99, [[1, "1"]]]
    with pytest.raises(InputError, match=r"mul\[0\]"):
        load_description(doc)


def test_bad_scalar_located():
    doc = doc_ut3()
    doc["mul"][0][2][0][1] = None
    with pytest.raises(InputError, match=r"mul\[0\]\[0\]"):
        load_description(doc)


@pytest.mark.parametrize("bad, field", [("1/0", None), ("1/3", Field("GF", 3))])
def test_zero_denominator_located(bad, field):
    doc = doc_ut3()
    doc["mul"][0][2][0][1] = bad
    with pytest.raises(InputError, match=r"mul\[0\]\[0\].*zero denominator"):
        load_description(doc, field_override=field)


def test_bad_filtration_vector_located():
    doc = doc_ut3()
    doc["filtration"][0][0] = [1, 2]
    with pytest.raises(InputError, match=r"filtration\[0\]\[0\]"):
        load_description(doc)


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"field": {"kind": "Q"}, "dim": True, "basis": ["a"], "mul": [[True, True, [[True, "1"]]]]},
         "dim: expected a positive integer, got True"),
        ({"dim": 1, "basis": ["a"], "mul": [[True, 1, [[1, "1"]]]]}, r"mul\[0\]: indices must be in 1\.\.1"),
        ({"dim": 1, "basis": ["a"], "mul": [[1, True, [[1, "1"]]]]}, r"mul\[0\]: indices must be in 1\.\.1"),
        ({"dim": 1, "basis": ["a"], "mul": [[1, 1, [[True, "1"]]]]},
         r"mul\[0\]\[0\]: target index must be in 1\.\.1"),
    ],
    ids=["dim", "i", "j", "k"],
)
def test_a_bool_is_no_index(doc, where):
    """JSON true is no integer: a bool dim or index is rejected where it stands."""
    with pytest.raises(InputError, match=where):
        load_description(doc)


def test_duplicate_target_index_located():
    doc = {"dim": 2, "basis": ["a", "b"], "mul": [[1, 1, [[2, "1"], [2, "5"]]]]}
    with pytest.raises(InputError, match=r"^mul\[0\]\[1\]: duplicate target index 2$"):
        load_description(doc)


@pytest.mark.parametrize("p", [7.9, "7", True, None], ids=repr)
def test_a_gf_modulus_must_be_an_integer(p):
    doc = {"field": {"kind": "GF", "p": p}, "dim": 1, "basis": ["a"], "mul": [[1, 1, [[1, 1]]]]}
    with pytest.raises(InputError, match="^field: prime-field modulus must be an integer >= 2$"):
        load_description(doc)


def test_composite_override_rejected():
    with pytest.raises(ValueError, match="not prime"):
        Field("GF", 9)


def test_load_path_reports_json_location(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"dim": 1,\n  "basis": [')
    with pytest.raises(InputError, match=r"x\.json:\d+:\d+"):
        load_path(str(path))


def test_load_path_missing_file():
    with pytest.raises(InputError, match="no-such-file"):
        load_path("no-such-file.json")


def test_unit_optional():
    doc = doc_ut3()
    del doc["unit"]
    A, _ = load_description(doc)
    assert not A.is_unital


def test_gf_description_roundtrip():
    f = Field("GF", 7)
    A, F = builtin_example("exterior-algebra", 2, f)
    text = json.dumps(dump_description(A, F))
    B, G = load_description(json.loads(text))
    assert B.field == f and B.mul == A.mul
    assert tuple(G.stages) == tuple(F.stages)


# A unital algebra on f = 2*1, t, s = -2*t^2 in k[t]/(t^3): f*f = 2f, f*t = 2t,
# f*s = 2s, t*t = -1/2 s, and the unit is f/2.  The documents spell its
# constants out of canonical form: "4/2" and "6/3" for 2, "-3/6" for -1/2,
# residues above p, and explicit zero constants, which are not stored.
NONCANONICAL_Q = {
    "field": {"kind": "Q"},
    "dim": 3,
    "basis": ["f", "t", "s"],
    "unit": ["1/2", "0/3", 0],
    "mul": [[1, 1, [[1, "4/2"]]], [1, 2, [[2, 2]]], [2, 1, [[2, "6/3"]]], [1, 3, [[3, "4/2"]]],
            [3, 1, [[3, 2], [1, 0]]], [2, 2, [[3, "-3/6"]]], [2, 3, [[3, 0]]], [3, 2, [[1, "0/5"]]]],
}
NONCANONICAL_GF7 = {
    **NONCANONICAL_Q,
    "field": {"kind": "GF", "p": 7},
    "unit": [11, 0, 7],
    "mul": [[1, 1, [[1, 9]]], [1, 2, [[2, 2]]], [2, 1, [[2, 16]]], [1, 3, [[3, -5]]],
            [3, 1, [[3, 2], [1, 14]]], [2, 2, [[3, "-3/6"]]], [2, 3, [[3, 0]]], [3, 2, [[1, 7]]]],
}


def _canonical_doc(field, two, minus_half, half):
    return {
        "field": field,
        "dim": 3,
        "basis": ["f", "t", "s"],
        "unit": [half, 0, 0] if "p" in field else [half, "0", "0"],
        "mul": [[1, 1, [[1, two]]], [1, 2, [[2, two]]], [1, 3, [[3, two]]], [2, 1, [[2, two]]],
                [2, 2, [[3, minus_half]]], [3, 1, [[3, two]]]],
    }


@pytest.mark.parametrize(
    "doc, override, expected",
    [
        (NONCANONICAL_Q, None, _canonical_doc({"kind": "Q"}, "2", "-1/2", "1/2")),
        (NONCANONICAL_Q, Field("GF", 7), _canonical_doc({"kind": "GF", "p": 7}, 2, 3, 4)),
        (NONCANONICAL_GF7, None, _canonical_doc({"kind": "GF", "p": 7}, 2, 3, 4)),
    ],
    ids=["Q", "Q-read-in-GF7", "GF7"],
)
def test_noncanonical_constants_round_trip_canonically(doc, override, expected):
    """Each constant is read once into its canonical raw value, zeros dropped."""
    A, _ = load_description(doc, field_override=override)
    assert A.validate().ok
    assert dump_description(A) == expected
    field = A.field
    two, half = Fraction(2), Fraction(1, 2)
    direct = StructureAlgebra(field, ["f", "t", "s"], {
        (0, 0): {0: two}, (0, 1): {1: two}, (1, 0): {1: two}, (0, 2): {2: two}, (2, 0): {2: two},
        (1, 1): {2: -half},
    }, unit=[half, 0, 0])
    assert A.mul == direct.mul and A.unit == direct.unit
    assert all(isinstance(c, Scalar) for row in A.mul.values() for c in row.values())
    B, _ = load_description(json.loads(json.dumps(dump_description(A))))
    assert dump_description(B) == expected and B.mul == A.mul and B.unit == A.unit
