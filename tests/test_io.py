import json

import pytest

from ordsym.catalog import builtin_example
from ordsym.fields import Field
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
