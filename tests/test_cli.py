import json

import pytest

from ordsym.catalog import builtin_example
from ordsym.cli import main
from ordsym.io import dump_description


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_sym_poly_command(capsys):
    code, report = run(["sym-poly", "--md", "2,2"], capsys)
    assert code == 0
    assert report["status"] == "pass"
    assert report["results"]["term_count"] == 6
    assert report["results"]["multinomial"] == 6


def test_span_dim_command(capsys):
    code, report = run(["span-dim", "--n", "2", "--m", "2"], capsys)
    assert code == 0
    assert report["results"]["dim"] == 3 == report["results"]["dim_formula"]


def test_nil_index_on_strictly_upper(capsys):
    code, report = run(["nil-index", "--builtin", "strictly-upper-triangular:3"], capsys)
    assert code == 0
    assert report["results"]["index"] == 3


def test_nil_index_with_field_override(capsys):
    code, report = run(
        ["nil-index", "--builtin", "strictly-upper-triangular:3", "--field", "GF:5"],
        capsys,
    )
    assert code == 0
    assert report["results"]["index"] == 3
    assert report["results"]["brute_force"] == 3


def test_nil_index_explicit_elements(capsys):
    code, report = run(
        [
            "nil-index",
            "--builtin",
            "upper-triangular:3",
            "--elements",
            json.dumps([[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]]),
        ],
        capsys,
    )
    assert code == 0
    assert report["results"]["index"] == 3


def test_alg_degree_command(capsys):
    code, report = run(["alg-degree", "--builtin", "truncated-polynomial:4"], capsys)
    assert code == 0
    assert report["results"]["degrees"][0] == 2  # the unit basis vector: a^2 = a


def test_alg_bound_command(capsys):
    code, report = run(["alg-bound", "--builtin", "strictly-upper-triangular:3"], capsys)
    assert code == 0
    assert report["results"]["d"] == 2
    assert report["results"]["degree_bound"] == 4


def test_check_filtration_command(capsys):
    code, report = run(["check-filtration", "--builtin", "exterior-algebra:2"], capsys)
    assert code == 0
    assert report["results"]["filtration_valid"] is True
    assert report["results"]["stage_dims"] == [1, 3, 4]


def test_gr_command(capsys):
    code, report = run(["gr", "--builtin", "upper-triangular:3"], capsys)
    assert code == 0
    assert report["results"]["component_dims"] == [3, 2, 1]


def test_verify_my1_ut4(capsys):
    code, report = run(
        ["verify-my1", "--builtin", "upper-triangular:4", "--p", "1", "--q", "3"],
        capsys,
    )
    assert code == 0
    assert report["status"] == "pass"
    assert report["params"]["p"] == 1 and report["params"]["q"] == 3
    assert report["results"]["d"] == 4
    assert report["results"]["N"] == 10
    assert report["results"]["actual_index"] == 4


def test_rees_integrality_seeded_element(capsys):
    code, report = run(
        ["rees-integrality", "--builtin", "truncated-polynomial:4", "--nmax", "4"],
        capsys,
    )
    assert code == 0
    assert report["results"]["integral_degree"] is not None
    assert report["results"]["power_in_x_ideal"] is True


def test_iso_check_command(capsys):
    code, report = run(["iso-check", "--builtin", "exterior-algebra:3", "--maxdeg", "4"], capsys)
    assert code == 0
    for entry in report["results"]["dimension_ledger"]:
        assert entry["gr_dim"] == entry["stage_difference"] == entry["quotient_dim"]


def test_exit_2_on_truncated_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"field": {"kind": "Q"}, "dim": 3, ')
    code = main(["gr", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err


def test_exit_2_on_unknown_builtin(capsys):
    code = main(["gr", "--builtin", "nope:3"])
    assert code == 2


def test_exit_2_on_missing_source(capsys):
    code = main(["nil-index"])
    assert code == 2


def test_exit_1_on_corrupted_description(tmp_path, capsys):
    A, F = builtin_example("upper-triangular", 3)
    doc = dump_description(A, F)
    doc["mul"][0][2] = [[1, "7"]]  # corrupt one product entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run(["check-filtration", "--input", str(path)], capsys)
    assert code == 1
    assert report["status"] == "fail"


def test_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-my1", "--builtin", "upper-triangular:3", "--seed", "5", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert r1 == r2


def test_out_file_written(tmp_path):
    out = tmp_path / "r.json"
    assert main(["sym-poly", "--md", "1,1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["command"] == "sym-poly"
    assert list(report) == ["command", "status", "params", "results", "witnesses", "timing_ms"]


def test_alg_degree_unital_flag(capsys):
    code, report = run(
        ["alg-degree", "--builtin", "truncated-polynomial:4", "--unital"], capsys
    )
    assert code == 0
    assert report["results"]["unital_convention"] is True
    assert report["results"]["degrees"][0] == 1  # the unit spans itself


def test_unital_flag_rejected_without_unit(capsys):
    code = main(["alg-degree", "--builtin", "strictly-upper-triangular:3", "--unital"])
    assert code == 2


def test_verify_my1_pinned_d(capsys):
    code, report = run(
        ["verify-my1", "--builtin", "upper-triangular:3", "--d", "3"], capsys
    )
    assert code == 0
    assert report["results"]["d_source"] == "given"
    assert report["results"]["N"] == 5


def test_span_dim_requires_arguments(capsys):
    assert main(["span-dim", "--n", "2"]) == 2


def test_bad_elements_json(capsys):
    code = main(["nil-index", "--builtin", "upper-triangular:3", "--elements", "[[1,2]]"])
    assert code == 2


def test_sym_poly_gf_field(capsys):
    code, report = run(["sym-poly", "--md", "1,1", "--field", "GF:7"], capsys)
    assert code == 0
    assert report["results"]["terms"] == [[[1, 2], 1], [[2, 1], 1]]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "verify-my1" in capsys.readouterr().out


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_description_file_input_end_to_end(tmp_path, capsys):
    A, F = builtin_example("upper-triangular", 3)
    path = tmp_path / "ut3.json"
    path.write_text(json.dumps(dump_description(A, F)))
    code, report = run(["verify-my1", "--input", str(path), "--p", "1", "--q", "2"], capsys)
    assert code == 0
    assert report["results"]["N"] == 5


def _ut3_with_filtration(tmp_path, stages):
    """upper-triangular:3 (basis E11 E22 E33 E12 E23 E13) with the given stages.

    Each stage lists the basis indices of its spanning unit vectors.
    """
    A, F = builtin_example("upper-triangular", 3)
    doc = dump_description(A, F)
    doc["filtration"] = [
        [["1" if k == i else "0" for k in range(A.dim)] for i in stage] for stage in stages
    ]
    path = tmp_path / "ut3.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_filtration_reports_broken_nesting(tmp_path, capsys):
    path = _ut3_with_filtration(tmp_path, [[5], [0, 1, 2, 3, 4], range(6)])
    code, report = run(["check-filtration", "--input", path], capsys)
    assert code == 1
    assert report["status"] == "fail"
    assert report["results"]["filtration_valid"] is False
    assert report["results"]["filtration_detail"] == "nesting fails at (0, 1)"
    assert report["results"]["stage_dims"] == [1, 5, 6]
    assert report["witnesses"] == [{"law": "nesting", "where": [0, 1]}]


def test_check_filtration_reports_broken_multiplicativity(tmp_path, capsys):
    # E12 * E23 = E13 leaves F_0 = span(E12, E23)
    path = _ut3_with_filtration(tmp_path, [[3, 4], [0, 1, 2, 3, 4], range(6)])
    code, report = run(["check-filtration", "--input", path], capsys)
    assert code == 1
    assert report["status"] == "fail"
    assert report["results"]["filtration_valid"] is False
    assert report["results"]["algebra_valid"] is True
    assert report["witnesses"] == [
        {"law": "multiplicativity", "where": [0, 0], "witness": ["0", "0", "0", "0", "0", "1"]}
    ]


def test_check_filtration_without_filtration_is_input_error(tmp_path, capsys):
    A, _ = builtin_example("upper-triangular", 3)
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(dump_description(A)))
    assert main(["check-filtration", "--input", str(path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-my1", "--builtin", "upper-triangular:3", "--samples", "-1"],
        ["nil-index", "--builtin", "strictly-upper-triangular:3", "--nmax", "0"],
        ["iso-check", "--builtin", "upper-triangular:3", "--maxdeg", "-1"],
    ],
)
def test_exit_2_on_out_of_range_values(argv, capsys):
    assert main(argv) == 2
    assert "input error" in capsys.readouterr().err


def test_explicit_nmax_is_the_cutoff(capsys):
    code, report = run(
        ["nil-index", "--builtin", "strictly-upper-triangular:3", "--nmax", "2"], capsys
    )
    assert code == 0
    assert report["results"]["cutoff"] == 2
    assert report["results"]["index"] is None
