import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordsym.catalog import builtin_example
from ordsym.cli import _COMMANDS, _COMMON, _dumps, _encode, _read_line, build_parser, main
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


@pytest.mark.parametrize("descriptor", ["GF:abc", "GF:7.9", "GF:", "GF:1_01", "GF: 7", "GF:\u0663"])
def test_exit_2_on_unparsable_field_modulus(descriptor, capsys):
    assert main(["nil-index", "--builtin", "upper-triangular:2", "--field", descriptor]) == 2
    assert capsys.readouterr().err == f"input error: unknown field descriptor {descriptor!r}\n"


@pytest.mark.parametrize(
    "modulus, message",
    [
        # psi_12, the least strong pseudoprime to the bases 2..37, composite
        ("318665857834031151167461", "is too large: primality is certified only below 318665857834031151167461"),
        ("300000000029300000000713", "300000000029300000000713 is not prime"),
    ],
)
def test_exit_2_on_a_modulus_not_certified_prime(modulus, message, capsys):
    assert main(["nil-index", "--builtin", "strictly-upper-triangular:3", "--field", f"GF:{modulus}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_exit_2_on_a_modulus_longer_than_int_converts(capsys):
    """5,000 digits: more than psi_12 has, so the modulus is rejected before int() reads it."""
    nines = "9" * 5000
    assert main(["nil-index", "--builtin", "upper-triangular:2", "--field", f"GF:{nines}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"input error: prime-field modulus {nines} is too large: "
        "primality is certified only below 318665857834031151167461\n"
    )


def test_leading_zeros_of_a_modulus_are_not_digits_that_count(capsys):
    argv = ["nil-index", "--builtin", "upper-triangular:2", "--field"]
    code, padded = run([*argv, "GF:" + "0" * 5000 + "7"], capsys)
    _, plain = run([*argv, "GF:7"], capsys)
    del padded["timing_ms"], plain["timing_ms"]
    assert code == 0 and padded == plain


needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python converts integers of any length"
)


@needs_int_digit_limit
@pytest.mark.parametrize("command, flag", [("nil-index", "--elements"), ("rees-integrality", "--coeffs")])
def test_exit_2_on_a_json_integer_longer_than_int_converts(command, flag, capsys):
    vector = "[" + "9" * 5000 + ", 0, 0]"
    argv = [command, "--builtin", "truncated-polynomial:3", flag, f"[{vector}]"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert captured.out == "" and captured.err == f"input error: {flag}: a JSON integer has more than {limit} digits\n"


@needs_int_digit_limit
def test_exit_2_on_a_description_integer_longer_than_int_converts(tmp_path, capsys):
    path = tmp_path / "long-modulus.json"
    path.write_text('{"field": {"kind": "GF", "p": %s}, "dim": 1, "basis": ["a"], "mul": []}' % ("9" * 5000))
    assert main(["gr", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert captured.out == "" and captured.err == f"input error: {path}: a JSON integer has more than {limit} digits\n"


def test_exit_2_on_an_empty_input_path_quotes_it(capsys):
    assert main(["gr", "--input", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: '': [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize("data, where", [
    (b"\xff\xfe\x7b", "invalid start byte at byte 0"),
    (b'{"dim": 1, "basis": ["\xe9"]}', "invalid continuation byte at byte 22"),
])
def test_exit_2_on_a_description_file_that_is_not_utf8_names_the_file(data, where, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(data)
    assert main(["gr", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {path}: not UTF-8 ({where})\n"


def test_exit_2_on_a_gf_description_without_modulus(tmp_path, capsys):
    doc = {"field": {"kind": "GF"}, "dim": 1, "basis": ["a"], "mul": []}
    path = tmp_path / "no-modulus.json"
    path.write_text(json.dumps(doc))
    assert main(["nil-index", "--input", str(path)]) == 2
    assert capsys.readouterr().err == 'input error: field: a GF field needs its integer modulus "p"\n'


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


def test_exit_2_on_unwritable_out(tmp_path, capsys):
    # a missing directory, a directory, and an empty path (a given --out is never stdout)
    for out in (tmp_path / "missing" / "r.json", tmp_path, ""):
        assert main(["span-dim", "--n", "2", "--m", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")


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


def test_verify_my1_with_a_zero_top_stage_and_no_samples(tmp_path, capsys):
    """F_q is zero, so no vector is left to sample d from: every element has degree 1, so d = 1."""
    path = tmp_path / "zero-fq.json"
    path.write_text(json.dumps({"field": "Q", "dim": 1, "basis": ["a"], "mul": [], "filtration": [[], [], [[1]]]}))
    code, report = run(["verify-my1", "--input", str(path), "--q", "1", "--samples", "0"], capsys)
    assert code == 0
    del report["timing_ms"]
    assert report == {
        "command": "verify-my1",
        "status": "pass",
        "params": {"p": 1, "q": 1, "d": 1, "N": 1, "seed": 0, "samples": 0},
        "results": {"vacuous": False, "d": 1, "d_source": "sampled", "N": 1, "actual_index": None,
                    "tested_classes": 0, "tested_samples": 0},
        "witnesses": None,
    }


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


@pytest.mark.parametrize(
    "stages, where",
    [
        # E12 * E23 = E13 leaves F_0 = span(E12, E23)
        ([[3, 4], [0, 1, 2, 3, 4], range(6)], [0, 0]),
        # E12 * E23 = E13 leaves F_2 = F_1, after F_1's diagonal rows pass
        ([[0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4], range(6)], [1, 1]),
    ],
    ids=["at-0-0", "at-1-1"],
)
def test_check_filtration_reports_broken_multiplicativity(tmp_path, capsys, stages, where):
    path = _ut3_with_filtration(tmp_path, stages)
    code, report = run(["check-filtration", "--input", path], capsys)
    assert code == 1
    assert report["status"] == "fail"
    assert report["results"]["filtration_valid"] is False
    assert report["results"]["algebra_valid"] is True
    assert report["witnesses"] == [
        {"law": "multiplicativity", "where": where, "witness": ["0", "0", "0", "0", "0", "1"]}
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
        ["rees-integrality", "--builtin", "truncated-polynomial:3", "--degmax", "-1"],
        # a one-stage filtration checks its flags as a longer one does
        ["verify-my1", "--builtin", "truncated-polynomial:1", "--d", "0"],
        ["verify-my1", "--builtin", "truncated-polynomial:1", "--p", "0"],
        ["verify-my1", "--builtin", "truncated-polynomial:1", "--p", "3", "--q", "1"],
    ],
)
def test_exit_2_on_out_of_range_values(argv, capsys):
    assert main(argv) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        # both sources, or a given but empty source, flag or field
        (["gr", "--builtin", "upper-triangular:2", "--input", "/nonexistent.json"],
         "give --input FILE or --builtin NAME:PARAM, not both"),
        (["gr", "--builtin", "", "--input", "/nonexistent.json"],
         "give --input FILE or --builtin NAME:PARAM, not both"),
        (["gr", "--input", "", "--builtin", "upper-triangular:2"],
         "give --input FILE or --builtin NAME:PARAM, not both"),
        (["gr", "--builtin", ""], "--builtin expects NAME:PARAM, got ''"),
        (["nil-index", "--builtin", "upper-triangular:2", "--field", ""], "unknown field descriptor ''"),
        (["sym-poly", "--md", "2", "--field", ""], "unknown field descriptor ''"),
        (["rees-integrality", "--builtin", "truncated-polynomial:3", "--coeffs", ""], "--coeffs: Expecting value"),
        # a size is ASCII digits only
        (["nil-index", "--builtin", "upper-triangular:\u0663"], "builtin parameter must be an integer, got '\u0663'"),
        (["nil-index", "--builtin", "upper-triangular:1_0"], "builtin parameter must be an integer, got '1_0'"),
        (["nil-index", "--builtin", "upper-triangular: 3"], "builtin parameter must be an integer, got ' 3'"),
        (["nil-index", "--builtin", "upper-triangular:+3"], "builtin parameter must be an integer, got '+3'"),
        (["nil-index", "--builtin", "upper-triangular:-3"], "builtin parameter must be an integer, got '-3'"),
        (["sym-poly", "--md", "\u0662,1"], "--md expects comma-separated integers, got '\u0662,1'"),
        (["sym-poly", "--md", " 2,1"], "--md expects comma-separated integers, got ' 2,1'"),
        (["sym-poly", "--md=-1,2"], "--md expects comma-separated integers, got '-1,2'"),
    ],
)
def test_exit_2_on_a_malformed_value_of_a_given_flag(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


def test_a_huge_nmax_stops_at_a_non_nilpotent_member(capsys):
    """E11 is idempotent: it is powered to dim + 1, not to the cutoff."""
    argv = ["nil-index", "--builtin", "upper-triangular:2", "--nmax"]
    code, report = run([*argv, "100000000"], capsys)
    _, small = run([*argv, "5"], capsys)
    assert code == 0 and report["results"]["cutoff"] == 100000000
    for r in (report, small):
        del r["timing_ms"], r["results"]["cutoff"]
    assert report == small and report["results"]["index"] is None


def test_explicit_nmax_is_the_cutoff(capsys):
    code, report = run(
        ["nil-index", "--builtin", "strictly-upper-triangular:3", "--nmax", "2"], capsys
    )
    assert code == 0
    assert report["results"]["cutoff"] == 2
    assert report["results"]["index"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["nil-index", "--builtin", "strictly-upper-triangular:3", "--elements", '[["1/0", 0, 0]]'],
        ["nil-index", "--builtin", "strictly-upper-triangular:3", "--field", "GF:5", "--elements", '[["1/5", 0, 0]]'],
        ["rees-integrality", "--builtin", "truncated-polynomial:3", "--coeffs", '[[0, 0, 0], ["2/0", 0, 0]]'],
        ["rees-integrality", "--builtin", "truncated-polynomial:3", "--field", "GF:3",
         "--coeffs", '[[0, 0, 0], ["2/3", 0, 0]]'],
    ],
)
def test_exit_2_on_zero_denominator(argv, capsys):
    assert main(argv) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, where, entry",
    [
        (["nil-index", "--builtin", "strictly-upper-triangular:3", "--elements", '[[1,"x",0]]'], "--elements[0][1]", "x"),
        (["rees-integrality", "--builtin", "truncated-polynomial:3", "--coeffs", '[[0, 0, 0], ["x", 0, 0]]'],
         "--coeffs[1][0]", "x"),
        # an Arabic-Indic three: Fraction reads it, but it is no "num/den"
        (["alg-degree", "--builtin", "upper-triangular:2", "--elements", '[["\u0663",0,0]]'], "--elements[0][0]", "\u0663"),
    ],
    ids=["elements", "coeffs", "non-ascii-digit"],
)
def test_a_bad_flag_entry_is_named_by_flag_and_place(argv, where, entry, capsys):
    """Flags are read as description files are: the entry's place, then the same wording."""
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: {where}: bad scalar {entry!r}\n"


# --- the command line read without argparse, and the report written without json

FLAGS = sorted({flag for _, flags in _COMMANDS.values() for flag, _ in (*flags, *_COMMON)})
VALUES = ["0", "3", "007", "-1", "+3", "\u0663", "1_0", " 3", "", "-h", "--help", "2,2", "GF:101", "GF:2",
          "upper-triangular:3", "[[1,0,0,0]]", "x y", "-", "--", "9" * 5000]


def parsed_by_argparse(argv):
    """vars() of build_parser().parse_args(argv), or None when argparse exits (help or an error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def words():
    flag = st.sampled_from(FLAGS)
    return st.one_of(
        flag,
        flag.map(lambda f: f[:-1] if len(f) > 3 else f),  # an abbreviation, or a bad flag
        st.tuples(flag, st.sampled_from(VALUES)).map("=".join),
        st.sampled_from(VALUES),
        st.sampled_from(["-h", "--help", "--bogus", "gr"]),
        st.text(max_size=4),
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_read_line_agrees_with_argparse(data):
    """Whenever the line is read without argparse, argparse reads the same values; never a line it rejects."""
    command = data.draw(st.one_of(st.sampled_from(list(_COMMANDS)), st.sampled_from(["", "bogus", "-h", "--field"])))
    own = dict((*_COMMANDS[command][1], *_COMMON)) if command in _COMMANDS else dict.fromkeys(FLAGS, {})
    argv = [command]
    for flag in data.draw(st.lists(st.sampled_from(sorted(own)), max_size=5, unique=data.draw(st.booleans()))):
        argv.append(flag)
        if own[flag].get("action") != "store_true" or data.draw(st.booleans()):
            plain = ["0", "12", "007"] if own[flag].get("type") is int else ["2,2", "GF:101", "a.json", "x:3"]
            argv.append(data.draw(st.one_of(st.sampled_from(plain), st.sampled_from(VALUES))))
    for word in data.draw(st.lists(words(), max_size=2)):
        argv.insert(data.draw(st.integers(0, len(argv))), word)
    fast = _read_line(argv)
    if fast is not None:
        assert vars(fast) == parsed_by_argparse(argv), argv


README_LINES = ["sym-poly --md 2,2", "span-dim --n 2 --m 2 --include-zero",
                "nil-index --builtin strictly-upper-triangular:3 --field GF:5 --nmax 9",
                "alg-degree --builtin upper-triangular:3 --unital --out r.json", "alg-bound --builtin upper-triangular:3",
                "check-filtration --input f.json", "gr --builtin upper-triangular:5",
                "verify-my1 --builtin upper-triangular:4 --p 1 --q 3 --seed 7",
                "rees-integrality --builtin truncated-polynomial:4 --nmax 4 --coeffs [[0]]",
                "iso-check --builtin exterior-algebra:3 --maxdeg 4"]


@pytest.mark.parametrize("line", README_LINES)
def test_well_formed_lines_are_read_without_argparse(line):
    fast = _read_line(line.split())
    assert fast is not None
    assert vars(fast) == parsed_by_argparse(line.split())


@pytest.mark.parametrize("line", ["", "-h", "gr -h", "gr --builtin", "gr --build x:3", "gr --builtin=x:3",
                                  "gr --builtin a:1 --builtin b:2", "alg-bound --seed -1", "alg-bound --seed +3",
                                  "alg-bound --seed \u0663", "alg-bound --seed 1_0", "sym-poly", "gr --nmax 3",
                                  "span-dim --include-zero 1", "gr x", "bogus"])
def test_other_lines_are_left_to_argparse(line):
    assert _read_line(line.split()) is None


def json_values():
    text = st.one_of(st.text(max_size=8), st.sampled_from(["", "plain", '"', "\\", "\x7f", "\x00", "\n", "\u00e9",
                                                           "\u2286", "\U0001f600", "a/b"]))
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), text,
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([-0.0, 1e-7, 1e16, 0.1, math.nan, math.inf, -math.inf, 1.5e300]))
    keys = st.one_of(text, st.integers(), st.none(), st.booleans(), st.floats(allow_nan=False))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple), st.lists(st.integers(), max_size=4),
        st.dictionaries(keys, inner, max_size=4), st.dictionaries(text, inner, max_size=4),
    ), max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(json_values())
def test_report_writer_is_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_report_writer_writes_every_pinned_report_itself():
    """Each pinned report is written byte for byte as json.dumps would, without falling back to it."""
    pins = json.loads((Path(__file__).parent / "fixtures" / "report_pins.json").read_text())
    for pin in pins:
        report = {**pin["report"], "timing_ms": 12.345}
        assert _encode(report, "\n") == json.dumps(report, indent=2), pin["argv"]
