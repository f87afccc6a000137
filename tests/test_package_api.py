"""The public API of the lazily loaded package and the command line.

`ordsym` resolves each exported name from its submodule on first use, the
command line builds the --builtin help from the catalog only when help is
printed, and the result classes are plain classes.  None of it may change
what the API gives: the names and the objects they stand for, the help
text, and the value semantics of the result records.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

import ordsym
from ordsym.algebra import BoundResult, ChainResult, InvalidAlgebraError, ValidationReport
from ordsym.catalog import builtin_example
from ordsym.cli import build_parser, main
from ordsym.graded import HomogeneityReport, InvalidFiltrationError, NilVerification
from ordsym.io import dump_description
from ordsym.linalg import Subspace
from ordsym.rees import IntegralWitness, IsoReport, PowerMembership

# Every name the package root exported when it imported each submodule eagerly.
EXPORTED = {
    "algebra": [
        "AlgElement", "BoundResult", "ChainResult", "InvalidAlgebraError", "StructureAlgebra",
        "ValidationReport", "algebraic_degree", "brute_force_nil_index", "evaluate",
        "sym_span_chain", "sym_span_in", "sym_values", "uniform_algebraic_bound",
        "uniform_nil_index",
    ],
    "catalog": ["builtin_example", "builtin_names"],
    "fields": ["QQ", "Field", "Scalar", "distinct_scalars", "field_make"],
    "freealg": [
        "FreePoly", "linear_power", "monomial_count", "multidegrees", "power_span_grid",
        "sym_poly", "sym_span", "sym_span_upto", "word_basis",
    ],
    "graded": [
        "Filtration", "GradedAlgebra", "InvalidFiltrationError", "NilVerification",
        "associated_graded", "graded_nil_index_bound", "sym_degree_check",
        "validate_filtration", "verify_graded_nil_index",
    ],
    "linalg": ["Subspace", "multi_vandermonde_recover", "vandermonde_recover"],
    "rees": [
        "IntegralWitness", "IsoReport", "PowerMembership", "ReesElement", "ScalarPoly",
        "check_graded_rees_isomorphism", "integral_power_in_x_ideal", "integral_witness",
    ],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]
HELP_PINS = json.loads((Path(__file__).parent / "fixtures" / "cli_help.json").read_text())
ERROR_PINS = json.loads((Path(__file__).parent / "fixtures" / "cli_errors.json").read_text())


@pytest.mark.parametrize("module,name", NAMES)
def test_every_exported_name_is_the_submodules_object(module, name):
    namespace: dict = {}
    exec(f"from ordsym import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"ordsym.{module}"), name)
    assert getattr(ordsym, name) is namespace[name]


def test_all_and_dir_list_the_exported_names():
    names = {name for _, name in NAMES}
    assert len(names) == 50
    assert sorted(ordsym.__all__) == sorted(names)
    assert names <= set(dir(ordsym))
    assert ordsym.__version__ == "0.1.0"


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from ordsym import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"ordsym.{module}"), name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ordsym.no_such_name
    assert not hasattr(ordsym, "rref")
    with pytest.raises(ImportError):
        exec("from ordsym import no_such_name", {})


def test_submodules_resolve_as_attributes():
    assert ordsym.graded is importlib.import_module("ordsym.graded")
    assert ordsym.rees.integral_witness is ordsym.integral_witness


def test_a_moved_function_is_one_object_under_each_path():
    """read_vector lives in fields and algebraic_degree in structure; io and algebra name the same objects."""
    from ordsym import algebra, fields, io, structure

    assert io.read_vector is fields.read_vector
    assert ordsym.algebraic_degree is algebra.algebraic_degree is structure.algebraic_degree


COMMANDS = list(HELP_PINS["help"])


@pytest.mark.parametrize("command", COMMANDS)
def test_help_output_is_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == 0
    expected = HELP_PINS["help"][command]
    if not command and sys.version_info >= (3, 13):
        expected = HELP_PINS["root help from Python 3.13"]
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("line", list(ERROR_PINS["errors"]))
def test_usage_errors_are_unchanged(line, monkeypatch, capsys):
    """Exit code and stderr of a bad command line, pinned on the Python they were recorded with.

    On every Python, main fails exactly as build_parser().parse_args does,
    since it hands every line it does not read itself to that one parser.
    """
    monkeypatch.setenv("COLUMNS", "80")
    pin = ERROR_PINS["errors"][line]
    assert main(line.split()) == pin["exit"]
    err = capsys.readouterr().err
    if sys.version_info[:2] == tuple(ERROR_PINS["python"]):
        assert err == pin["stderr"]
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(line.split())
    assert exit_info.value.code == pin["exit"]
    assert capsys.readouterr().err == err


def test_builtin_help_lists_the_catalog_names(monkeypatch, capsys):
    monkeypatch.setattr("ordsym.catalog.builtin_names", lambda: ["only-this-one"])
    assert main(["gr", "--help"]) == 0
    assert "names: only-this-one" in capsys.readouterr().out


def test_records_compare_and_show_their_fields():
    witness = IntegralWitness(2, [])
    assert witness == IntegralWitness(degree=2, multipliers=[])
    assert witness != IntegralWitness(3, [])
    assert repr(witness) == "IntegralWitness(degree=2, multipliers=[])"
    membership = PowerMembership(True, 3, least_exponent=2)
    assert repr(membership) == "PowerMembership(ok=True, exponent=3, least_exponent=2, witness=None)"
    homogeneity = HomogeneityReport(ok=True, weight=0, in_stage=True, graded_match=None)
    assert homogeneity.skipped is False
    assert repr(homogeneity) == (
        "HomogeneityReport(ok=True, weight=0, in_stage=True, graded_match=None, skipped=False)"
    )
    # records of different classes never compare equal, and none is hashable
    assert ChainResult([1], None, None, False) != BoundResult([1], None, None, False)
    with pytest.raises(TypeError):
        hash(witness)
    witness.degree = 4
    assert witness == IntegralWitness(4, [])


def test_default_lists_are_fresh_per_record():
    first = NilVerification(True, 1, 2, 3, "given", 5, 4, 2, 0)
    second = NilVerification(ok=True, p=1, q=2, d=3, d_source="given", n_bound=5,
                             observed_index=4, tested_classes=2, tested_samples=0)
    assert first == second
    first.failures.append({"test": 0})
    assert second.failures == [] and first != second
    assert repr(second) == (
        "NilVerification(ok=True, p=1, q=2, d=3, d_source='given', n_bound=5, observed_index=4, "
        "tested_classes=2, tested_samples=0, vacuous=False, failures=[])"
    )
    reports = IsoReport(True, 2, 4), IsoReport(True, 2, 4)
    reports[0].ledger.append({})
    assert reports[1].ledger == [] and reports[0].failures is not reports[1].failures
    assert ValidationReport(True).failures is not ValidationReport(True).failures


def test_validation_report_basis_is_not_part_of_its_value():
    report = ValidationReport(True)
    assert report.basis is None
    report.basis = ([(0, (1,))], [1])
    assert report == ValidationReport(True)
    assert repr(report) == "ValidationReport(ok=True, failures=[])"
    with pytest.raises(TypeError):
        ValidationReport(True, [], None)


def test_chain_and_bound_results_compare_their_subspaces():
    from ordsym.fields import QQ

    chain = ChainResult([1, 0], Subspace.zero(QQ, 2), 2, False)
    assert chain == ChainResult(growth=[1, 0], cumulative=Subspace.zero(QQ, 2), stabilized_at=2,
                                includes_degree_zero=False)
    assert BoundResult(1, 1, chain, []) == BoundResult(d=1, bound=1, chain=chain, sampled_degrees=[])


def test_non_associative_description_fails_with_exit_1(tmp_path, capsys):
    doc = dump_description(*builtin_example("truncated-polynomial", 3))
    # t * t^2 = t breaks associativity: (t t) t^2 = 0, but t (t t^2) = t t = t^2
    doc["mul"].append([2, 3, [[2, 1]]])
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(doc))
    assert main(["gr", "--input", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert report["results"]["algebra_valid"] is False
    assert "associativity" in report["results"]["detail"]


@pytest.mark.parametrize("error", [InvalidAlgebraError, InvalidFiltrationError])
def test_a_broken_law_raised_by_a_command_is_a_failed_check(error, monkeypatch, capsys):
    """main alone classifies: a law failure raised inside any command exits 1, never as an input error."""
    def broken(filtration):
        raise error(ValidationReport(False, [{"law": "associativity", "where": (0, 0, 0)}]))

    for command, module in [("gr", "graded"), ("verify-my1", "graded"), ("iso-check", "rees")]:
        importlib.import_module(f"ordsym.{module}")
        monkeypatch.setattr(f"ordsym.{module}.associated_graded", broken)
        assert main([command, "--builtin", "upper-triangular:2"]) == 1, command
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail"
        assert report["results"] == {"detail": "associativity fails at (0, 0, 0)"}


def test_other_value_errors_are_input_errors(monkeypatch, capsys):
    def broken(filtration):
        raise ValueError("not a law")

    monkeypatch.setattr("ordsym.graded.associated_graded", broken)
    assert main(["gr", "--builtin", "upper-triangular:2"]) == 2
    assert capsys.readouterr().err == "input error: not a law\n"
