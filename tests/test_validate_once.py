"""Each CLI request validates every algebra and its filtration exactly once.

It also builds the filtration's adapted basis once: validation keeps the
basis it checked the laws on, and associated_graded reuses it.  A command
that reads no filtration validates its algebra once and no filtration,
from a builtin or a description file; a builtin's filtration is not even
built, and the builtin algebra such a command reads is the one
builtin_example pairs with its filtration.
"""

import json
from collections import Counter

import pytest

from ordsym import cli, graded
from ordsym.algebra import StructureAlgebra
from ordsym.catalog import builtin_algebra, builtin_example, builtin_names
from ordsym.fields import QQ, Field
from ordsym.io import dump_description

COMMANDS = ["gr", "verify-my1", "iso-check", "rees-integrality", "check-filtration"]
ALGEBRA_ONLY_COMMANDS = ["nil-index", "alg-degree", "alg-bound"]
SIZES = {"upper-triangular": [1, 3, 4], "strictly-upper-triangular": [2, 3, 5],
         "truncated-polynomial": [1, 4, 6], "exterior-algebra": [1, 2, 4]}


@pytest.fixture
def counted(monkeypatch):
    """Record every StructureAlgebra.validate receiver, validate_filtration and _adapted_basis call."""
    seen = {"algebras": [], "filtrations": 0, "adapted_bases": 0}
    validate = StructureAlgebra.validate
    validate_filtration = graded.validate_filtration
    adapted_basis = graded._adapted_basis

    def counting_validate(self):
        seen["algebras"].append(self)
        return validate(self)

    def counting_validate_filtration(*args, **kwargs):
        seen["filtrations"] += 1
        return validate_filtration(*args, **kwargs)

    def counting_adapted_basis(*args, **kwargs):
        seen["adapted_bases"] += 1
        return adapted_basis(*args, **kwargs)

    monkeypatch.setattr(StructureAlgebra, "validate", counting_validate)
    monkeypatch.setattr(graded, "_adapted_basis", counting_adapted_basis)
    for module in (graded, cli):
        if getattr(module, "validate_filtration", None) is validate_filtration:
            monkeypatch.setattr(module, "validate_filtration", counting_validate_filtration)
    return seen


@pytest.fixture(scope="module")
def ut3_file(tmp_path_factory):
    """Written before any counting starts: module fixtures set up first."""
    path = tmp_path_factory.mktemp("input") / "ut3.json"
    path.write_text(json.dumps(dump_description(*builtin_example("upper-triangular", 3))))
    return str(path)


@pytest.mark.parametrize("source", ["builtin", "input"])
@pytest.mark.parametrize("command", COMMANDS)
def test_validation_runs_once_per_object(command, source, counted, ut3_file, capsys):
    where = ["--builtin", "upper-triangular:3"] if source == "builtin" else ["--input", ut3_file]
    assert cli.main([command, *where]) == 0
    capsys.readouterr()
    per_object = Counter(id(a) for a in counted["algebras"])
    assert per_object and set(per_object.values()) == {1}, per_object
    assert counted["filtrations"] == 1
    assert counted["adapted_bases"] == 1


@pytest.mark.parametrize("source", ["builtin", "input"])
@pytest.mark.parametrize("command", ALGEBRA_ONLY_COMMANDS)
def test_commands_without_filtration_validate_only_the_algebra(command, source, counted, ut3_file, capsys):
    where = ["--builtin", "upper-triangular:3"] if source == "builtin" else ["--input", ut3_file]
    assert cli.main([command, *where]) == 0
    capsys.readouterr()
    assert len(counted["algebras"]) == 1
    assert counted["filtrations"] == 0
    assert counted["adapted_bases"] == 0


def test_sizes_cover_every_builtin():
    assert sorted(SIZES) == builtin_names()


@pytest.mark.parametrize("field", [QQ, Field("GF", 2), Field("GF", 3), Field("GF", 101)], ids=str)
@pytest.mark.parametrize("name", sorted(SIZES))
def test_builtin_algebra_is_the_algebra_of_builtin_example(name, field, counted):
    for size in SIZES[name]:
        alone = builtin_algebra(name, size, field)
        assert [id(a) for a in counted["algebras"]] == [id(alone)] and counted["filtrations"] == 0
        algebra, filtration = builtin_example(name, size, field)
        assert [id(a) for a in counted["algebras"]] == [id(alone), id(algebra)] and counted["filtrations"] == 1
        assert filtration.algebra is algebra
        assert (alone.field, alone.dim, alone.names) == (algebra.field, algebra.dim, algebra.names)
        assert alone._by_left == algebra._by_left
        assert alone._unit == algebra._unit
        del counted["algebras"][:]
        counted["filtrations"] = 0
