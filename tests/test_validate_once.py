"""Each CLI request validates every algebra and its filtration exactly once.

It also builds the filtration's adapted basis once: validation keeps the
basis it checked the laws on, and associated_graded reuses it.
"""

import json
from collections import Counter

import pytest

from ordsym import cli, graded
from ordsym.algebra import StructureAlgebra
from ordsym.catalog import builtin_example
from ordsym.io import dump_description

COMMANDS = ["gr", "verify-my1", "iso-check", "rees-integrality", "check-filtration"]


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
