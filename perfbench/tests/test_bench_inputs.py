"""The seeded dense-basis descriptions are the builtins in another basis."""

import json

import pytest

from ordsym.algebra import uniform_nil_index
from ordsym.catalog import builtin_example
from ordsym.fields import field_make
from ordsym.graded import Filtration, associated_graded, validate_filtration
from ordsym.io import load_path
from workloads import builtin_component_dims, builtin_nil_index, nonzero_share, requests, write_dense_inputs


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_dense_inputs_reproduce_their_source(seed, tmp_path):
    paths = write_dense_inputs(seed, tmp_path)
    for (name, n), path in paths.items():
        source, source_filtration = builtin_example(name, n)
        source_gr = associated_graded(source_filtration)
        for field in (None, field_make("GF:101")):
            algebra, filtration = load_path(str(path), field_override=field)
            assert algebra.validate().ok
            assert validate_filtration(algebra, filtration.stages).ok
            gr = associated_graded(Filtration(algebra, filtration.stages))
            assert gr.component_dims == source_gr.component_dims == builtin_component_dims(name, n)
            index = uniform_nil_index(algebra.basis_elements())
            assert index == uniform_nil_index(source.basis_elements()) == builtin_nil_index(name, n)


def test_dense_inputs_are_integral_dense_and_seeded(tmp_path):
    first = {k: p.read_text() for k, p in write_dense_inputs(3, tmp_path / "a").items()}
    again = {k: p.read_text() for k, p in write_dense_inputs(3, tmp_path / "b").items()}
    other = {k: p.read_text() for k, p in write_dense_inputs(4, tmp_path / "c").items()}
    assert first == again
    assert first != other
    for key, text in first.items():
        doc = json.loads(text)
        assert doc["dim"] <= 8
        constants = [c for _, _, prods in doc["mul"] for _, c in prods]
        constants += [c for stage in doc["filtration"] for v in stage for c in v]
        assert all(isinstance(c, int) for c in constants), key
        # builtins have one nonzero per basis product; these are far denser
        assert 0.3 < nonzero_share(doc) < 0.75, key


def test_seeded_requests_carry_the_workload_seed(tmp_path):
    for workload in ("span-certify", "exact-solve", "dense-basis"):
        for req in requests(workload, 41, tmp_path / workload):
            if "--seed" in req["argv"]:
                assert req["argv"][req["argv"].index("--seed") + 1] == "41"
