"""The traced CLI prints the untraced report and sees calls made by name."""

import json
import sys

import run
from gate import trace_mismatch
from run import HERE, child_env, per_layer, run_check


def test_traced_report_matches_and_spans_cover_imported_names(tmp_path):
    env = child_env()
    argv = ["gr", "--builtin", "upper-triangular:3", "--field", "GF:101"]
    plain = run_check([sys.executable, "-m", "ordsym", *argv], env)
    spans_path = tmp_path / "spans.json"
    traced = run_check([sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv], env)
    assert plain.code == 0
    assert trace_mismatch(plain, traced) is None
    layers = json.loads(spans_path.read_text())["layers"]
    # gr validates two algebras three times and the filtration three times;
    # the calls from cli go through names it imported from graded
    assert layers["algebra.validate"]["calls"] == 3
    assert layers["graded.validate_filtration"]["calls"] == 3
    assert layers["graded.validate_filtration"]["parents"]["cli"] == 2
    assert layers["graded.associated_graded"]["parents"] == {"cli": 1}
    assert layers["catalog.builtin"]["calls"] == 1
    for stats in layers.values():
        assert 0 <= stats["self_s"] <= stats["total_s"] + 1e-9
    assert layers["cli"]["total_s"] >= sum(s["self_s"] for s in layers.values()) - 1e-6


def test_traced_check_that_times_out_fails_its_request(tmp_path, monkeypatch):
    stub = tmp_path / "hang.py"
    stub.write_text("import time\ntime.sleep(30)\n")
    monkeypatch.setattr(run, "TRACED_CLI", stub)
    monkeypatch.setattr(run, "CHECK_TIMEOUT_S", 1)
    reqs = [{"argv": ["gr", "--builtin", "upper-triangular:3"], "expect": {}}]
    metrics, record, attempted = per_layer(reqs, tmp_path, child_env())
    assert attempted == 1
    assert len(record["failures"]) == 1
    assert "left no spans" in record["failures"][0]
    assert metrics["algebra.validate_calls"][0] == 0
    assert metrics["linalg.rref_rank_per_row"][0] == 0.0
