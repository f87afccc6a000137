"""The gate behind fail_share counts every kind of failed request."""

import sys

from gate import AGREE_KEYS, Check, request_failures, trace_mismatch
from run import child_env, percentile, run_check, tail_percentile


def report(status="pass", **results):
    return {"command": "x", "status": status, "params": {}, "results": results, "witnesses": None, "timing_ms": 1.0}


def checks(q, gf):
    return {"Q": q, "GF:101": gf}


def test_agreeing_passes_are_not_failures():
    ok = Check(0, report(index=4, dim=6), 0.1)
    assert request_failures(checks(ok, ok), {"index": 4}) == []


def test_nonzero_exit_is_a_failure():
    ok = Check(0, report(index=4), 0.1)
    crashed = Check(1, None, 0.1)
    assert request_failures(checks(ok, crashed), {})
    assert request_failures(checks(Check(2, None, 0.1), ok), {})


def test_status_other_than_pass_is_a_failure():
    ok = Check(0, report(integral_degree=4), 0.1)
    indeterminate = Check(0, report("indeterminate", integral_degree=None), 0.1)
    assert request_failures(checks(indeterminate, ok), {})


def test_every_field_independent_key_must_agree():
    for key in AGREE_KEYS:
        q = Check(0, report(**{key: 3}), 0.1)
        gf = Check(0, report(**{key: 4}), 0.1)
        reasons = request_failures(checks(q, gf), {})
        assert any(key in r for r in reasons), key


def test_closed_form_expectation_is_checked():
    got = Check(0, report(component_dims=[1, 2, 1]), 0.1)
    assert request_failures(checks(got, got), {"component_dims": [1, 3, 3, 1]})


def test_indeterminate_cli_run_counts_as_failed():
    # --nmax below the integral degree: the CLI reports indeterminate, exit 1
    env = child_env()
    argv = ["rees-integrality", "--builtin", "truncated-polynomial:3", "--nmax", "1"]
    by_field = {
        "Q": run_check([sys.executable, "-m", "ordsym", *argv], env),
        "GF:101": run_check([sys.executable, "-m", "ordsym", *argv, "--field", "GF:101"], env),
    }
    assert by_field["Q"].code == 1
    assert by_field["Q"].report["status"] == "indeterminate"
    assert request_failures(by_field, {})


def test_trace_mismatch_ignores_only_timing():
    plain = Check(0, report(index=4), 0.1)
    same = Check(0, {**report(index=4), "timing_ms": 99.0}, 0.2)
    assert trace_mismatch(plain, same) is None
    assert trace_mismatch(plain, Check(0, report(index=5), 0.2))
    assert trace_mismatch(plain, Check(1, report(index=4), 0.2))


def test_tail_keeps_ten_samples_above_in_the_shortest_run():
    pct = tail_percentile(36)
    assert pct == 72
    samples = [float(i) for i in range(1, 37)]
    assert percentile(samples, pct) == 26.0  # an observed sample, ten above it
    longer = [float(i) for i in range(1, 49)]
    assert sum(s > percentile(longer, pct) for s in longer) >= 10


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 1) == 1.0
    assert percentile(samples, 100) == 5.0
