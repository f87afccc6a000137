"""Correctness gate: when does one request of a workload count as failed?

A request runs once over Q and once over GF(101).  Because 101 exceeds
dim + 1 for every benchmark input, nil indexes are two-sided there and
every field-independent result must agree between the two runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

FIELDS = ("Q", "GF:101")

# Result keys that do not depend on the field.
AGREE_KEYS = (
    "component_dims",
    "index",
    "N",
    "actual_index",
    "integral_degree",
    "d",
    "degree_bound",
    "checked_pairs",
    "power_in_x_ideal",
    "dim",
    "cumulative_dim",
)


@dataclass
class Check:
    """One CLI process: its exit code, parsed report and wall time.

    spin is the reference loop's time on the check's vCPU just before it.
    """

    code: int
    report: Optional[dict]
    seconds: float
    spin: float = 0.0

    @property
    def results(self) -> dict:
        return (self.report or {}).get("results") or {}


def request_failures(by_field: dict[str, Check], expect: dict) -> list[str]:
    """Reasons the request failed; empty when it passed.

    Fails on a nonzero exit, a status other than pass, a Q/GF(101)
    difference in any AGREE_KEYS entry, or a result that differs from
    its closed-form expectation.
    """
    reasons = []
    for field in FIELDS:
        check = by_field[field]
        if check.code != 0:
            reasons.append(f"{field}: exit code {check.code}")
        elif check.report is None:
            reasons.append(f"{field}: no JSON report")
        elif check.report.get("status") != "pass":
            reasons.append(f"{field}: status {check.report.get('status')!r}")
        for key, want in expect.items():
            if check.results.get(key) != want:
                reasons.append(f"{field}: {key} = {check.results.get(key)!r}, expected {want!r}")
    q, gf = by_field[FIELDS[0]].results, by_field[FIELDS[1]].results
    for key in AGREE_KEYS:
        if q.get(key) != gf.get(key):
            reasons.append(f"{key} differs: Q {q.get(key)!r}, GF:101 {gf.get(key)!r}")
    return reasons


def without_timing(report: Optional[dict]) -> Optional[dict]:
    if report is None:
        return None
    return {k: v for k, v in report.items() if k != "timing_ms"}


def trace_mismatch(plain: Check, traced: Check) -> Optional[str]:
    """A traced run must print the untraced report, apart from timing_ms."""
    if plain.code != traced.code:
        return f"traced exit code {traced.code} != untraced {plain.code}"
    if without_timing(plain.report) != without_timing(traced.report):
        return "traced report differs from the untraced one"
    return None
