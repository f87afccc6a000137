"""Run one `ordsym` CLI request with a timing span around every layer call.

    python perfbench/traced_cli.py SPANS_JSON <ordsym arguments>

Prints the same report as `python -m ordsym <ordsym arguments>` and exits
with the same code.  Each public function of a layer is wrapped once, and
the wrapper is rebound under every `ordsym` module name bound to the
original, because `cli`, `graded` and `rees` import functions by name.
Spans stay in memory; at exit their totals go to SPANS_JSON:
per layer the calls, total and self seconds (self = span minus the time
its child spans cover), the calls per parent layer, and the counters
below.  `cli` is the root span around `main`, so its self time is request
time outside every layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

# layer -> (module, attribute path) of each public function it covers
LAYERS = {
    "algebra.multiply_coords": [("algebra", "StructureAlgebra.multiply_coords")],
    "algebra.validate": [("algebra", "StructureAlgebra.validate")],
    "algebra.span": [("algebra", "uniform_nil_index"), ("algebra", "sym_span_in"), ("algebra", "sym_span_chain")],
    "algebra.algebraic_degree": [("algebra", "algebraic_degree")],
    "graded.validate_filtration": [("graded", "validate_filtration")],
    "graded.associated_graded": [("graded", "associated_graded")],
    "graded.verify": [("graded", "verify_graded_nil_index")],
    "linalg.contains": [("linalg", "Subspace.contains")],
    "linalg.rref": [("linalg", "rref")],
    "rees.integral_witness": [("rees", "integral_witness")],
    "rees.power_in_x_ideal": [("rees", "integral_power_in_x_ideal")],
    "rees.iso_check": [("rees", "check_graded_rees_isomorphism")],
    "freealg.sym_poly": [("freealg", "sym_poly")],
    "freealg.span": [("freealg", "sym_span"), ("freealg", "sym_span_upto")],
    "catalog.builtin": [("catalog", "builtin_example")],
    "io.load": [("io", "load_path")],
}
ROOT_SPAN = "cli"


class Tracer:
    """Aggregated spans: a stack of open frames plus per-layer totals."""

    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT_SPAN, 0.0]]  # [layer, time covered by children]
        self.layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}} for name in [ROOT_SPAN, *LAYERS]}
        self.counters = {"rref_rows": 0, "rref_cells": 0, "rref_rank": 0}
        self.validated: dict[int, object] = {}  # id -> algebra, kept alive so ids stay distinct

    def wrap(self, layer: str, fn):
        stack, stats = self.stack, self.layers[layer]
        count = self._counter(layer)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[1] += elapsed
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - frame[1]
                stats["parents"][parent[0]] = stats["parents"].get(parent[0], 0) + 1
            if count is not None:
                count(args, result)
            return result

        return spanned

    def _counter(self, layer: str):
        if layer == "linalg.rref":
            def count(args, result):
                rows = args[1]
                self.counters["rref_rows"] += len(rows)
                self.counters["rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)
                self.counters["rref_rank"] += len(result[0])
            return count
        if layer == "algebra.validate":
            def count(args, result):
                self.validated.setdefault(id(args[0]), args[0])
            return count
        return None

    def run(self, call):
        start = perf_counter()
        try:
            return call()
        finally:
            root = self.layers[ROOT_SPAN]
            root["calls"] = 1
            root["total_s"] = perf_counter() - start
            root["self_s"] = root["total_s"] - self.stack[0][1]

    def summary(self) -> dict:
        return {
            "layers": self.layers,
            "counters": {**self.counters, "validated_objects": len(self.validated)},
        }


def install(tracer: Tracer) -> None:
    """Wrap every LAYERS function once and rebind it wherever it is bound."""
    import ordsym.cli  # noqa: F401  (loads every module a request can reach)

    modules = [m for name, m in sys.modules.items() if name == "ordsym" or name.startswith("ordsym.")]
    for layer, targets in LAYERS.items():
        for module_name, path in targets:
            owner = importlib.import_module(f"ordsym.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = tracer.wrap(layer, original)
            setattr(owner, attr, wrapped)
            if not outer:
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapped)


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    from ordsym.cli import main as cli_main

    try:
        return tracer.run(lambda: cli_main(cli_args))
    finally:
        spans_path.write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
