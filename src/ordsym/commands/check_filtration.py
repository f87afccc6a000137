"""check-filtration: validate an algebra and its filtration, naming each broken law."""

from __future__ import annotations

from ..fields import Scalar, scalar_to_json
from . import CheckFailure, FiltrationFailure, load


def _ser_failure(fail: dict) -> dict:
    """A validation failure as JSON: Scalar tuples become vectors, index tuples lists."""
    return {
        k: [scalar_to_json(c) if isinstance(c, Scalar) else c for c in v] if isinstance(v, tuple) else v
        for k, v in fail.items()
    }


def run(args):
    from ..structure import ValidationReport

    try:
        _, filtration = load(args, need_filtration=True)
        freport = ValidationReport(True)
        stage_dims = filtration.dims()
    except FiltrationFailure as fail:
        stage_dims, freport = fail.stage_dims, fail.report
    results = {
        "algebra_valid": True,
        "algebra_detail": "ok",
        "filtration_valid": freport.ok,
        "filtration_detail": freport.describe(),
        "stage_dims": stage_dims,
    }
    if not freport.ok:
        raise CheckFailure(results, [_ser_failure(fail) for fail in freport.failures])
    return "pass", {}, results
