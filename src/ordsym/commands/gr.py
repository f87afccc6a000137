"""gr: build the associated graded algebra of a filtration."""

from __future__ import annotations

from . import load


def run(args):
    from ..graded import associated_graded

    _, filtration = load(args, need_filtration=True)
    # associated_graded validates the graded algebra as it builds it
    graded = associated_graded(filtration)
    results = {
        "component_dims": graded.component_dims,
        "total_dim": graded.algebra.dim,
        "graded_valid": True,
        "slot_degrees": graded.slot_degrees(),
    }
    return "pass", {}, results
