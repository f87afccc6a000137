"""rees-integrality: find an integrality witness of a Rees element and test its power."""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import CheckFailure, load, vectors

if TYPE_CHECKING:
    from ..graded import Filtration
    from ..rees import ReesElement


def _default_rees_element(filtration: Filtration, seed: int) -> ReesElement:
    """Seeded element of the Rees algebra with zero constant coefficient."""
    import random

    from ..linalg import combine
    from ..rees import ReesElement
    from ..structure import AlgElement

    rng = random.Random(seed)
    base = filtration.algebra
    coeffs = [base.zero_element()]
    for n in range(1, filtration.top + 1):
        terms = ((rng.randint(-2, 2), row) for row in filtration.stage(n).raw_rows())
        coeffs.append(AlgElement.from_raw(base, combine(base.field, terms)))
    return ReesElement(filtration, coeffs)


def run(args):
    from ..rees import ReesElement, integral_power_in_x_ideal, integral_witness

    algebra, filtration = load(args, need_filtration=True)
    if args.coeffs is not None:
        coeffs = vectors("--coeffs", args.coeffs, algebra, "a JSON list of coefficient vectors")
        element = ReesElement.make(filtration, coeffs)
    else:
        element = _default_rees_element(filtration, args.seed)
    witness = integral_witness(element, n_max=args.nmax, deg_max=args.degmax)
    results = {
        "element_degree": element.degree,
        "n_max": args.nmax,
        "integral_degree": witness.degree if witness else None,
        "multipliers": [repr(q) for q in witness.multipliers] if witness else None,
    }
    if witness is None:
        return "indeterminate", {"nmax": args.nmax, "seed": args.seed}, results
    if element.coeff(0).is_zero():
        membership = integral_power_in_x_ideal(element, witness.degree)
        results["power_exponent"] = membership.exponent
        results["power_in_x_ideal"] = membership.ok
        results["least_power_in_x_ideal"] = membership.least_exponent
        if not membership.ok:
            raise CheckFailure(results, [membership.witness])
    return "pass", {"nmax": args.nmax, "seed": args.seed}, results
