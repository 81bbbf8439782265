"""The op-output checker shared by every workload.

An op's output is a list of solutions, each (label, returned weight,
edges). The op fails when the solvers disagree on the optimum, when an
edge set is not a triangulation of the polygon, or when a returned weight
differs from its own edges re-evaluated by an independent route.
"""

from __future__ import annotations

from typing import Callable, Iterable

from polytri.core import Edge, Polygon, validate_triangulation

Solution = tuple[str, int, Iterable[Edge]]


def check_solutions(
    poly: Polygon, solutions: list[Solution], reweigh: Callable[[Iterable[Edge]], int]
) -> list[str]:
    """Failure reasons for one op's solutions; empty when all is well."""
    reasons = []
    weights = {label: weight for label, weight, _ in solutions}
    if len(set(weights.values())) > 1:
        reasons.append(f"solver disagreement: {weights}")
    for label, weight, edges in solutions:
        try:
            res = validate_triangulation(poly, edges)
        except ValueError as exc:
            reasons.append(f"{label}: invalid edge set ({exc})")
            continue
        if not res.ok:
            reasons.append(f"{label}: invalid edge set ({res.kind}: {res.detail})")
            continue
        again = reweigh(edges)
        if again != weight:
            reasons.append(f"{label}: returned weight {weight} != re-evaluated {again}")
    return reasons
