"""Linear-time additive-weight heuristic.

One clockwise pass from the lightest node v1 keeps a stack of the hull of
the region triangulated so far. Each incoming node v closes off ear
triangles while joining v to the node below the stack top is cheaper
(under additive weights) than the eventual fan join to v1 would be; the
leftover stack is fanned from v1 at the end. Exactly n - 3 joins happen,
each in amortized O(1).

The result is within a 1/3 relative error of the additive optimum, the
bound being approached by polygons with two heavy nodes separated by two
light arcs. The heuristic is exact on quadrilaterals. It is additive-only
by construction: the stack test compares endpoint sums, which only prices
triangles correctly when f is the plain sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Edge, Polygon, Triangulation, TriangleWeightFn, norm_edge

__all__ = ["HeuristicReport", "error_ratio", "heuristic_triangulate"]


@dataclass(frozen=True)
class HeuristicReport:
    """Heuristic outcome, optionally scored against the exact optimum."""

    heuristic_weight: int
    optimal_weight: int | None = None
    ratio: Fraction | None = None


def heuristic_triangulate(poly: Polygon) -> tuple[Triangulation, HeuristicReport]:
    """Additive-weight triangulation in O(n); returns it with its weight."""
    n, w = poly.n, poly.weights
    if n == 3:
        total = w[0] + w[1] + w[2]
        return Triangulation(frozenset(), total), HeuristicReport(total)
    v1 = poly.arrays.item(1, 0)  # rank[0]
    wv1 = w[v1]
    order = [(v1 + i) % n for i in range(n)]
    stack = order[:3]
    edges: list[Edge] = []
    total = 0
    for v in order[3:]:
        wv = w[v]
        while len(stack) >= 3 and w[stack[-2]] + wv < wv1 + w[stack[-1]]:
            top = stack.pop()
            total += w[stack[-1]] + w[top] + wv
            edges.append(norm_edge(v, stack[-1]))
        stack.append(v)
    while len(stack) > 3:
        top = stack.pop()
        total += wv1 + w[stack[-1]] + w[top]
        edges.append(norm_edge(v1, stack[-1]))
    total += wv1 + w[stack[1]] + w[stack[2]]
    return Triangulation(frozenset(edges), total), HeuristicReport(total)


def error_ratio(poly: Polygon) -> HeuristicReport:
    """Score the heuristic against the exact additive optimum.

    The ratio (heuristic - optimal) / optimal is exact (a Fraction); it is
    always below 1/3.
    """
    from .bst_solver import solve_bst

    tri, _ = heuristic_triangulate(poly)
    opt, _, _ = solve_bst(poly, TriangleWeightFn.additive())
    return HeuristicReport(tri.weight, opt, Fraction(tri.weight - opt, opt))
