"""Shared fixtures and independent reference oracles.

The oracles here are deliberately naive re-derivations from definitions
(quadratic/cubic scans, explicit enumeration). Solver tests compare against
these, never against the implementation under test.
"""

from __future__ import annotations

import functools
import random

import pytest

from polytri import (
    Polygon,
    TriangleWeightFn,
    cone_value_base,
    enumerate_cones,
    expand_cone,
    expand_root,
    find_bridges_linear,
    is_base_cone,
    norm_edge,
    solve_dp_cubic,
)
from polytri.bridges import Cone, cone_nodes


@pytest.fixture(scope="session")
def weight_fns() -> dict[str, TriangleWeightFn]:
    return {
        "mult": TriangleWeightFn.multiplicative(),
        "add": TriangleWeightFn.additive(),
        "custom": TriangleWeightFn.product_plus_sum(),
    }


@functools.cache  # one twin per f, so its spot check runs once
def fn_only(f: TriangleWeightFn) -> TriangleWeightFn:
    """f without its vectorized form, so the numpy engines run fn in object dtype."""
    return TriangleWeightFn(f.kind, f.fn)


def chords_cross(e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """Reference crossing predicate: chords (a,b), (c,d) with a<b, c<d cross
    iff exactly one endpoint of one lies strictly inside the other's span."""
    (a, b), (c, d) = sorted(e1), sorted(e2)
    return (a < c < b < d) or (c < a < d < b)


def any_crossing(edges) -> bool:
    """O(E^2) pairwise scan; the reference for the production sweep."""
    es = sorted(edges)
    for i, e1 in enumerate(es):
        for e2 in es[i + 1 :]:
            if chords_cross(e1, e2):
                return True
    return False


def bridges_by_definition(poly: Polygon) -> dict[tuple[int, int], tuple[int, int]]:
    """O(n^3) bridge table straight from the definition.

    A bridge (u, v) has a nonempty clockwise strictly-between arc whose
    nodes are all heavier than both endpoints under the (weight, index)
    order; its S entry is that arc's lightest node.
    """
    n, w = poly.n, poly.weights
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for u in range(n):
        for span in range(2, n):
            v = (u + span) % n
            arc = [(u + i) % n for i in range(1, span)]
            lo = min(arc, key=lambda t: (w[t], t))
            if (w[lo], lo) > max((w[u], u), (w[v], v)):
                out[(u, v)] = (lo, w[lo])
    return out


def cone_value_oracle(poly: Polygon, cone: Cone, f: TriangleWeightFn) -> int:
    """Value of a cone as the optimum of its node polygon, solved by the
    cubic DP. cone_nodes lists the cone's boundary in cyclic order (apex
    first when present), so the sub-polygon inherits the arc weights
    directly."""
    nodes = cone_nodes(poly, cone)
    if len(nodes) < 3:
        return 0
    sub = Polygon(tuple(poly.weights[i] for i in nodes))
    return solve_dp_cubic(sub, fn_only(f))[0]


def witness_by_reexpansion(poly: Polygon, f: TriangleWeightFn) -> tuple[int, frozenset]:
    """(optimum, edges) from the public rules alone, re-expanding winning cones.

    Cone values come bottom-up from expand_cone (shorter arcs first, the
    apexless cone of a bridge before its apexed ones). The root is the
    apexless cone of the bridge between the two lightest nodes when they
    are adjacent, else the best expand_root branch. At each cone the first
    branch reproducing the value is taken, so branch 1 wins ties; this is
    the reference for the solvers' packed-key walk.
    """
    n, w = poly.n, poly.weights
    table = find_bridges_linear(poly)
    values: dict[Cone, int] = {}

    def value_of(c: Cone) -> int:
        return cone_value_base(poly, c, f) if is_base_cone(poly, c) else values[c]

    def branch_value(br) -> int:
        return sum(f.fn(w[a], w[b], w[c]) for a, b, c in br.triangles) + sum(
            value_of(ch) for ch in br.children
        )

    by_arc = sorted(
        enumerate_cones(poly, table), key=lambda c: (poly.arc_len(c.u, c.v), c.apex is not None)
    )
    for cone in by_arc:
        if not is_base_cone(poly, cone):
            values[cone] = min(branch_value(br) for br in expand_cone(cone, table))

    v1, v2 = poly.rank[0], poly.rank[1]
    edges: set = set()
    stack: list[Cone] = []
    if poly.adjacent(v1, v2):
        root = Cone(v2, v1) if (v2 - v1) % n == 1 else Cone(v1, v2)
        opt = value_of(root)
        stack.append(root)
    else:
        branches = expand_root(poly)
        opt = min(branch_value(br) for br in branches)
        br = next(br for br in branches if branch_value(br) == opt)
        edges.update(br.edges)
        stack.extend(br.children)
    while stack:
        cone = stack.pop()
        if is_base_cone(poly, cone):
            continue
        br = next(br for br in expand_cone(cone, table) if branch_value(br) == values[cone])
        edges.update(br.edges)
        stack.extend(br.children)
    assert len(edges) == n - 3
    return opt, frozenset(edges)


def chain_cost_bruteforce(dims: tuple[int, ...]) -> int:
    """Minimum scalar multiplications over all parenthesizations, by plain
    unmemoized recursion on every split point."""

    def best(i: int, j: int) -> int:
        if j - i == 1:
            return 0
        return min(
            best(i, m) + best(m, j) + dims[i] * dims[m] * dims[j] for m in range(i + 1, j)
        )

    return best(0, len(dims) - 1)


def connected_in(poly: Polygon, edges, a: int, b: int) -> bool:
    """True when a and b are joined by a polygon side or an internal edge."""
    if (b - a) % poly.n in (1, poly.n - 1):
        return True
    return norm_edge(a, b) in edges


def triangles_by_definition(poly: Polygon, edges) -> set[tuple[int, int, int]]:
    """Every i < m < j whose three pairs are all polygon sides or internal
    edges, by a cubic scan over node triples."""
    n = poly.n
    es = {norm_edge(a, b) for a, b in edges}
    return {
        (i, m, j)
        for i in range(n)
        for m in range(i + 1, n)
        for j in range(m + 1, n)
        if all(connected_in(poly, es, a, b) for a, b in ((i, m), (m, j), (i, j)))
    }


def random_polygon(rng: random.Random, n_lo: int = 3, n_hi: int = 12, w_hi: int = 50) -> Polygon:
    n = rng.randint(n_lo, n_hi)
    return Polygon(tuple(rng.randint(1, w_hi) for _ in range(n)))
