"""Bottom-up cone solver: evaluate every cone in increasing arc order.

Processing bridges by arc length makes every child cone available before
its parents, so one sweep fills a complete cone-value table in O(n^2)
total work (the cone census is at most quadratic). The same expansion
rules as the branching solver decide each value; this solver just never
skips a cone, which makes it the workhorse for mid-size instances and the
natural cross-check for the lazier search.

Two engines: "scalar" runs the public expansion per cone; "vector"
evaluates all apexed cones of one bridge in a single numpy expression over
apex weights sorted by rank (prefix slices of that array are exactly the
apex sets of child bridges). The vector engine needs a vectorized weight
function and is exact on every input: it computes in int64 while the values
computed so far prove the next bridge's sums fit, and in object dtype
(exact Python ints in the same expressions) from the first bridge where
they may not. "auto" picks it whenever the weight function has a vectorized
form; "scalar" is the reference engine and the path without one.
"""

from __future__ import annotations

import time

import numpy as np

from .bridges import BridgeTable, Cone, find_bridges_linear
from .bst_solver import (
    SolveStats,
    _cone_shape,
    cone_value_base,
    expand_cone,
    is_base_cone,
    reconstruct_triangulation,
)
from .core import (
    Polygon,
    TriangleWeightFn,
    Triangulation,
    INT64_LIMIT,
    check_accumulator_bound,
    int64_watch_bound,
)

__all__ = ["solve_yao"]


def _sweep_scalar(
    poly: Polygon, table: BridgeTable, order: list[int], f: TriangleWeightFn
) -> dict[int, int]:
    """Every non-base cone's value by packed key x * (n + 1) + k, x its S node and k = apex + 1 or 0."""
    w = poly.weights
    fw = f.fn
    rank, rank_of = poly.rank, poly.rank_of
    lc, rc = table.lc, table.rc
    n1 = poly.n + 1
    value: dict[int, int] = {}

    def val_of(c: Cone) -> int:
        if is_base_cone(poly, c):
            return cone_value_base(poly, c, f)
        u, v = c.u, c.v
        x = lc[v] if rank_of[u] < rank_of[v] else rc[u]  # S(u, v), as BridgeTable.s_node
        return value[x * n1 + (0 if c.apex is None else c.apex + 1)]

    for x in order:
        u, v = table.left[x], table.right[x]
        m = min(rank_of[u], rank_of[v])
        for apex in (None, *(rank[r] for r in range(m))):
            cone = Cone(u, v, apex)
            if is_base_cone(poly, cone):
                continue  # valued where it is read
            value[x * n1 + (0 if apex is None else apex + 1)] = min(
                sum(fw(w[a], w[b], w[c]) for a, b, c in br.triangles)
                + sum(val_of(ch) for ch in br.children)
                for br in expand_cone(cone, table)
            )
    return value


def _sweep_vector(
    poly: Polygon, table: BridgeTable, order: list[int], f: TriangleWeightFn
) -> tuple[list[int], list[np.ndarray]]:
    n, w = poly.n, poly.weights
    fw = f.fn
    fvec = f.vec
    left, right, lc, rc = table.left, table.right, table.lc, table.rc
    rank, rank_of = poly.rank, poly.rank_of
    W = np.array(w, dtype=np.int64)
    WR = W[np.array(rank, dtype=np.int64)]  # weights in rank order
    # per S node: the bridge's apexless value and its row of apexed values by apex rank
    v0: list[int] = [0] * n
    vz: list[np.ndarray | None] = [None] * n
    # A bridge's row is at most v0 + tmax, so top, the running maximum of that,
    # bounds every row and 2 * top every sum a row takes part in. From the
    # first bridge where that reaches 2**63, apex weights, and so all later
    # rows, are object arrays of exact ints; earlier int64 rows mix in exactly.
    # tmax None means nothing is left to watch.
    tmax = int64_watch_bound(poly, f)
    top = 0

    def child(x: int, p: int, a: int, b: int) -> int:
        """Value of cone (a, b), S node x (-1: one side), apex p unless p is a or b.

        An apexless child spans at least two sides and was swept before its
        parent, so v0 holds it.
        """
        if p == a or p == b:
            return v0[x]
        if x < 0:
            return fw(w[a], w[b], w[p])
        return int(vz[x][rank_of[p]])

    for x in order:
        u, v = left[x], right[x]
        if (v - u) % n == 2:
            v0[x] = fw(w[u], w[x], w[v])
        else:
            p, m, one = _cone_shape(table, x, 0)
            a, b = left[m], right[m]
            val = child(lc[m], p, a, m) + child(rc[m], p, m, b)
            if one:
                val = min(val, fw(w[a], w[b], w[p]) + v0[m])
            v0[x] = val
        k = min(rank_of[u], rank_of[v])
        if k:
            if tmax is not None:
                top = max(top, v0[x] + tmax)
                if 2 * top >= INT64_LIMIT:
                    WR, tmax = WR.astype(object), None
            wz = WR[:k]
            with_bridge = fvec(w[u], w[v], wz) + v0[x]
            c = lc[x]
            row_l = fvec(w[u], w[x], wz) if c < 0 else vz[c][:k]
            c = rc[x]
            row_r = fvec(w[x], w[v], wz) if c < 0 else vz[c][:k]
            vz[x] = np.minimum(with_bridge, row_l + row_r)
    return v0, vz


def solve_yao(
    poly: Polygon, f: TriangleWeightFn, engine: str = "auto"
) -> tuple[int, Triangulation, SolveStats]:
    """Optimal triangulation by the quadratic bottom-up cone sweep.

    Returns (optimal weight, a witness triangulation, stats); visited_cones
    equals total_cones since the sweep evaluates the whole census. engine
    is "scalar", "vector", or "auto"; the vector engine refuses only a
    weight function without ``vec``, and "auto" takes it whenever ``vec``
    exists. Past the int64 range it continues in object dtype, so both
    engines return the same exact values and edges.
    """
    t0 = time.perf_counter_ns()
    f.ensure_monotonic()
    check_accumulator_bound(poly, f)
    n = poly.n
    table = find_bridges_linear(poly)
    total = table.total_cones()
    if engine == "auto":
        engine = "vector" if f.vec is not None else "scalar"
    if engine not in ("scalar", "vector"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "vector" and f.vec is None:
        raise OverflowError("vector engine refused: weight function has no vectorized form")

    left, right = table.left, table.right
    order = sorted((x for x in range(n) if left[x] >= 0), key=lambda x: (right[x] - left[x]) % n)
    if engine == "scalar":
        get = _sweep_scalar(poly, table, order, f).__getitem__
    else:
        v0, vz = _sweep_vector(poly, table, order, f)
        rank_of = poly.rank_of
        n1 = n + 1

        def get(key: int) -> int:
            x, k = divmod(key, n1)
            return v0[x] if k == 0 else int(vz[x][rank_of[k - 1]])

    opt, edges = reconstruct_triangulation(poly, table, f, get)
    stats = SolveStats(total, 0, total, time.perf_counter_ns() - t0, engine, engine)
    return opt, Triangulation(edges, opt), stats
