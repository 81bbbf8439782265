"""Bottom-up cone solver: evaluate every cone in increasing arc order.

Processing bridges by arc length makes every child cone available before
its parents, so one sweep fills a complete cone-value table in O(n^2)
total work (the cone census is at most quadratic). The same expansion
rules as the branching solver decide each value; this solver just never
skips a cone, which makes it the workhorse for mid-size instances and the
natural cross-check for the lazier search.

The sweep keeps, per bridge, its apexless value and a row of its apexed
values, computed in one numpy expression over apex weights sorted by rank
(prefix slices of that array are exactly the apex sets of child bridges).
The weight function picks the arithmetic (``core.vector_arithmetic``), not
the code path. With a ``vec`` (engine "vector") the sweep evaluates it in
int64 while the values computed so far prove the next bridge's sums fit,
and in object dtype (exact Python ints in the same expressions) from the
first bridge where they may not. Without one (engine "scalar") it runs
``fn`` element-wise in object dtype from the start, so it keeps whatever
exact values ``fn`` returns.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .bridges import BridgeTable, find_bridges_linear
from .bst_solver import SolveStats, _branches, reconstruct_triangulation
from .core import (
    Polygon,
    TriangleWeightFn,
    Triangulation,
    INT64_LIMIT,
    check_accumulator_bound,
    vector_arithmetic,
)

__all__ = ["solve_yao"]


def _sweep(poly: Polygon, table: BridgeTable, f: TriangleWeightFn) -> Callable[[int], int]:
    """Every cone's value, as get(key) for reconstruct_triangulation.

    Per S node x the sweep keeps its bridge's apexless value v0[x] and its
    row vz[x] of apexed values by apex rank; get decodes a packed key
    x*(n + 1) + k into v0[x] (k = 0) or the row entry of apex k - 1 (read
    with ``item``: exact in either dtype), a negative key into 0. v0[x]
    comes from x's branch record (_branches), its children swept before it.
    """
    n, w, n1, branch = poly.n, poly.weights, poly.n + 1, _branches(poly, table, f)
    left, right, lc, rc = table.left, table.right, table.lc, table.rc
    rank_of = poly.rank_of
    order = sorted((x for x in range(n) if left[x] >= 0), key=lambda x: (right[x] - left[x]) % n)
    fvec, dtype, tmax = vector_arithmetic(poly, f)
    WR = poly.arrays[0][poly.arrays[1]].astype(dtype, copy=False)  # weights in rank order
    v0: list[int] = [0] * n
    vz: list[np.ndarray | None] = [None] * n
    # A bridge's row is at most v0 + tmax, so top, the running maximum of that,
    # bounds every row and 2 * top every sum a row takes part in. From the
    # first bridge where that reaches 2**63, apex weights, and so all later
    # rows, are object arrays of exact ints; earlier int64 rows mix in exactly.
    # tmax None means nothing is left to watch: the rows are int64 and cannot
    # overflow, or are object arrays from the start (always without vec).
    top = 0

    def get(key: int) -> int:
        if key < 0:
            return 0
        x, k = divmod(key, n1)
        return v0[x] if k == 0 else vz[x].item(rank_of[k - 1])

    for x in order:
        u, v = left[x], right[x]
        rec = branch(x, 0)
        if len(rec) == 1:
            v0[x] = rec[0]
        else:
            _, m, c2, ch2a, ch2b, c1, ch1 = rec
            val = c2 + get(ch2a) + get(ch2b)
            v0[x] = min(val, c1 + v0[m]) if ch1 >= 0 else val
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

    return get


def solve_yao(poly: Polygon, f: TriangleWeightFn) -> tuple[int, Triangulation, SolveStats]:
    """Optimal triangulation by the quadratic bottom-up cone sweep.

    Returns (optimal weight, a witness triangulation, stats); visited_cones
    equals total_cones since the sweep evaluates the whole census. The sweep
    runs ``vec`` in int64 (object dtype past the int64 range) when the weight
    function has one, stats.engine "vector", and ``fn`` in object dtype when
    it has none, "scalar"; both return the same exact values and edges.
    """
    t0 = time.perf_counter_ns()
    f.ensure_monotonic()
    check_accumulator_bound(poly, f)
    table = find_bridges_linear(poly)
    total = table.total_cones()
    engine = "vector" if f.vec is not None else "scalar"
    opt, edges = reconstruct_triangulation(poly, table, f, _sweep(poly, table, f))
    stats = SolveStats(total, 0, total, time.perf_counter_ns() - t0, engine, engine)
    return opt, Triangulation(edges, opt), stats
