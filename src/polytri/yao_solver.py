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
apex sets of child bridges). The vector engine requires a vectorized,
int64-safe weight function; "auto" picks it when it can.
"""

from __future__ import annotations

import time

import numpy as np

from .bridges import Bridge, BridgeTable, Cone, find_bridges_linear
from .bst_solver import (
    SolveStats,
    cone_value_base,
    expand_cone,
    is_base_cone,
    reconstruct_triangulation,
)
from .core import (
    Polygon,
    TriangleWeightFn,
    Triangulation,
    check_accumulator_bound,
    int64_safe,
)

__all__ = ["solve_yao"]


def _sweep_scalar(
    poly: Polygon, table: BridgeTable, bridges: list[Bridge], f: TriangleWeightFn
) -> dict[tuple[int, int, int | None], int]:
    w = poly.weights
    fw = f.fn
    rank, rank_of = poly.rank, poly.rank_of
    value: dict[tuple[int, int, int | None], int] = {}

    def val_of(c: Cone) -> int:
        if is_base_cone(poly, c):
            return cone_value_base(poly, c, f)
        return value[(c.u, c.v, c.apex)]

    for u, v in bridges:
        m = min(rank_of[u], rank_of[v])
        for apex in (None, *(rank[r] for r in range(m))):
            cone = Cone(u, v, apex)
            if is_base_cone(poly, cone):
                value[(u, v, apex)] = cone_value_base(poly, cone, f)
                continue
            best: int | None = None
            for br in expand_cone(cone, table):
                bv = 0
                for a, b, c in br.triangles:
                    bv += fw(w[a], w[b], w[c])
                for ch in br.children:
                    bv += val_of(ch)
                if best is None or bv < best:
                    best = bv
            assert best is not None
            value[(u, v, apex)] = best
    return value


def _sweep_vector(
    poly: Polygon, table: BridgeTable, bridges: list[Bridge], f: TriangleWeightFn
) -> tuple[dict[Bridge, int], dict[Bridge, np.ndarray]]:
    n, w = poly.n, poly.weights
    fw = f.fn
    fvec = f.vec
    assert fvec is not None
    rank, rank_of = poly.rank, poly.rank_of
    W = np.array(w, dtype=np.int64)
    WR = W[np.array(rank, dtype=np.int64)]  # weights in rank order
    v0: dict[Bridge, int] = {}
    vz: dict[Bridge, np.ndarray] = {}

    def apexless(bu: int, bv: int) -> int:
        d = (bv - bu) % n
        if d == 1:
            return 0
        if d == 2:
            return fw(w[bu], w[(bu + 1) % n], w[bv])
        return v0[(bu, bv)]

    def apexed(bu: int, bv: int, z: int) -> int:
        if (bv - bu) % n == 1:
            return fw(w[bu], w[bv], w[z])
        return int(vz[(bu, bv)][rank_of[z]])

    for u, v in bridges:
        d = (v - u) % n
        if d == 2:
            v0[(u, v)] = fw(w[u], w[(u + 1) % n], w[v])
        else:
            t3 = table.s_node(u, v)
            if poly.lighter(u, v):
                x = (u + 1) % n
                if x != t3:
                    val = apexless(u, t3) + apexed(t3, v, u)
                else:
                    x2 = table.s_node(x, v)
                    val = min(
                        fw(w[u], w[x], w[v]) + apexless(x, v),
                        apexed(x, x2, u) + apexed(x2, v, u),
                    )
            else:
                x = (v - 1) % n
                if x != t3:
                    val = apexed(u, t3, v) + apexless(t3, v)
                else:
                    x2 = table.s_node(u, x)
                    val = min(
                        fw(w[u], w[x], w[v]) + apexless(u, x),
                        apexed(u, x2, v) + apexed(x2, x, v),
                    )
            v0[(u, v)] = val
        m = min(rank_of[u], rank_of[v])
        if m:
            wz = WR[:m]
            x2 = table.s_node(u, v)
            with_bridge = fvec(w[u], w[v], wz) + v0[(u, v)]
            if (x2 - u) % n == 1:
                left = fvec(w[u], w[x2], wz)
            else:
                left = vz[(u, x2)][:m]
            if (v - x2) % n == 1:
                right = fvec(w[x2], w[v], wz)
            else:
                right = vz[(x2, v)][:m]
            vz[(u, v)] = np.minimum(with_bridge, left + right)
    return v0, vz


def solve_yao(
    poly: Polygon, f: TriangleWeightFn, engine: str = "auto"
) -> tuple[int, Triangulation, SolveStats]:
    """Optimal triangulation by the quadratic bottom-up cone sweep.

    Returns (optimal weight, a witness triangulation, stats); visited_cones
    equals total_cones since the sweep evaluates the whole census. engine
    is "scalar", "vector", or "auto"; the vector engine refuses weight
    functions it cannot evaluate exactly in int64.
    """
    t0 = time.perf_counter_ns()
    f.ensure_monotonic()
    check_accumulator_bound(poly, f)
    n = poly.n
    table = find_bridges_linear(poly)
    total = table.total_cones()
    if engine == "auto":
        engine = "vector" if f.vec is not None and int64_safe(poly, f) else "scalar"
    if engine not in ("scalar", "vector"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "vector" and (f.vec is None or not int64_safe(poly, f)):
        raise OverflowError("vector engine refused: weight function not int64-safe here")

    bridges = sorted(table.bridges, key=lambda br: (br[1] - br[0]) % n)
    n1 = n + 1
    if engine == "scalar":
        value = _sweep_scalar(poly, table, bridges, f)

        def get(key: int) -> int:
            bk, k = divmod(key, n1)
            return value[(*divmod(bk, n), k - 1 if k else None)]

    else:
        v0, vz = _sweep_vector(poly, table, bridges, f)
        rank_of = poly.rank_of

        def get(key: int) -> int:
            bk, k = divmod(key, n1)
            bridge = divmod(bk, n)
            return v0[bridge] if k == 0 else int(vz[bridge][rank_of[k - 1]])

    opt, edges = reconstruct_triangulation(poly, table, f, get)
    stats = SolveStats(total, 0, total, time.perf_counter_ns() - t0, engine)
    return opt, Triangulation(edges, opt), stats
