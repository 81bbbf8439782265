"""Ground truth: the classic cubic interval DP and a brute-force oracle."""

from __future__ import annotations

import numpy as np

from .core import (
    Polygon,
    TriangleWeightFn,
    Triangulation,
    INT64_LIMIT,
    check_accumulator_bound,
    int64_safe,
    int64_watch_bound,
    norm_edge,
)

# "auto" runs the numpy engine from this size up. Below it the per-diagonal
# numpy calls cost more than the python loops; the two engines break even
# near n = 24 on random weights under mult, add and custom.
NUMPY_MIN_N = 24
# Where f(wmax, wmax, wmax) >= 2**63 the numpy engine computes in object
# dtype from its first diagonal, and the python loops stay as fast up to
# about n = 50 (mult and custom, weights 2**21..2**23).
OBJECT_NUMPY_MIN_N = 50


def solve_dp_cubic(
    poly: Polygon, f: TriangleWeightFn, engine: str = "auto"
) -> tuple[int, Triangulation]:
    """Minimum triangulation weight by interval DP over arcs (cubic time).

    cost(i, j) is the optimum for the sub-polygon on nodes i..j closed by
    the chord (i, j); the answer is cost(0, n - 1). Ties between split
    points resolve to the smallest index, so reconstruction is
    deterministic. ``engine`` is "python", "numpy", or "auto". The numpy
    engine needs ``f.vec`` and is exact on every input: it computes in int64
    while the costs stored so far prove the next diagonal cannot overflow,
    and in object dtype (exact Python ints) from the first diagonal where
    they do not. "auto" takes it when ``f.vec`` exists and n >=
    NUMPY_MIN_N, or n >= OBJECT_NUMPY_MIN_N when f(wmax, wmax, wmax) >=
    2**63 and so the run is in object dtype throughout.
    """
    f.ensure_monotonic()
    check_accumulator_bound(poly, f)
    n, w = poly.n, poly.weights
    if engine == "auto":
        wmax = max(w)
        min_n = OBJECT_NUMPY_MIN_N if f.fn(wmax, wmax, wmax) >= INT64_LIMIT else NUMPY_MIN_N
        engine = "numpy" if f.vec is not None and n >= min_n else "python"
    if engine == "numpy":
        if f.vec is None:
            raise OverflowError("numpy engine refused: weight function has no vectorized form")
        opt, edges = _dp_numpy(poly, f)
    elif engine == "python":
        opt, edges = _dp_python(poly, f)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return opt, Triangulation(frozenset(edges), opt)


def _dp_python(poly: Polygon, f: TriangleWeightFn) -> tuple[int, list[tuple[int, int]]]:
    n, w = poly.n, poly.weights
    fw = f.fn
    cost = [[0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for d in range(2, n):
        for i in range(n - d):
            j = i + d
            wi, wj = w[i], w[j]
            row = cost[i]
            best = None
            bm = -1
            for m in range(i + 1, j):
                c = row[m] + cost[m][j] + fw(wi, w[m], wj)
                if best is None or c < best:
                    best = c
                    bm = m
            cost[i][j] = best
            split[i][j] = bm
    edges = _dp_edges(n, lambda i, j: split[i][j])
    return cost[0][n - 1], edges


def _dp_numpy(poly: Polygon, f: TriangleWeightFn) -> tuple[int, list[tuple[int, int]]]:
    n = poly.n
    W = np.array(poly.weights, dtype=np.int64)
    cost = np.zeros((n, n), dtype=np.int64)
    split = np.zeros((n, n), dtype=np.int64)
    # Every candidate of a diagonal is at most 2 * top + tmax, where top is the
    # largest cost stored so far. From the first diagonal where that bound
    # reaches 2**63 the tables are object arrays of exact ints; tmax None
    # means nothing is left to watch.
    tmax = int64_watch_bound(poly, f)
    top = 0
    for d in range(2, n):
        if tmax is not None and 2 * top + tmax >= INT64_LIMIT:
            W, cost, tmax = W.astype(object), cost.astype(object), None
        i = np.arange(n - d)
        j = i + d
        m = i[:, None] + np.arange(1, d)  # every split point of every arc (i, i + d)
        cand = cost[i[:, None], m] + cost[m, j[:, None]] + f.vec(W[i, None], W[m], W[j, None])
        k = cand.argmin(axis=1)  # first minimum, so ties go to the smallest split
        best = cand[i, k]
        cost[i, j] = best
        split[i, j] = m[i, k]
        if tmax is not None:
            top = max(top, int(best.max()))
    edges = _dp_edges(n, lambda i, j: int(split[i, j]))
    return int(cost[0, n - 1]), edges


def _dp_edges(n: int, split_at) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    work = [(0, n - 1)]
    while work:
        i, j = work.pop()
        if j - i < 2:
            continue
        m = split_at(i, j)
        for a, b in ((i, m), (m, j)):
            if b - a >= 2 and not (a == 0 and b == n - 1):
                edges.append((a, b))
        work.append((i, m))
        work.append((m, j))
    return edges


# ---------------------------------------------------------------------------
# brute force

_ENUM_CAP = 14
_structure_cache: dict[int, tuple] = {}


def _structures(n: int) -> tuple:
    """All triangulations of an n-gon as (edges, triangles) pairs.

    Generated by recursing on the apex of the triangle that sits on the
    closing side (0, n - 1), so each triangulation appears exactly once.
    Cached for n <= 12, where the oracle gets reused across many seeds.
    """
    cached = _structure_cache.get(n)
    if cached is not None:
        return cached

    def rec(i: int, j: int) -> list[tuple[tuple, tuple]]:
        if j - i < 2:
            return [((), ())]
        out = []
        for m in range(i + 1, j):
            chords = tuple(
                (a, b) for a, b in ((i, m), (m, j)) if b - a >= 2 and not (a == 0 and b == n - 1)
            )
            for le, lt in rec(i, m):
                for re_, rt in rec(m, j):
                    out.append((le + re_ + chords, lt + rt + ((i, m, j),)))
        return out

    result = tuple(rec(0, n - 1))
    if n <= 12:
        _structure_cache[n] = result
    return result


def enumerate_triangulations(n: int):
    """Yield every triangulation of an n-gon as a frozenset of edges."""
    if not 3 <= n <= _ENUM_CAP:
        raise ValueError(f"enumeration supports 3 <= n <= {_ENUM_CAP}, got {n}")
    for edges, _ in _structures(n):
        yield frozenset(edges)


_tri_array_cache: dict[int, np.ndarray] = {}


def _triangle_array(n: int) -> np.ndarray:
    arr = _tri_array_cache.get(n)
    if arr is None:
        arr = np.array([t for _, t in _structures(n)], dtype=np.int16)  # (S, n - 2, 3)
        if n <= 12:
            _tri_array_cache[n] = arr
    return arr


def solve_bruteforce(
    poly: Polygon, f: TriangleWeightFn
) -> tuple[int, list[frozenset[tuple[int, int]]]]:
    """Exhaustive optimum plus the complete list of optimal edge sets."""
    n = poly.n
    if not 3 <= n <= _ENUM_CAP:
        raise ValueError(f"brute force supports 3 <= n <= {_ENUM_CAP}, got {n}")
    f.ensure_monotonic()
    check_accumulator_bound(poly, f)
    structures = _structures(n)
    if f.vec is not None and int64_safe(poly, f):
        T = _triangle_array(n)
        W = np.array(poly.weights, dtype=np.int64)
        totals = f.vec(W[T[:, :, 0]], W[T[:, :, 1]], W[T[:, :, 2]]).sum(axis=1)
        best = int(totals.min())
        winners = [frozenset(structures[i][0]) for i in np.flatnonzero(totals == best)]
        return best, winners
    w = poly.weights
    fw = f.fn
    best = None
    winners = []
    for edges, triangles in structures:
        total = 0
        for a, b, c in triangles:
            total += fw(w[a], w[b], w[c])
        if best is None or total < best:
            best = total
            winners = [frozenset(edges)]
        elif total == best:
            winners.append(frozenset(edges))
    return best, winners
