"""Ground truth: the classic cubic interval DP and a brute-force oracle.

The DP fills one diagonal of arcs at a time from slices of its cost tables
(kept by arc start and by arc end) and a window view of the weights; the
weight function alone picks its arithmetic (``core.vector_arithmetic``).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    Polygon,
    TriangleWeightFn,
    Triangulation,
    INT64_LIMIT,
    check_accumulator_bound,
    int64_safe,
    vector_arithmetic,
)


def solve_dp_cubic(poly: Polygon, f: TriangleWeightFn) -> tuple[int, Triangulation]:
    """Minimum triangulation weight by interval DP over arcs (cubic time).

    cost(i, j) is the optimum for the sub-polygon on nodes i..j closed by
    the chord (i, j); the answer is cost(0, n - 1). Diagonal d is one numpy
    expression over slices: arc (i, i + d) split at i + k costs S[i, k] +
    E[i + d, d - k] + f(W[i], H[i, k], W[i + d]), where S holds costs by
    start, E by end and H[i, k] = W[i + k] is a view; ties go to the
    smallest k, so reconstruction is deterministic. With ``f.vec`` the DP
    runs it in int64 while the costs stored so far prove the next diagonal
    cannot overflow, and in object dtype (exact Python ints) from the first
    diagonal where they do not. Without it, the DP runs ``fn`` element-wise
    in object dtype from the start, so it keeps whatever exact values ``fn``
    returns.
    """
    f.ensure_monotonic()
    check_accumulator_bound(poly, f)
    fvec, dtype, tmax = vector_arithmetic(poly, f)
    n = poly.n
    W = poly.arrays[0].astype(dtype, copy=False)
    H = sliding_window_view(np.concatenate((W, W)), n)  # H[i, k] = W[i + k]
    S = np.zeros((n, n), dtype)  # S[i, d] = cost(i, i + d)
    E = np.zeros((n, n), dtype)  # E[j, d] = cost(j - d, j)
    split = np.zeros((n, n), np.int32)  # the arc (i, i + d) splits at i + split[i, d]
    # Every candidate of a diagonal is at most 2 * top + tmax, where top is the
    # largest cost stored so far. From the first diagonal where that bound
    # reaches 2**63 the tables are object arrays of exact ints; tmax None
    # means nothing is left to watch.
    top = 0
    for d in range(2, n):
        if tmax is not None and 2 * top + tmax >= INT64_LIMIT:
            W, S, E, tmax = W.astype(object), S.astype(object), E.astype(object), None
            H = sliding_window_view(np.concatenate((W, W)), n)
        r = n - d  # row i is the arc (i, i + d), column k - 1 its split at i + k
        cand = S[:r, 1:d] + E[d:, d - 1 : 0 : -1] + fvec(W[:r, None], H[:r, 1:d], W[d:, None])
        k = cand.argmin(axis=1)  # first minimum, so ties go to the smallest split
        best = cand[np.arange(r), k]
        S[:r, d] = E[d:, d] = best
        split[:r, d] = k + 1
        if tmax is not None:
            top = max(top, int(best.max()))
    edges = []
    work = [(0, n - 1)]
    while work:
        i, j = work.pop()
        if j - i < 2:
            continue
        m = i + split.item(i, j - i)
        for a, b in ((i, m), (m, j)):
            if b - a >= 2 and not (a == 0 and b == n - 1):
                edges.append((a, b))
        work.append((i, m))
        work.append((m, j))
    opt = S.item(0, n - 1)  # never int(): fn's exact values need not be ints
    return opt, Triangulation(frozenset(edges), opt)


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
        W = poly.arrays[0]
        totals = f.vec(W[T[:, :, 0]], W[T[:, :, 1]], W[T[:, :, 2]]).sum(axis=1)
        best = totals.min().item()
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
