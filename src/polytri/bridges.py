"""Bridges and cones: the light-endpoint chords that bound all subproblems.

A bridge is an ordered pair (u, v) whose clockwise arc from u to v has a
non-empty interior in which every node is heavier than both endpoints,
heaviness taken under the polygon's one total order, ``Polygon.rank``,
compared through ``rank_of``. S(u, v) is the lightest node strictly inside
that arc. Every node x but the two lightest is the S node of exactly one
bridge: (u, v) with u and v the nearest lighter nodes counter-clockwise and
clockwise of x. So a polygon has exactly n - 2 bridges, and a bridge is
named by its S node. A cone (u, v, apex) is the arc polygon of a bridge,
optionally extended by one apex node lighter than both endpoints; cones are
the only subproblems the solvers ever evaluate.

``find_bridges_linear`` finds every node's nearest lighter nodes by one of
two routes. From ``JUMP_MIN_N`` nodes on, a numpy pointer-jumping pass
(``_jump``) goes first. It gives up past ``JUMP_WORK * n * log2(n)`` element
steps, which staircases reach (sorted or tied weights take about n log2 n),
and then, as below ``JUMP_MIN_N``, one Python stack pass (``_stack``)
builds the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Polygon

JUMP_MIN_N = 500  # from here on the numpy pass goes first (measured crossover)
JUMP_WORK = 1.25  # the numpy pass gives up past JUMP_WORK * n * log2(n) element steps (measured)

Bridge = tuple[int, int]


@dataclass(frozen=True)
class Cone:
    """Arc polygon of bridge (u, v), plus an optional apex node."""

    u: int
    v: int
    apex: int | None = None


@dataclass(frozen=True)
class BridgeTable:
    """All bridges of a polygon, each held at its S node x.

    ``left[x]`` and ``right[x]`` are the endpoints of the bridge whose S
    node is x, -1 for the two lightest nodes, which are the S node of no
    bridge. ``lc[x]`` = S(left[x], x) and ``rc[x]`` = S(x, right[x]) are x's
    children in the Cartesian tree of the weight order (cut open at the
    lightest node, so the second-lightest node's children are S(v1, v2) and
    S(v2, v1)), -1 where the pair is adjacent and at the lightest node:
    every bridge a cone expands into is one of these. ``apexed`` counts the
    apexed cones, the sum over the bridges of their lighter endpoint's rank.

    The lists and ``arrays`` hold one table: a finder fills one form (the
    stack pass the lists, the numpy pass ``arrays``), the other is made on
    its first read, so a solve that reads only ``arrays`` makes no list.
    """

    poly: Polygon
    apexed: int

    def __len__(self) -> int:
        return self.poly.n - 2  # every node but the two lightest names one bridge

    @property
    def bridges(self) -> tuple[Bridge, ...]:
        """The bridges sorted by u, then by clockwise distance from u to v.

        Derived for the CLI dump and the tests; the solvers index the lists.
        """
        n = self.poly.n
        found = [(u, v) for u, v in zip(self.left, self.right) if u >= 0]
        return tuple(sorted(found, key=lambda uv: (uv[0], (uv[1] - uv[0]) % n)))

    def s_node(self, u: int, v: int) -> int:
        """S(u, v); KeyError when (u, v) is not a bridge."""
        rank_of = self.poly.rank_of
        x = self.lc[v] if rank_of[u] < rank_of[v] else self.rc[u]
        if x < 0 or self.left[x] != u or self.right[x] != v:
            raise KeyError(f"({u}, {v}) is not a bridge")
        return x

    left = cached_property(lambda self: self.arrays[0].tolist())
    right = cached_property(lambda self: self.arrays[1].tolist())
    lc = cached_property(lambda self: self.arrays[2].tolist())
    rc = cached_property(lambda self: self.arrays[3].tolist())

    @cached_property
    def arrays(self) -> np.ndarray:
        """The rows left, right, lc, rc and rank_of: one read-only int64 array, made once, for the sweep."""
        out = np.array((self.left, self.right, self.lc, self.rc, self.poly.rank_of), np.int64)
        out.flags.writeable = False
        return out

    def total_cones(self) -> int:
        """One apexless cone per bridge plus one cone per valid apex."""
        return len(self) + self.apexed


def _table(poly: Polygon, found: list[tuple[int, int, int]]) -> BridgeTable:
    """The table of the bridges (u, v) with S node x, given as (u, v, x).

    x is the child of the heavier endpoint: with u lighter, u = left[v], so
    x = lc[v]; otherwise v = right[u], so x = rc[u].
    """
    n, rank_of = poly.n, poly.rank_of
    left, right, lc, rc = [-1] * n, [-1] * n, [-1] * n, [-1] * n
    apexed = 0  # the valid apexes of (u, v) are the nodes lighter than both
    for u, v, x in found:
        left[x] = u
        right[x] = v
        ru, rv = rank_of[u], rank_of[v]
        if ru < rv:
            lc[v] = x
            apexed += ru
        else:
            rc[u] = x
            apexed += rv
    table = BridgeTable(poly, apexed)
    vars(table).update(left=left, right=right, lc=lc, rc=rc)  # the cached_properties' slots
    return table


def find_bridges_walk(poly: Polygon) -> BridgeTable:
    """Find all bridges by one clockwise walk per start node (quadratic).

    The walk from u tracks s(u), the lightest node seen so far; the first
    node only initializes s(u), and each later node lighter than s(u) emits
    the bridge (u, node) with the previous s(u) recorded as S. The walk
    stops after processing any node lighter than u itself, the first node
    included, or upon returning to u. This is the reference for
    find_bridges_linear.
    """
    n, rank_of = poly.n, poly.rank_of
    found: list[tuple[int, int, int]] = []
    for u in range(n):
        ru = rank_of[u]
        su = -1
        for step in range(1, n):
            t = (u + step) % n
            rt = rank_of[t]
            if su < 0:
                su = t
            elif rt < rank_of[su]:
                found.append((u, t, su))
                su = t
            if rt < ru:
                break
    return _table(poly, found)


def find_bridges_linear(poly: Polygon) -> BridgeTable:
    """Find all bridges by nearest lighter nodes: the numpy pass, else the stack pass."""
    if poly.n >= JUMP_MIN_N:
        table = _jump(poly)
        if table is not None:
            return table
    return _stack(poly)


def _stack(poly: Polygon) -> BridgeTable:
    """All bridges in one nearest-lighter stack pass (linear); the reference for ``_jump``.

    The scan starts at the lightest node and ends on a repeat of it, so no
    bridge arc wraps across it. The stack holds nodes in increasing rank;
    a node x popped by the scan head t has t as its nearest lighter node
    on the right and the entry u below it as its nearest lighter node on the
    left, so (u, t) is the bridge with S = x, unless u and t are both the
    lightest node (x is then the second-lightest).
    """
    n, rank_of = poly.n, poly.rank_of
    m0 = poly.rank[0]
    found: list[tuple[int, int, int]] = []
    stack = [m0]
    for step in range(1, n + 1):
        t = (m0 + step) % n
        rt = rank_of[t]
        while rank_of[stack[-1]] > rt:
            x = stack.pop()
            u = stack[-1]
            if u != t:
                found.append((u, t, x))
        stack.append(t)
    return _table(poly, found)


def _nearest_lighter(rk: np.ndarray, near: np.ndarray, budget: int) -> int:
    """Point each ``near[p]`` at p's nearest lighter position on one side; the budget left, or -1.

    Every position strictly between p and ``near[p]`` is heavier than p. While
    ``near[p]`` is too, the jump ``near[p] <- near[near[p]]`` keeps that true,
    final or not, so all positions jump at once (Berkman, Schieber and
    Vishkin's all-nearest-smaller-values scheme). It stops at -1 once its
    element steps pass ``budget``: on staircases the rounds grow with n.
    """
    act = np.flatnonzero(rk[near] > rk)
    while act.size:
        budget -= act.size
        if budget < 0:
            return -1
        to = near[near[act]]
        near[act] = to
        act = act[rk[to] > rk[act]]
    return budget


def _jump(poly: Polygon) -> BridgeTable | None:
    """The table by the numpy pass, or None once its work passes ``JUMP_WORK`` * n * log2(n) steps.

    Position p of the scan holds node (m0 + p) % n, for p = 0..n with the
    lightest node m0 at both ends, so every other position has a lighter
    position on each side. Node x at position p is S of the bridge between
    the nodes at its nearest lighter positions, unless both are m0; the
    rows are scattered by ``_table``'s rule into ``arrays``.
    """
    n, m0 = poly.n, poly.rank[0]
    rank_of = np.fromiter(poly.rank_of, np.int64, n)
    node = np.append(np.roll(np.arange(n), -m0), m0)
    rk = np.concatenate((rank_of[m0:], rank_of[: m0 + 1]))  # rank_of[node]
    lo, hi = np.arange(-1, n), np.arange(1, n + 2)
    lo[[0, n]] = hi[[0, n]] = 0, n  # the ends look for nothing
    budget = _nearest_lighter(rk, lo, int(JUMP_WORK * n * math.log2(n)))
    if budget < 0 or _nearest_lighter(rk, hi, budget) < 0:
        return None
    p = np.flatnonzero((lo[1:n] > 0) | (hi[1:n] < n)) + 1  # all but m0 and the second-lightest
    a, b = lo[p], hi[p]
    ru, rv = rk[a], rk[b]
    x, u, v = node[p], node[a], node[b]
    under = ru < rv  # u lighter: x = lc[v]; else x = rc[u]
    out = np.full((5, n), -1, np.int64)  # the rows of ``arrays``
    out[0, x], out[1, x] = u, v
    out[2, v[under]] = x[under]
    out[3, u[~under]] = x[~under]
    out[4] = rank_of
    out.flags.writeable = False
    table = BridgeTable(poly, int(np.minimum(ru, rv).sum()))
    vars(table)["arrays"] = out  # the cached_property's slot; the lists are made from it on first read
    return table


def cone_nodes(poly: Polygon, cone: Cone) -> list[int]:
    """Nodes of the cone polygon in order: apex if any, then the arc u..v."""
    n = poly.n
    span = (cone.v - cone.u) % n
    if span < 2:
        raise ValueError(f"cone ({cone.u}, {cone.v}) has an empty arc interior")
    arc = [(cone.u + i) % n for i in range(span + 1)]
    if cone.apex is None:
        return arc
    if cone.apex in arc:
        raise ValueError(f"apex {cone.apex} lies on the arc of ({cone.u}, {cone.v})")
    return [cone.apex] + arc


def enumerate_cones(poly: Polygon, table: BridgeTable) -> list[Cone]:
    """All cones: per bridge, the apexless cone then one per apex by rank.

    The valid apexes of bridge (u, v) are exactly the nodes ranked strictly
    below both endpoints, i.e. the first min(rank_of[u], rank_of[v])
    entries of poly.rank.
    """
    rank, rank_of = poly.rank, poly.rank_of
    out: list[Cone] = []
    for u, v in table.bridges:
        out.append(Cone(u, v, None))
        for r in range(min(rank_of[u], rank_of[v])):
            out.append(Cone(u, v, rank[r]))
    return out
