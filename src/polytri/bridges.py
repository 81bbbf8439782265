"""Bridges and cones: the light-endpoint chords that bound all subproblems.

A bridge is an ordered pair (u, v) whose clockwise arc from u to v has a
non-empty interior in which every node is heavier than both endpoints,
heaviness taken under the polygon's one total order, ``Polygon.rank``,
compared through ``rank_of``. S(u, v) is the lightest node strictly inside
that arc. A cone (u, v, apex) is the arc polygon of a bridge, optionally
extended by one apex node lighter than both endpoints; cones are the only
subproblems the solvers ever evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .core import Polygon

Bridge = tuple[int, int]


@dataclass(frozen=True)
class Cone:
    """Arc polygon of bridge (u, v), plus an optional apex node."""

    u: int
    v: int
    apex: int | None = None


@dataclass(frozen=True)
class BridgeTable:
    """All bridges of a polygon with their S values, in canonical order.

    ``bridges`` is sorted by u, then by clockwise distance from u to v,
    which coincides with the emission order of the walk finder. ``s`` maps
    each bridge to (S node index, S node weight) so later decisions need no
    extra scans.
    """

    poly: Polygon
    bridges: tuple[Bridge, ...]
    s: dict[Bridge, tuple[int, int]] = field(repr=False)

    def __len__(self) -> int:
        return len(self.bridges)

    def s_node(self, u: int, v: int) -> int:
        return self.s[(u, v)][0]

    def total_cones(self) -> int:
        """One apexless cone per bridge plus one cone per valid apex."""
        rank_of = self.poly.rank_of
        return sum(1 + min(rank_of[u], rank_of[v]) for u, v in self.bridges)


def _canonical(poly: Polygon, found: list[Bridge], s: dict[Bridge, tuple[int, int]]) -> BridgeTable:
    # both finders emit each u's bridges in order of increasing arc length
    # (the walk by its steps from u, the stack by its scan head), and the
    # sort is stable, so sorting on u alone gives the canonical order
    order = sorted(found, key=itemgetter(0))
    return BridgeTable(poly, tuple(order), {uv: s[uv] for uv in order})


def find_bridges_walk(poly: Polygon) -> BridgeTable:
    """Find all bridges by one clockwise walk per start node (quadratic).

    The walk from u tracks s(u), the lightest node seen so far; the first
    node only initializes s(u), and each later node lighter than s(u) emits
    the bridge (u, node) with the previous s(u) recorded as S. The walk
    stops after processing any node lighter than u itself, the first node
    included, or upon returning to u.
    """
    n, w, rank_of = poly.n, poly.weights, poly.rank_of
    found: list[Bridge] = []
    s: dict[Bridge, tuple[int, int]] = {}
    for u in range(n):
        ru = rank_of[u]
        su = -1
        for step in range(1, n):
            t = (u + step) % n
            rt = rank_of[t]
            if su < 0:
                su = t
            elif rt < rank_of[su]:
                found.append((u, t))
                s[(u, t)] = (su, w[su])
                su = t
            if rt < ru:
                break
    return _canonical(poly, found, s)


def find_bridges_linear(poly: Polygon) -> BridgeTable:
    """Find all bridges in one monotone-stack pass (linear).

    The scan starts at the globally lightest node and ends on a sentinel
    repeat of it, so no bridge arc wraps across the anchor. Each stack entry
    carries the lightest node strictly between it and the scan head, which
    is exactly the S value at the moment the entry pops. The output is
    canonicalized to match the walk finder bit for bit.
    """
    n, w, rank_of = poly.n, poly.weights, poly.rank_of
    m0 = poly.rank[0]
    found: list[Bridge] = []
    s: dict[Bridge, tuple[int, int]] = {}
    stack: list[list[int]] = [[m0, -1]]  # [node, lightest node above, or -1]
    for step in range(1, n + 1):
        t = m0 if step == n else (m0 + step) % n
        rt = rank_of[t]
        popped = False
        while rank_of[stack[-1][0]] > rt:
            node, above = stack.pop()
            if above >= 0:
                found.append((node, t))
                s[(node, t)] = (above, w[above])
            parent = stack[-1]
            best = parent[1]
            for cand in (node, above):
                if cand >= 0 and (best < 0 or rank_of[cand] < rank_of[best]):
                    best = cand
            parent[1] = best
            popped = True
        top = stack[-1]
        if popped and top[0] != t:
            found.append((top[0], t))
            s[(top[0], t)] = (top[1], w[top[1]])
        if step < n:
            stack.append([t, -1])
    return _canonical(poly, found, s)


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
