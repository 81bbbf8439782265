"""Memoized branching solver over cones.

The search tree rooted at the whole polygon expands each cone into at most
two branches; every child is again a cone of a bridge (or a base case), so
memoizing on the cone descriptor (u, v, apex) bounds the work by the number
of distinct cones. Branches follow two shapes:

- a "forced edge" branch: one edge is provably in some optimal triangulation
  of the cone, splitting it into one or two child cones;
- a branch pair: either a specific triangle is present (branch 1) or a
  specific edge is (branch 2), and the solver takes the cheaper.

``expand_cone`` and ``expand_root`` are the public, self-describing form of
the rules. Every cone expansion also has one compact shape, (p, a, b),
stated once in ``_cone_shape``. ``solve_bst`` runs that shape inline over
a flattened work stack with packed integer keys and one memo interface: a
dict (backend "hash") or the write-once ``MemoStore`` (backend "dense").
``reconstruct_triangulation`` evaluates the root and walks one winning edge
set over the solved values by packed key, for this solver and for
yao_solver's sweep; it calls ``_cone_shape``, as does yao_solver's vector
sweep. A stored value that no branch reproduces raises
SolverInvariantError. The tests cross-check the packed forms against the
public rules: cone values against a recursion over ``expand_cone``, and
witnesses against a re-expansion of winning cones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .bridges import BridgeTable, Cone, find_bridges_linear
from .core import (
    Edge,
    Polygon,
    SolverInvariantError,
    TriangleWeightFn,
    Triangulation,
    check_accumulator_bound,
    norm_edge,
)

DENSE_CAP = 2000  # the largest n the dense memo accepts: its rows cost O(n^2) overall

__all__ = [
    "Branch",
    "MemoStore",
    "SolveStats",
    "cone_value_base",
    "expand_cone",
    "expand_root",
    "is_base_cone",
    "reconstruct_triangulation",
    "solve_bst",
]


class Branch(NamedTuple):
    """One alternative in a cone (or root) expansion.

    The branch asserts: some optimal triangulation contains all of ``edges``
    and all of ``triangles``, and restricts to an optimal triangulation of
    each child cone. Its value is the triangle weights plus the child values.
    """

    edges: tuple[Edge, ...]
    children: tuple[Cone, ...]
    triangles: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class SolveStats:
    """Instrumentation for one solve.

    visited_cones counts memo misses: cones whose value was actually
    computed and stored, the root included when it is itself a cone.
    Apexless cones of one triangle ((v - u) % n == 2) are stored and
    counted like any other; apexed cones of one triangle are never stored
    or counted, as they fold into their parent's constants. total_cones is
    the full census from the bridge table, so visited_cones <= total_cones
    always holds.
    """

    visited_cones: int
    memo_hits: int
    total_cones: int
    elapsed_ns: int
    backend: str


def is_base_cone(poly: Polygon, cone: Cone) -> bool:
    """True when the cone's value needs no expansion (0 or 1 triangle)."""
    interior = poly.arc_len(cone.u, cone.v) - 1
    if cone.apex is not None:
        return interior == 0
    return interior <= 1


def cone_value_base(poly: Polygon, cone: Cone, f: TriangleWeightFn) -> int:
    """Value of a base-case cone: its zero or one triangles, directly."""
    w = poly.weights
    interior = poly.arc_len(cone.u, cone.v) - 1
    if cone.apex is not None:
        if interior != 0:
            raise ValueError(f"{cone} is not a base case")
        return f.fn(w[cone.u], w[cone.v], w[cone.apex])
    if interior == 0:
        return 0
    if interior == 1:
        return f.fn(w[cone.u], w[(cone.u + 1) % poly.n], w[cone.v])
    raise ValueError(f"{cone} is not a base case")


def expand_cone(cone: Cone, table: BridgeTable) -> list[Branch]:
    """Expansion branches of a non-base cone; branch 1 wins value ties.

    Apexed cone (u, v, z), z lighter than both endpoints: either the
    triangle (u, v, z) sits on the bridge (branch 1, leaving the apexless
    cone), or the apex connects to the lightest interior node x' = S(u, v)
    (branch 2, splitting into two apexed cones).

    Apexless cone (u, v) with lighter endpoint a and a's interior neighbor
    x: let t3 = S(u, v). When x != t3 the edge (a, t3) is forced, splitting
    off an apexless cone on a's side and a cone with apex a on the other.
    When x == t3, either the triangle (u, x, v) is present (branch 1) or a
    connects to the second-lightest interior node x' (branch 2).
    """
    poly = table.poly
    n = poly.n
    u, v, z = cone.u, cone.v, cone.apex
    interior = poly.arc_len(u, v) - 1
    if z is not None:
        if interior < 1:
            raise ValueError(f"{cone} is a base case, not expandable")
        x2 = table.s_node(u, v)
        return [
            Branch((norm_edge(u, v),), (Cone(u, v),), ((u, v, z),)),
            Branch((norm_edge(z, x2),), (Cone(u, x2, z), Cone(x2, v, z)), ()),
        ]
    if interior < 2:
        raise ValueError(f"{cone} is a base case, not expandable")
    t3 = table.s_node(u, v)
    if poly.lighter(u, v):
        x = (u + 1) % n
        if x != t3:
            return [Branch((norm_edge(u, t3),), (Cone(u, t3), Cone(t3, v, u)), ())]
        x2 = table.s_node(x, v)
        return [
            Branch((norm_edge(x, v),), (Cone(x, v),), ((u, x, v),)),
            Branch((norm_edge(u, x2),), (Cone(x, x2, u), Cone(x2, v, u)), ()),
        ]
    x = (v - 1) % n
    if x != t3:
        return [Branch((norm_edge(v, t3),), (Cone(u, t3, v), Cone(t3, v)), ())]
    x2 = table.s_node(u, x)
    return [
        Branch((norm_edge(u, x),), (Cone(u, x),), ((u, x, v),)),
        Branch((norm_edge(v, x2),), (Cone(u, x2, v), Cone(x2, x, v)), ()),
    ]


def expand_root(poly: Polygon) -> list[Branch]:
    """Branches of the first step, decomposing the whole polygon.

    With v1, v2, v3 the three lightest nodes: if v2 and v3 are both
    neighbors of v1, either the triangle (v1, v2, v3) is present or v1
    connects to the fourth-lightest node v4. If exactly one of them is a
    neighbor, the edge from v1 to the non-neighbor is forced. If neither
    is, both edges (v1, v2) and (v1, v3) are forced. Children are cones of
    bridges between two of the three lightest nodes.

    When v1 and v2 are adjacent the whole polygon is also the apexless cone
    of the bridge between them, and expanding that cone gives exactly the
    same branches; solvers use that form so the root participates in the
    memo. This function exists for the non-adjacent cases and for tests.
    """
    n = poly.n
    if n < 4:
        raise ValueError("root expansion requires n >= 4")
    rank = poly.rank
    v1, v2, v3 = rank[0], rank[1], rank[2]
    adj2 = poly.adjacent(v1, v2)
    adj3 = poly.adjacent(v1, v3)
    if adj2 and adj3:
        v4 = rank[3]
        if (v2 - v1) % n == 1:
            return [
                Branch((norm_edge(v2, v3),), (Cone(v2, v3),), ((v1, v2, v3),)),
                Branch((norm_edge(v1, v4),), (Cone(v2, v4, v1), Cone(v4, v3, v1)), ()),
            ]
        return [
            Branch((norm_edge(v2, v3),), (Cone(v3, v2),), ((v1, v2, v3),)),
            Branch((norm_edge(v1, v4),), (Cone(v3, v4, v1), Cone(v4, v2, v1)), ()),
        ]
    if adj2 or adj3:
        x, y = (v2, v3) if adj2 else (v3, v2)
        if (x - v1) % n == 1:
            return [Branch((norm_edge(v1, y),), (Cone(x, y, v1), Cone(y, v1)), ())]
        return [Branch((norm_edge(v1, y),), (Cone(y, x, v1), Cone(v1, y)), ())]
    if (v2 - v1) % n < (v3 - v1) % n:
        s, t = v2, v3
    else:
        s, t = v3, v2
    return [
        Branch(
            (norm_edge(v1, v2), norm_edge(v1, v3)),
            (Cone(v1, s), Cone(s, t, v1), Cone(t, v1)),
            (),
        )
    ]


class MemoStore:
    """The dense cone-value memo: a write-once mapping over packed cone keys.

    Keys are (u*n + v)*(n + 1) + k, k = apex + 1 or 0. Each bridge owns one
    (n + 1)-slot row, allocated on first use, with -1 as the empty sentinel.
    It supports ``in``, ``[]``, ``[]=`` and ``len`` like the dict that the
    hash backend uses instead. A key whose row is not a bridge raises
    KeyError, which keeps the solver honest about only ever memoizing cones
    of real bridges; so does reading an empty cell. A second write raises
    SolverInvariantError. Rows cost O(n) each and O(n^2) overall, so the
    store refuses polygons larger than DENSE_CAP.
    """

    __slots__ = ("n1", "rows", "bridge_keys")

    def __init__(self, n: int, bridge_keys: Iterable[int]):
        if n > DENSE_CAP:
            raise ValueError(
                f"dense memo refused for n={n} > {DENSE_CAP}; use the hash backend"
            )
        self.n1 = n + 1
        self.rows: dict[int, list[int]] = {}
        self.bridge_keys = frozenset(bridge_keys)

    def _new_row(self, bk: int) -> list[int]:
        if bk not in self.bridge_keys:
            raise KeyError(f"no bridge for packed pair key {bk}")
        row = self.rows[bk] = [-1] * self.n1
        return row

    def __contains__(self, key: int) -> bool:
        bk, k = divmod(key, self.n1)
        return (self.rows.get(bk) or self._new_row(bk))[k] >= 0

    def __getitem__(self, key: int) -> int:
        bk, k = divmod(key, self.n1)
        val = (self.rows.get(bk) or self._new_row(bk))[k]
        if val < 0:
            raise KeyError(f"memo cell {key} is empty")
        return val

    def __setitem__(self, key: int, value: int) -> None:
        bk, k = divmod(key, self.n1)
        row = self.rows.get(bk) or self._new_row(bk)
        if row[k] >= 0:
            raise SolverInvariantError(f"memo cell {key} written twice")
        row[k] = value

    def __len__(self) -> int:
        return sum(1 for row in self.rows.values() for v in row if v >= 0)


def _root_cones(poly: Polygon) -> tuple[tuple[Edge, ...], list[tuple[int, int, int]]]:
    """The root's forced edges and its cones as (u, v, k), k = apex + 1 or 0.

    With the two lightest nodes adjacent, the whole polygon is the apexless
    cone of the bridge between them, so the root takes part in the memo;
    otherwise the root is expand_root's single, forced, branch.
    """
    n = poly.n
    v1, v2 = poly.rank[0], poly.rank[1]
    if (v2 - v1) % n == 1:
        return (), [(v2, v1, 0)]
    if (v1 - v2) % n == 1:
        return (), [(v1, v2, 0)]
    (br,) = expand_root(poly)
    return br.edges, [(c.u, c.v, 0 if c.apex is None else c.apex + 1) for c in br.children]


def _cone_shape(
    poly: Polygon, table: BridgeTable, u: int, v: int, k: int
) -> tuple[int, int, int, bool]:
    """The (p, a, b, one) shape of non-base cone (u, v) with apex k - 1 (k = 0: none).

    Every expand_cone expansion has this shape. p is the apex, or the
    lighter endpoint of an apexless cone, and (a, b) is the bridge left
    after p's forced side. Branch 1, present only when ``one`` is set, is
    the triangle (a, b, p) plus the apexless cone (a, b). Branch 2 (the
    only, forced, branch when ``one`` is not set) is the edge (p, m),
    m = S(a, b), splitting into the cones (a, m) and (m, b), each with apex
    p unless p is its endpoint.
    """
    if k:
        return k - 1, u, v, True
    n, w = poly.n, poly.weights
    x3 = table.s[(u, v)][0]
    if (w[u], u) < (w[v], v):
        x = (u + 1) % n
        # x is S(u, v): two branches; otherwise the edge (u, S(u, v)) is forced
        return (u, x, v, True) if x == x3 else (u, u, v, False)
    x = (v - 1) % n
    return (v, u, x, True) if x == x3 else (v, u, v, False)


def reconstruct_triangulation(
    poly: Polygon,
    table: BridgeTable,
    f: TriangleWeightFn,
    get: Callable[[int], int],
) -> tuple[int, frozenset[Edge]]:
    """Evaluate the root and walk one optimal edge set over solved cone values.

    get(key) returns the solved value of the non-base cone with packed key
    (u*n + v)*(n + 1) + k, k = apex + 1 or 0; base cones are valued
    directly and never looked up. The root is evaluated first, as the sum
    of its cones (_root_cones). Returns (optimal weight, edges).

    Each cone is expanded in its (p, a, b) shape (_cone_shape). Branch 1 is
    taken when it reproduces the solved value, so it wins ties as in the
    search; otherwise branch 2 must, or SolverInvariantError is raised, as
    it is when the walk does not yield n - 3 edges.
    """
    n, w, fw, s = poly.n, poly.weights, f.fn, table.s
    n1 = n + 1

    def cone(u: int, v: int, k: int) -> tuple[int, int]:
        """(key, value) of cone (u, v) with apex k - 1 (k = 0: none); key -1 for a base cone."""
        d = (v - u) % n
        if k:
            if d == 1:
                return -1, fw(w[u], w[v], w[k - 1])
        elif d <= 2:
            return -1, fw(w[u], w[(u + 1) % n], w[v]) if d == 2 else 0
        key = (u * n + v) * n1 + k
        return key, get(key)

    root_edges, roots = _root_cones(poly)
    edges: list[Edge] = list(root_edges)
    stack: list[int] = []  # non-base cones to walk, as key, value pairs
    opt = 0
    for u, v, k in roots:
        key, val = cone(u, v, k)
        opt += val
        if key >= 0:
            stack += key, val
    while stack:
        val = stack.pop()
        bk, k = divmod(stack.pop(), n1)
        u, v = divmod(bk, n)
        p, a, b, one = _cone_shape(poly, table, u, v, k)
        if one:
            c, vc = cone(a, b, 0)
            if fw(w[a], w[b], w[p]) + vc == val:
                edges.append((a, b) if a < b else (b, a))
                if c >= 0:
                    stack += c, vc
                continue
        m = s[(a, b)][0]
        ca, va = cone(a, m, 0 if p == a else p + 1)
        cb, vb = cone(m, b, 0 if p == b else p + 1)
        if va + vb != val:
            raise SolverInvariantError(
                f"no branch of cone ({u}, {v}, apex {k - 1 if k else None}) "
                f"reproduces its solved value {val}"
            )
        edges.append((p, m) if p < m else (m, p))
        if ca >= 0:
            stack += ca, va
        if cb >= 0:
            stack += cb, vb
    out = frozenset(edges)
    if len(out) != n - 3:
        raise SolverInvariantError(f"reconstruction produced {len(out)} edges, wanted {n - 3}")
    return opt, out


def solve_bst(
    poly: Polygon,
    f: TriangleWeightFn,
    backend: str = "hash",
) -> tuple[int, Triangulation, SolveStats]:
    """Optimal triangulation via the memoized branching search.

    Returns (optimal weight, a witness triangulation, stats). The search
    visits each cone at most once; on instances whose expansions funnel into
    few distinct cones (staircase polygons being the canonical family) the
    visited count is far below the quadratic census.

    backend selects the memo: "hash" is a dict, "dense" a MemoStore, which
    refuses n > DENSE_CAP.
    """
    t0 = time.perf_counter_ns()
    f.ensure_monotonic()
    check_accumulator_bound(poly, f)
    n, w = poly.n, poly.weights
    table = find_bridges_linear(poly)
    total = table.total_cones()
    n1 = n + 1
    memo: dict[int, int] | MemoStore
    if backend == "hash":
        memo = {}
    elif backend == "dense":
        memo = MemoStore(n, (u * n + v for u, v in table.bridges))
    else:
        raise ValueError(f"unknown memo backend {backend!r}")
    s_of = {u * n + v: node for (u, v), (node, _) in table.s.items()}
    fw = f.fn
    lighter = poly.lighter
    visited = 0
    hits = 0

    # the root's non-base cones; base ones are valued by the walk
    work: list = [
        (u * n + v) * n1 + k for u, v, k in _root_cones(poly)[1] if (v - u) % n > (1 if k else 2)
    ]

    # Work stack: an int is a cone key to expand; a tuple is a combine
    # record (key, const2, child2A, child2B[, const1, child1]) for branch 2
    # and, when present, branch 1, with -1 for an absent branch-2 child.
    # Base-case apexed children fold into the constants; apexless children
    # span at least two sides, so they are always pushed.
    while work:
        item = work.pop()
        if type(item) is int:
            key = item
            if key in memo:
                hits += 1
                continue
            visited += 1
            bk, k = divmod(key, n1)
            u, v = divmod(bk, n)
            # _cone_shape, written inline: a call per cone made staircase 50% slower
            ab = bk
            if k:
                p = k - 1
                a = u
                b = v
                one = True
            elif (v - u) % n == 2:
                # one interior node: a single triangle, no expansion
                memo[key] = fw(w[u], w[(u + 1) % n], w[v])
                continue
            elif lighter(u, v):
                p = a = u
                b = v
                x = u + 1 - n if u + 1 >= n else u + 1
                one = x == s_of[bk]
                if one:
                    a = x
                    ab = x * n + v
            else:
                p = b = v
                a = u
                x = v - 1 if v else n - 1
                one = x == s_of[bk]
                if one:
                    b = x
                    ab = u * n + x
            m = s_of[ab]
            c2 = 0
            ch2a = ch2b = -1
            if p == a:
                ch2a = (a * n + m) * n1
            elif (m - a) % n == 1:
                c2 = fw(w[a], w[m], w[p])
            else:
                ch2a = (a * n + m) * n1 + p + 1
            if p == b:
                ch2b = (m * n + b) * n1
            elif (b - m) % n == 1:
                c2 += fw(w[m], w[b], w[p])
            else:
                ch2b = (m * n + b) * n1 + p + 1
            if one:
                ch1 = ab * n1
                work.append((key, c2, ch2a, ch2b, fw(w[a], w[b], w[p]), ch1))
                work.append(ch1)
            else:
                work.append((key, c2, ch2a, ch2b))
            if ch2a >= 0:
                work.append(ch2a)
            if ch2b >= 0:
                work.append(ch2b)
        else:
            val = item[1]
            a = item[2]
            if a >= 0:
                val += memo[a]
            a = item[3]
            if a >= 0:
                val += memo[a]
            if len(item) == 6:
                alt = item[4] + memo[item[5]]
                if alt < val:
                    val = alt
            key = item[0]
            if key in memo:
                raise SolverInvariantError(f"memo cell {key} written twice")
            memo[key] = val

    opt, edges = reconstruct_triangulation(poly, table, f, memo.__getitem__)
    stats = SolveStats(visited, hits, total, time.perf_counter_ns() - t0, backend)
    return opt, Triangulation(edges, opt), stats
