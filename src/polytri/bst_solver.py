"""Memoized branching solver over cones.

The search tree rooted at the whole polygon expands each cone into at most
two branches; every child is again a cone of a bridge (or a base case), so
memoizing on the cone bounds the work by the number of distinct cones. A
cone's key is x*(n + 1) + k, x the S node that names its bridge
(BridgeTable) and k = apex + 1 or 0. Branches follow two shapes:

- a "forced edge" branch: one edge is provably in some optimal triangulation
  of the cone, splitting it into one or two child cones;
- a branch pair: either a specific triangle is present (branch 1) or a
  specific edge is (branch 2), and the solver takes the cheaper.

``expand_cone`` and ``expand_root`` are the public, self-describing form of
the rules. Every cone expansion also has one compact shape, (p, ab, one),
stated once in ``_cone_shape``. ``solve_bst`` runs it in one of three
engines. The loop goes over a flattened work stack of packed keys and
memoizes in a dict (backend "hash") or a flat list indexed by the key
(backend "dense"). The sweep lays the same visited cones out in numpy, in
closed form from the bridge nesting (which cones the search visits depends
on the polygon alone), and values them bottom-up, a few numpy calls per
level of the cone graph. So hash solves take it only from ``SWEEP_MIN_N``
nodes on, when the layout counts at least ``SWEEP_MIN_WIDTH`` cells per
nest level (a ``vec`` picks only its dtype); the loop runs everything else,
including sorted or tie-heavy polygons, whose cone graph is n levels deep
with a few cones on each. Where the search visits nearly the whole census
(staircases), the layout's count hands over to the rows: yao_solver's sweep
values every cone, one numpy expression per bridge, in the same dtype, and
the loop's counts come from that count. ``reconstruct_triangulation`` walks
one winning edge set over solved values by packed key, for the loop, the
rows and yao_solver; the sweep walks its own cells. "Lighter" is always
``rank_of[a] < rank_of[b]``. A stored value that no branch reproduces
raises SolverInvariantError. The tests cross-check the packed forms against
the public rules, and the sweep and the rows against the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .bridges import BridgeTable, Cone, find_bridges_linear
from .core import (
    INT64_LIMIT,
    Edge,
    Polygon,
    SolverInvariantError,
    TriangleWeightFn,
    Triangulation,
    check_accumulator_bound,
    norm_edge,
    vector_arithmetic,
)

DENSE_CAP = 2000  # the largest n the dense memo accepts: its list holds n * (n + 1) cells
SWEEP_MIN_N = 800  # from here on, hash solves may take the sweep, with or without a vec (measured crossover)
SWEEP_MIN_WIDTH = 200  # the cells per nest level from which the sweep beats the loop (measured)
ROWS_FACTOR = 1.5  # the census per sweep cell below which Yao's rows beat the sweep (measured; object dtype: 1.8)
_CHUNK = 2**17  # cells per chunk of the sweep's pass 1 and its check, to bound their temporaries

__all__ = [
    "Branch",
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
    always holds. backend names the memo ("hash" or "dense"; yao_solver:
    its engine), engine the search that ran: "loop", "sweep" or "rows" for
    this solver, "scalar" or "vector" for yao_solver. The rows value the
    whole census, but report the loop's visited_cones and memo_hits.
    """

    visited_cones: int
    memo_hits: int
    total_cones: int
    elapsed_ns: int
    backend: str
    engine: str


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
    if poly.rank_of[u] < poly.rank_of[v]:
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


def _cone_values(poly: Polygon, f: TriangleWeightFn, get: Callable[[int], int | None]) -> Callable[..., tuple]:
    """The walks' base rule as cone(x, k, a, b): cone (a, b), S node x (-1: one side), apex k - 1.

    A base cone gives key -1 and its value (on one side, its apex's triangle
    or none; apexless with one interior node x, the triangle (a, x, b)), any
    other its packed key x * (n + 1) + k and get(key).
    """
    n, w, fw = poly.n, poly.weights, f.fn
    n1 = n + 1

    def cone(x: int, k: int, a: int, b: int) -> tuple[int, int | None]:
        if x < 0:
            return -1, fw(w[a], w[b], w[k - 1]) if k else 0
        if not k and (b - a) % n == 2:
            return -1, fw(w[a], w[x], w[b])
        key = x * n1 + k
        return key, get(key)

    return cone


def _root(table: BridgeTable, f: TriangleWeightFn) -> tuple[tuple[Edge, ...], list[int], int]:
    """The root's forced edges, the packed keys of its non-base cones and the value of its base ones.

    With the two lightest nodes adjacent, the whole polygon is the apexless
    cone of the bridge between them, so the root takes part in the memo;
    otherwise the root is expand_root's single, forced, branch.
    """
    poly = table.poly
    n = poly.n
    v1, v2 = poly.rank[0], poly.rank[1]
    cone = _cone_values(poly, f, lambda key: None)  # only the base cones' values are read
    if (v2 - v1) % n == 1:
        edges, vals = (), [cone(table.rc[v2], 0, v2, v1)]
    elif (v1 - v2) % n == 1:
        edges, vals = (), [cone(table.lc[v2], 0, v1, v2)]
    else:
        (br,) = expand_root(poly)
        edges, vals = br.edges, []
        for c in br.children:
            x = table.s_node(c.u, c.v) if (c.v - c.u) % n > 1 else -1
            vals.append(cone(x, 0 if c.apex is None else c.apex + 1, c.u, c.v))
    return edges, [key for key, _ in vals if key >= 0], sum(val for key, val in vals if key < 0)


def _cone_shape(table: BridgeTable, x: int, k: int) -> tuple[int, int, bool]:
    """The (p, ab, one) shape of the non-base cone of bridge x with apex k - 1 (k = 0: none).

    Bridges are named by their S node. Every expand_cone expansion has this
    shape. p is the apex, or the lighter endpoint of an apexless cone, and
    ab names the bridge (a, b) = (left[ab], right[ab]) left after p's forced
    side. Branch 1, present only when ``one`` is set, is the triangle
    (a, b, p) plus the apexless cone (a, b). Branch 2 (the only, forced,
    branch when ``one`` is not set) is the edge (p, m), m = S(a, b) = ab,
    splitting into the cones (a, m) and (m, b), bridges lc[ab] and rc[ab]
    (-1: a single side), each with apex p unless p is its endpoint.
    """
    if k:
        return k - 1, x, True
    u, v = table.left[x], table.right[x]
    rank_of = table.poly.rank_of
    if rank_of[u] < rank_of[v]:
        # x next to u: two branches, (a, b) = (x, v); otherwise the edge (u, x) is forced
        return (u, table.rc[x], True) if table.lc[x] < 0 else (u, x, False)
    return (v, table.lc[x], True) if table.rc[x] < 0 else (v, x, False)


def reconstruct_triangulation(
    poly: Polygon,
    table: BridgeTable,
    f: TriangleWeightFn,
    get: Callable[[int], int],
) -> tuple[int, frozenset[Edge]]:
    """Evaluate the root and walk one optimal edge set over solved cone values.

    The loop engine and yao_solver walk this way; the sweep walks its own
    cells (_sweep). get(key) returns the solved value of the non-base cone
    with packed key x*(n + 1) + k: the cone of the bridge whose S node is x,
    with apex k - 1 (k = 0: none); base cones are valued directly and never
    looked up. The root is evaluated first, as the sum of its cones
    (_root). Returns (optimal weight, edges).

    Each cone is expanded in its (p, ab, one) shape (_cone_shape). Branch 1
    is taken when it reproduces the solved value, so it wins ties as in the
    search; otherwise branch 2 must, or SolverInvariantError is raised, as
    it is when the walk does not yield n - 3 edges.
    """
    n, w, fw = poly.n, poly.weights, f.fn
    left, right, lc, rc = table.left, table.right, table.lc, table.rc
    n1 = n + 1
    cone = _cone_values(poly, f, get)
    root_edges, keys, opt = _root(table, f)
    edges: list[Edge] = list(root_edges)
    stack: list[int] = []  # non-base cones to walk, as key, value pairs
    for key in keys:
        val = get(key)
        opt += val
        stack += key, val
    while stack:
        val = stack.pop()
        x, k = divmod(stack.pop(), n1)
        p, m, one = _cone_shape(table, x, k)
        a, b = left[m], right[m]
        if one:
            c, vc = cone(m, 0, a, b)
            if fw(w[a], w[b], w[p]) + vc == val:
                edges.append((a, b) if a < b else (b, a))
                if c >= 0:
                    stack += c, vc
                continue
        ca, va = cone(lc[m], 0 if p == a else p + 1, a, m)
        cb, vb = cone(rc[m], 0 if p == b else p + 1, m, b)
        if va + vb != val:
            raise SolverInvariantError(
                f"no branch of cone ({left[x]}, {right[x]}, apex {k - 1 if k else None}) "
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


def _held(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """How many of the runs of positions lo .. hi - 1 hold each position 0 .. n - 1."""
    return np.cumsum(np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1))[:n]


def _levels(child: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Each node's height, the longest path down to a node without children.

    A(x) = x and Z(x) = n + x ask only for nodes of bridges deeper in the
    Cartesian tree (depth[x]; 0: no bridge), and Z(x) for A(x) too.
    """
    n = len(depth)
    height = np.zeros(2 * n, np.int64)
    o = np.argsort(-depth, kind="stable")
    for rows in np.split(o, np.flatnonzero(np.diff(depth[o])) + 1):
        for r in (rows, rows + n):
            c = child[r]
            height[r] = 1 + np.where(c >= 0, height[c], -1).max(axis=1)
    return height


def _top_sends(first: np.ndarray, last: np.ndarray, sends: np.ndarray, n1: int) -> tuple[np.ndarray, ...]:
    """The sends that no send of the same apex nests, as (k, lo, hi) sorted by k, then lo, and
    each send's top send.

    A send x * n1 + k, an apexed cone asked for by an A node or the root,
    reaches the Z rows of x's nest, the bridges at positions first[x] ..
    last[x] - 1; nests are Cartesian subtrees, nested or disjoint.
    """
    x, k = np.divmod(sends, n1)
    lo, hi = first[x], last[x]
    o = np.lexsort((-hi, lo, k))
    lo, hi, k = lo[o], hi[o], k[o]
    reach = np.maximum.accumulate(np.concatenate(([-1], (k * n1 + hi)[:-1])))
    top = reach <= k * n1 + lo
    cover = np.empty(len(o), np.int64)
    cover[o] = np.cumsum(top) - 1  # the last top send so far: the one nesting this send
    return k[top], lo[top], hi[top], cover


def _chunks(lens: np.ndarray) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Whole runs of these lengths per chunk of about _CHUNK cells: (runs i .. j - 1, first cell, offsets)."""
    ends = np.concatenate(([0], np.cumsum(lens)))
    i = 0
    while i < len(lens):
        j = max(i + 1, int(np.searchsorted(ends, ends[i] + _CHUNK, side="right")) - 1)
        off = (ends[i:j] - ends[i]).astype(np.int32)
        yield i, j, int(ends[i]), np.arange(ends[j] - ends[i], dtype=np.int32) - np.repeat(off, lens[i:j])
        i = j


def _layout(
    first: np.ndarray, last: np.ndarray, m0: int, child: np.ndarray, ch_key: np.ndarray, roots: np.ndarray, census: int
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray, np.ndarray] | tuple[int, int] | None:
    """Pass 1 of the sweep: the visited cells, laid out by node height and linked, in closed form.

    child[node, j] is child j's node (-1: none), ch_key[node, j] its key less
    any apex it inherits; the bridge at position q is (q + m0) % n. A(x) and
    Z(x) ask only for nodes of bridges nested in x, and reach every A node of
    x's nest: Z(x) asks for A(x), Z(lc[x]) and Z(rc[x]); A(x), u its lighter
    end, for A(rc[x]) and the Z rows of rc[x]'s children when x is next to u,
    else for A(lc[x]) and Z(rc[x]) (mirrored for v), so it covers its nest by
    induction from the leaves. The visited A nodes are thus the roots' nests:
    all when v1 and v2 are adjacent (n > 3), else all but rank[2]
    (expand_root takes that cone apart) and one-triangle roots. Z(y) holds
    one cell per top send (_top_sends) of these or the root that reaches y.
    Top sends nest, so those reaching y form a chain: send s takes slot
    depth(s), its depth among all top sends, in Z(y)'s row, and Z(y)'s cell
    at slot d has the children A(y), Z(lc[y]) and Z(rc[y]) at slot d; a
    send itself sits at the slot of the top send that nests it.

    Below SWEEP_MIN_WIDTH cells (visited A nodes plus each top send's reach)
    per nest level, where the loop is faster, returns None, having laid out
    nothing. With a census below ROWS_FACTOR times the cells, where Yao's
    rows are cheaper, it returns the loop's counts (visited, hits) alone,
    having laid out nothing either: visited is the cells, and hits the
    pushes (a root key each, and each cell's children) less the cells.
    Else returns each level's run of cells (level 0 first), the (3, cells)
    int32 table of each child j's cell (-1: none), the keys (-1: unwritten)
    and a last -1 for an absent child, and the roots' cells.
    """
    n, n1 = len(first), len(first) + 1
    pos = (np.arange(n) - m0) % n
    seen = _held(first[roots // n1], last[roots // n1], n)[pos] > 0
    sent = (child[:n, 1:] >= n) & seen[:, None]
    sends = np.concatenate((ch_key[:n, 1:][sent], roots[roots % n1 > 0]))
    k, lo, hi, cover = _top_sends(first, last, sends, n1)
    bridge = child[n:, 0] >= 0
    nest = _held(first[bridge], last[bridge], n)[pos]
    size = np.concatenate((seen, _held(lo, hi, n)[pos]))  # cells per node
    cells = int(size.sum())
    if cells < SWEEP_MIN_WIDTH * int(nest.max()):
        return None
    if census < ROWS_FACTOR * cells:
        return cells, len(roots) + int(size @ np.count_nonzero(child >= 0, axis=1)) - cells
    o = np.lexsort((k, -hi, lo))
    depth = np.empty(len(k), np.int64)
    depth[o] = np.arange(len(k)) - np.searchsorted(np.sort(hi), lo[o], side="right")
    height = _levels(child, nest)
    order = np.argsort(-height.astype(np.min_scalar_type(-int(height.max()))), kind="stable")  # radix
    size = size[order]  # in cell order
    ends = np.concatenate(([0], np.cumsum(size)))
    start = np.empty(2 * n, np.int32)  # cells number below 2**31, as kids holds them
    start[order] = ends[:-1]
    sent_cell = start[n + sends // n1] + depth[cover]  # slot 0 of its Z row, plus its top send's depth
    keys = np.full(ends[-1] + 1, -1, np.int64)
    ax = np.flatnonzero(seen)
    keys[start[ax]] = ax * n1
    at = (np.arange(n) + m0) % n
    for i, j, _, d in _chunks(hi - lo):
        run = hi[i:j] - lo[i:j]
        q = at[np.repeat(lo[i:j], run) + d]
        keys[start[n + q] + np.repeat(depth[i:j], run)] = q * n1 + np.repeat(k[i:j], run)
    # per node, in cell order: child j's cell at slot d is base[j], plus d for a Z node's Z child
    base = np.where(child >= 0, start[child], -1)
    base[:n, 1:][sent] = sent_cell[: np.count_nonzero(sent)]
    base = base[order].T
    kids = np.empty((3, ends[-1]), np.int32)
    for i, j, c0, d in _chunks(size):
        kid = kids[:, c0 : c0 + len(d)]
        kid[:] = np.repeat(base[:, i:j], size[i:j], axis=1)
        kid[1:] += (kid[1:] >= 0) * d  # an A node's one cell has d = 0
    bounds = ends[np.concatenate(([0], np.cumsum(np.bincount(height)[::-1])))].tolist()
    root_cells = start[roots // n1]
    root_cells[roots % n1 > 0] = sent_cell[np.count_nonzero(sent) :]
    return list(zip(bounds[-2::-1], bounds[:0:-1])), kids, keys, root_cells


def _check_layout(
    child: np.ndarray, ch_key: np.ndarray, kids: np.ndarray, keys: np.ndarray, root_cells: np.ndarray
) -> None:
    """Raise SolverInvariantError unless _layout's cells are the search's cone graph.

    Every slot is written once (as many keys as slots are written, so a
    double write leaves a -1), each cell's children carry the keys that its
    (p, ab, one) shape asks for, and every cell but the roots' is a child.
    """
    ncells, n = len(keys) - 1, len(child) // 2
    want_of = np.where(child >= 0, ch_key, -1).T.copy()  # (3, nodes), less the apex
    reached = np.zeros(ncells + 1, bool)  # the last entry takes the absent children
    reached[root_cells] = True
    for lo in range(0, ncells, _CHUNK):
        key, kid = keys[lo : min(lo + _CHUNK, ncells)], kids[:, lo : lo + _CHUNK]
        if key.min() < 0:
            raise SolverInvariantError(f"the sweep wrote no cone into cell {lo + int(key.argmin())}")
        x, k = np.divmod(key, n + 1)
        want = np.take(want_of, np.where(k > 0, x + n, x), axis=1)
        np.add(want[1:], k, out=want[1:], where=want[1:] >= 0)
        bad = np.take(keys, kid) != want
        if bad.any():
            j, c = divmod(int(bad.argmax()), len(key))
            raise SolverInvariantError(f"cell {lo + c} (key {key[c]}) has a wrong child {j}")
        reached[kid] = True
    if not reached[:-1].all():
        raise SolverInvariantError(f"cell {int(reached.argmin())} is no cell's child")


def _sweep(
    poly: Polygon, table: BridgeTable, f: TriangleWeightFn
) -> tuple[int, int, np.ndarray, np.ndarray, Callable[[], tuple[int, np.ndarray]]] | tuple[int, int] | None:
    """The search's visited cones, valued level by level in numpy, and their walk.

    Returns (visited_cones, memo_hits, keys, values, walk): the loop's
    counts (_search), each visited cone's packed key and value (one cell
    each), and walk(), which returns the optimum and one optimal edge set as
    sorted (a, b) rows, a < b. Having valued nothing, it returns None when
    _layout counts fewer than SWEEP_MIN_WIDTH cells per nest level, and
    (visited_cones, memo_hits) alone when the census is below ROWS_FACTOR
    times the cells.

    The cones fall into two nodes per bridge x: A(x), its apexless cone, and
    Z(x), its row of apexed cones (_cone_shape). _layout lays the visited
    cells out by node height and links them, with no search and no sort;
    _check_layout proves them the cone graph. The values go bottom-up, a few
    whole-level expressions per level, in core.vector_arithmetic's dtype: int64
    while the largest value so far proves the next level's sums fit, then
    object, as in yao_solver; without a ``vec``, fn in object dtype. Each
    cell keeps whether branch 1 won (it wins ties) and, in rows 1 and 2 of
    the kid table, that branch's children, so the walk steps down from the
    root's cells one generation at a time, with no lookup.
    """
    n, w, n1 = poly.n, poly.weights, poly.n + 1
    U, V, LC, RC, R = table.arrays
    bridge = U >= 0

    # A(x) in _cone_shape's (p, ab, one) form, with m = ab
    rows = np.arange(n)
    lu = R[U] < R[V]
    leaf = (V - U) % n == 2
    one = np.where(lu, LC < 0, RC < 0) & ~leaf & bridge
    P = np.where(lu, U, V)
    M = np.where(one, np.where(lu, RC, LC), rows)
    A, B = U[M], V[M]

    # the nodes A(x) = x and Z(x) = n + x: their children and packed keys
    child = np.full((2 * n, 3), -1, np.int64)
    ch_key = np.zeros((2 * n, 3), np.int64)
    zrows = n + rows
    child[rows, 0] = np.where(one, M, -1)
    ch_key[rows, 0] = M * n1
    for j, (c, ends_at_p) in enumerate(((LC[M], P == A), (RC[M], P == B)), 1):
        apexed = ~ends_at_p & (c >= 0)
        child[rows, j] = np.where(leaf | ~(ends_at_p | apexed), -1, np.where(apexed, n + c, c))
        ch_key[rows, j] = c * n1 + np.where(apexed, P + 1, 0)
    child[zrows, 0] = rows
    ch_key[zrows, 0] = rows * n1
    for j, c in enumerate((LC, RC), 1):
        child[zrows, j] = np.where(c >= 0, n + c, -1)
        ch_key[zrows, j] = c * n1
    child[~np.concatenate((bridge, bridge))] = -1  # the two lightest name no bridge
    root_edges, root, base = _root(table, f)
    roots = np.array(root, np.int64)
    m0 = poly.rank[0]
    first, last = (U - m0) % n + 1, np.where(V == m0, n, (V - m0) % n)  # the nest of x's bridge
    laid = _layout(first, last, m0, child, ch_key, roots, table.total_cones())
    if laid is None or len(laid) == 2:
        return laid
    spans, kids, keys, root_cells = laid
    _check_layout(child, ch_key, kids, keys, root_cells)
    keys, ncells = keys[:-1], len(keys) - 1
    pushes = len(roots) + int(np.count_nonzero(kids >= 0))

    # per-bridge weights and constants: A(x)'s triangle and base children
    fvec, dtype, tmax = vector_arithmetic(poly, f, f.vec is not None)
    W = np.array(w, dtype)
    WU, WV = W[U], W[V]
    C1 = np.where(one, fvec(W[A], W[B], W[P]), 0)
    C2 = np.where(leaf, fvec(WU, W, WV), 0)
    for j, (x, y) in enumerate(((A, M), (M, B)), 1):
        C2 = C2 + np.where(~leaf & (child[rows, j] < 0), fvec(W[x], W[y], W[P]), 0)
    # Z(x)'s children (u, x) and (x, v) that are single triangles
    ZL = (LC < 0).astype(np.int64)
    ZR = (RC < 0).astype(np.int64)

    def consts(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cells' apexed mask and their branches' triangles: branch 1's, branch 2's base ones."""
        wu, wv, ws, wz = WU[x], WV[x], W[x], W[k - 1]  # apexless (k = 0): masked by z
        z = k > 0
        c1 = np.where(z, fvec(wu, wv, wz), C1[x])
        c2 = np.where(z, fvec(wu, ws, wz) * ZL[x] + fvec(ws, wv, wz) * ZR[x], C2[x])
        return z, c1, c2

    # pass 2, up by height; won: branch 1 gave the cell's value (it wins ties)
    value = np.zeros(ncells + 1, dtype=W.dtype)  # the last cell, 0, stands for an absent child
    won = np.zeros(ncells, bool)
    peak = 0
    for lo, hi in spans:
        if lo == hi:
            continue
        if tmax is not None and 2 * (peak + tmax) >= INT64_LIMIT:
            value, WU, WV, W, C1, C2 = (a.astype(object) for a in (value, WU, WV, W, C1, C2))
            tmax = None
        x, k = np.divmod(keys[lo:hi], n1)
        kid = kids[:, lo:hi]
        z, c1, c2 = consts(x, k)
        val = value[kid[1]] + value[kid[2]] + c2
        alt = value[kid[0]] + c1
        b1 = won[lo:hi] = (z | one[x]) & (alt <= val)
        val = value[lo:hi] = np.where(b1, alt, val)
        # from here on, rows 1 and 2 name the children of the branch that won
        kid[1] = np.where(b1, kid[0], kid[1])
        kid[2, b1] = -1
        if tmax is not None:
            peak = max(peak, int(val.max()))

    def walk() -> tuple[int, np.ndarray]:
        """The root's value and one optimal edge set, stepped one generation of cells at a time.

        The edges come as sorted (a, b) rows, a < b. Each cell leads to the children of its winning branch. One where
        branch 1 won adds the edge (a, b) = (U[m], V[m]), any other the
        edge (p, m), but an apexless cone of one triangle adds nothing; m is
        the cell's x if apexed, else M[x]. The walked cells' winning
        branches are then valued again, in one pass: a branch that does not
        give its cell's stored value, or a walk that does not yield n - 3
        distinct edges, raises SolverInvariantError.
        """
        walked = []
        front = root_cells
        while len(front):
            walked.append(front)
            front = kids[1:, front]
            front = front[front >= 0]
        cells = np.sort(np.concatenate([root_cells[:0], *walked]))  # in memory order: local reads
        x, k = np.divmod(keys[cells], n1)
        z, c1, c2 = consts(x, k)
        b1, kid, val = won[cells], kids[1:, cells], value[cells]
        bad = np.flatnonzero(val != value[kid[0]] + value[kid[1]] + np.where(b1, c1, c2))
        if len(bad):
            c = bad[0]
            raise SolverInvariantError(
                f"no branch of cone ({U[x[c]]}, {V[x[c]]}, apex {k[c] - 1 if z[c] else None}) "
                f"reproduces its solved value {val[c]}"
            )
        m = np.where(z, x, M[x])
        lo = np.where(b1, U[m], np.where(z, k - 1, P[x]))
        hi = np.where(b1, V[m], m)
        keep = b1 | z | ~leaf[x]
        lo, hi = lo[keep], hi[keep]
        e = np.array([a * n + b for a, b in root_edges], np.int64)  # each edge as a * n + b
        e = np.sort(np.concatenate((e, np.minimum(lo, hi) * n + np.maximum(lo, hi))))
        distinct = len(e) - np.count_nonzero(e[1:] == e[:-1])
        if len(e) != n - 3 or distinct != len(e):
            raise SolverInvariantError(f"the walk produced {distinct} distinct edges, wanted {n - 3}")
        return sum(value[root_cells].tolist()) + base, np.stack(np.divmod(e, n), axis=1)

    return ncells, pushes - ncells, keys, value[:-1], walk


def _search(
    poly: Polygon, table: BridgeTable, f: TriangleWeightFn, memo: dict[int, int] | list[int | None]
) -> tuple[int, int]:
    """The search as a loop over a work stack; returns (visited, hits).

    Fills ``memo`` (a dict, or a list of n * (n + 1) Nones, read alike: None
    for a cone not stored yet) by packed key x*(n + 1) + k (x the bridge's S
    node, k = apex + 1 or 0). Each cone is expanded in its (p, ab, one)
    shape: an apexed cone's is written out, an apexless one's comes from
    _cone_shape (each is visited at most once, so that is at most one call
    per bridge).
    """
    n, w = poly.n, poly.weights
    n1 = n + 1
    left, right, lc, rc = table.left, table.right, table.lc, table.rc
    fw = f.fn
    lookup = memo.get if type(memo) is dict else memo.__getitem__
    visited = hits = 0

    work: list = _root(table, f)[1]  # the root's non-base cones; base ones are valued by the walk

    # Work stack: an int is a cone key to expand; a tuple is a combine
    # record (key, const2, child2A, child2B[, const1, child1]) for branch 2
    # and, when present, branch 1, with -1 for an absent branch-2 child.
    # Base-case apexed children fold into the constants; apexless children
    # span at least two sides, so they are always pushed.
    while work:
        item = work.pop()
        if type(item) is int:
            key = item
            if lookup(key) is not None:
                hits += 1
                continue
            visited += 1
            x, k = divmod(key, n1)
            if k:
                p, m, one = k - 1, x, True
            elif (right[x] - left[x]) % n == 2:
                # one interior node: a single triangle, no expansion
                memo[key] = fw(w[left[x]], w[x], w[right[x]])
                continue
            else:
                p, m, one = _cone_shape(table, x, 0)
            a, b = left[m], right[m]
            c2 = 0
            ch2a = ch2b = -1
            c = lc[m]
            if p == a:
                ch2a = c * n1
            elif c < 0:
                c2 = fw(w[a], w[m], w[p])
            else:
                ch2a = c * n1 + p + 1
            c = rc[m]
            if p == b:
                ch2b = c * n1
            elif c < 0:
                c2 += fw(w[m], w[b], w[p])
            else:
                ch2b = c * n1 + p + 1
            if one:
                ch1 = m * n1
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
                val += lookup(a)
            a = item[3]
            if a >= 0:
                val += lookup(a)
            if len(item) == 6:
                alt = item[4] + lookup(item[5])
                if alt < val:
                    val = alt
            key = item[0]
            if lookup(key) is not None:
                raise SolverInvariantError(f"memo cell {key} written twice")
            memo[key] = val

    return visited, hits


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

    backend selects the memo: "hash" is a dict, "dense" a list indexed by
    packed key, which refuses n > DENSE_CAP. Three engines agree in value,
    edges, visited_cones and memo_hits; stats.engine names the one that
    ran. A hash solve of n >= SWEEP_MIN_N nodes takes the numpy sweep (exact
    past int64 like yao_solver's engines; ``vec`` picks only its dtype) when
    its layout counts at least SWEEP_MIN_WIDTH cells per nest level, the
    deepest nesting of its bridges: the sweep's cost grows with the levels,
    the loop's with the cones. If the census is below ROWS_FACTOR times
    those cells, yao_solver's rows value every cone instead, in the same
    dtype, with one numpy expression per bridge and, in int64, 8 bytes per
    cone (the sweep holds about 28 per cell); the witness is walked over
    them by key. Every other solve takes the loop.
    """
    t0 = time.perf_counter_ns()
    if backend not in ("hash", "dense"):
        raise ValueError(f"unknown memo backend {backend!r}")
    f.ensure_monotonic()
    check_accumulator_bound(poly, f)
    n = poly.n
    table = find_bridges_linear(poly)
    total = table.total_cones()
    swept = _sweep(poly, table, f) if backend == "hash" and n >= SWEEP_MIN_N else None
    if swept is not None and len(swept) == 5:
        engine = "sweep"
        visited, hits, _, _, walk = swept
        opt, rows = walk()
        edges = zip(*rows.T.tolist())  # Triangulation makes the one frozenset
        del swept, walk  # the cells go before the Triangulation is built
    elif swept is not None:  # the loop's counts alone: near the census, Yao's rows value every cone
        from .yao_solver import _sweep as yao_rows  # yao_solver imports this module

        engine = "rows"
        visited, hits = swept
        get = yao_rows(poly, table, f, "scalar" if f.vec is None else "vector")
        opt, edges = reconstruct_triangulation(poly, table, f, get)
    else:
        engine = "loop"
        if backend == "hash":
            memo = {}
            get = memo.__getitem__
        elif n > DENSE_CAP:
            raise ValueError(f"dense memo refused for n={n} > {DENSE_CAP}; use the hash backend")
        else:
            memo = [None] * (n * (n + 1))

            def get(key: int) -> int:
                if (val := memo[key]) is None:
                    raise KeyError(f"memo cell {key} is empty")
                return val

        visited, hits = _search(poly, table, f, memo)
        opt, edges = reconstruct_triangulation(poly, table, f, get)
    stats = SolveStats(visited, hits, total, time.perf_counter_ns() - t0, backend, engine)
    return opt, Triangulation(edges, opt), stats
