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
stated once in ``_cone_shape``. ``solve_bst`` runs that shape in one of two
engines. The loop goes over a flattened work stack of packed keys and
memoizes in a dict (backend "hash") or a flat list indexed by the key
(backend "dense"); it takes each apexless cone's shape from _cone_shape. The
sweep lists the same visited cones level by level in numpy and values them
bottom-up, since which cones the search visits depends on the polygon alone.
The sweep pays a few numpy calls per level of the cone graph, so hash solves
take it only from ``SWEEP_MIN_N`` nodes on, when the weight function has a
``vec`` and the sweep expects at least ``SWEEP_MIN_WIDTH`` cones per level
(``_width`` estimates that from the bridge nesting before any level is run);
the loop runs everything else, including sorted or tie-heavy polygons, whose
cone graph is n levels deep with a few cones on each.
``reconstruct_triangulation`` evaluates the root and walks one winning edge
set over the solved values by packed key, for the loop and for yao_solver;
it calls ``_cone_shape``, as does yao_solver's vector sweep. The sweep walks
its own cells instead: it keeps each cell's winning branch and children
while valuing them, and steps down from the root one generation of cells
at a time in numpy, then values every walked cell's branch again in one
pass. "Lighter" is always the polygon's one total order, read as
``rank_of[a] < rank_of[b]``. A stored value that no branch reproduces raises
SolverInvariantError. The tests cross-check the packed forms against the
public rules: cone values against a recursion over ``expand_cone``,
witnesses against a re-expansion of winning cones, the sweep against the
loop cone by cone, and the sweep's walk against this one over its values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    int64_watch_bound,
    norm_edge,
)

DENSE_CAP = 2000  # the largest n the dense memo accepts: its list holds n * (n + 1) cells
SWEEP_MIN_N = 800  # from here on, hash solves with a vec may take the sweep (measured crossover)
SWEEP_MIN_WIDTH = 200  # the cones per level from which the sweep beats the loop (measured)

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
    its engine), engine the search that ran: "loop" or "sweep" for this
    solver, "scalar" or "vector" for yao_solver.
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


def _root_cones(table: BridgeTable) -> tuple[tuple[Edge, ...], list[tuple[int, int, int, int]]]:
    """The root's forced edges and its cones as (x, k, u, v).

    Each is the cone of bridge (u, v), x = S(u, v) or -1 when u and v are
    adjacent, with apex k - 1 (k = 0: none). With the two lightest nodes
    adjacent, the whole polygon is the apexless cone of the bridge between
    them, so the root takes part in the memo; otherwise the root is
    expand_root's single, forced, branch.
    """
    poly = table.poly
    n = poly.n
    v1, v2 = poly.rank[0], poly.rank[1]
    if (v2 - v1) % n == 1:
        return (), [(table.rc[v2], 0, v2, v1)]
    if (v1 - v2) % n == 1:
        return (), [(table.lc[v2], 0, v1, v2)]
    (br,) = expand_root(poly)
    out = []
    for c in br.children:
        x = table.s_node(c.u, c.v) if (c.v - c.u) % n > 1 else -1
        out.append((x, 0 if c.apex is None else c.apex + 1, c.u, c.v))
    return br.edges, out


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
    (_root_cones). Returns (optimal weight, edges).

    Each cone is expanded in its (p, ab, one) shape (_cone_shape). Branch 1
    is taken when it reproduces the solved value, so it wins ties as in the
    search; otherwise branch 2 must, or SolverInvariantError is raised, as
    it is when the walk does not yield n - 3 edges.
    """
    n, w, fw = poly.n, poly.weights, f.fn
    left, right, lc, rc = table.left, table.right, table.lc, table.rc
    n1 = n + 1

    def cone(x: int, k: int, a: int, b: int) -> tuple[int, int]:
        """(key, value) of cone (a, b), S node x (-1: one side), apex k - 1; key -1: base."""
        if x < 0:
            return -1, fw(w[a], w[b], w[k - 1]) if k else 0
        if not k and (b - a) % n == 2:
            return -1, fw(w[a], w[x], w[b])
        key = x * n1 + k
        return key, get(key)

    root_edges, roots = _root_cones(table)
    edges: list[Edge] = list(root_edges)
    stack: list[int] = []  # non-base cones to walk, as key, value pairs
    opt = 0
    for x, k, u, v in roots:
        key, val = cone(x, k, u, v)
        opt += val
        if key >= 0:
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


def _levels(child: np.ndarray) -> np.ndarray:
    """Height of each node of a DAG given as an (N, 3) child table, -1 for none.

    The height is the longest path down to a node without children; peeled
    off in layers from the leaves, each step decrementing the parents'
    count of children left.
    """
    nodes = len(child)
    has = child >= 0
    par = np.repeat(np.arange(nodes), 3)[has.ravel()]
    chi = child[has]
    left = np.bincount(par, minlength=nodes)
    by_child = par[np.argsort(chi)]
    start = np.concatenate(([0], np.cumsum(np.bincount(chi, minlength=nodes))))
    height = np.zeros(nodes, np.int64)
    mark = np.empty(nodes, np.int64)
    front = np.flatnonzero(left == 0)
    level = 0
    while True:
        height[front] = level
        lo, lens = start[front], start[front + 1] - start[front]
        total = int(lens.sum())
        if not total:
            return height
        up = by_child[np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(total)]
        np.subtract.at(left, up, 1)
        up = up[left[up] == 0]
        # a parent of several front nodes is listed once per edge: keep one
        seq = np.arange(len(up))
        mark[up] = seq
        front = up[mark[up] == seq]
        level += 1


def _visit(
    child: np.ndarray, ch_key: np.ndarray, roots: np.ndarray, n1: int, room: int
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Pass 1 of the sweep, down by height: the cells each node holds.

    child[node, j] is the node of child j (-1: none), ch_key[node, j] its
    packed key, less the apex where the child inherits it (j = 1, 2 of a
    row node); roots are the packed keys of the root's non-base cones;
    room bounds the cells (_width's count). Cells are numbered level by
    level from the top, in key order within a level. Returns the run of
    cells each level holds, the (3, cells) int32 table of the cell of each
    cell's child j (-1: none; of a Z node's run, only the first cell names
    its child 0), every cell's key, the cell of each apexless node A(x),
    the roots' cells, and the number of pushes.
    """
    nodes = len(child)
    nb = nodes // 2
    height = _levels(child)
    top = int(height.max())
    # levels as uint16 where they fit, so the stable sorts below are radix sorts
    ltype = np.uint16 if top < 2**16 - 1 else np.int64
    none = np.iinfo(ltype).max
    ch_level = np.where(child >= 0, height[child], none).astype(ltype).T.copy()
    ch_key = ch_key.T.copy()
    # requests per level: keys, and where each one's cell goes
    pending: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = [[] for _ in range(top + 1)]
    root_cells = np.zeros(len(roots), np.int64)
    for j, node in enumerate(roots // n1 + nb * (roots % n1 > 0)):
        pending[height[node]].append((roots[j : j + 1], np.array([j]), root_cells))
    spans = [(0, 0)] * (top + 1)
    # one table for all levels, so no level's children are ever stored twice
    kids = np.empty((3, room), np.int32)
    flat = kids.reshape(-1)  # child j of cell i at j * room + i
    cells: list[np.ndarray] = []
    a_cell = np.full(nb, -1, np.int64)
    ncells = 0
    pushes = len(roots)
    for level in range(top, -1, -1):
        todo = pending[level]
        pending[level] = []
        if not todo:
            spans[level] = (ncells, ncells)
            continue
        keys = np.concatenate([req[0] for req in todo])
        o = keys.argsort(kind="stable")
        keys = keys[o]
        new = np.empty(len(keys), bool)
        new[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        uq = keys[new]
        cnt = len(uq)
        base, ncells = ncells, ncells + cnt
        if ncells > room:
            raise SolverInvariantError(f"the sweep holds more than the {room} cones _width bounds")
        kids[:, base:ncells] = -1
        spans[level] = (base, ncells)
        cells.append(uq)
        at = np.empty(len(keys), np.int64)
        at[o] = np.cumsum(new) + (base - 1)
        i = 0
        for _, slot, dst in todo:
            dst[slot] = at[i : i + len(slot)]
            i += len(slot)
        b, k = np.divmod(uq, n1)
        row = np.where(k > 0, b + nb, b)
        apexless = np.flatnonzero(k == 0)
        a_cell[b[apexless]] = base + apexless
        lev = np.concatenate([np.take(col, row) for col in ch_level])
        # every cell of Z(B) pushes A(B); its first cell's push alone requests it
        again = b[1:] == b[:-1]
        lev[1:cnt][again] = none
        slots = lev.argsort(kind="stable")[: 3 * cnt - np.count_nonzero(lev == none)]
        pushes += len(slots) + int(again.sum())
        lev = lev[slots]
        out_keys = np.concatenate(
            (np.take(ch_key[0], row), np.take(ch_key[1], row) + k, np.take(ch_key[2], row) + k)
        )[slots]
        slots = (slots // cnt) * room + base + slots % cnt
        cuts = [0, *(np.flatnonzero(lev[1:] != lev[:-1]) + 1).tolist(), len(lev)]
        for lo, hi in zip(cuts, cuts[1:]):
            if lo < hi:
                pending[lev[lo]].append((out_keys[lo:hi], slots[lo:hi], flat))
    return spans, kids[:, :ncells], np.concatenate([roots[:0], *cells]), a_cell, root_cells, pushes


def _width(
    table: BridgeTable, child: np.ndarray, ch_key: np.ndarray, roots: np.ndarray
) -> tuple[int, float]:
    """The cones the sweep can hold and the cones per level it can expect, from _sweep's tables.

    Cut open at the lightest node, the bridges' arcs nest, and the rows
    below Z(x) are those of the bridges nested in x's: one per S node inside
    its arc, at positions first[x] .. last[x] - 1 from the lightest node. An
    apex that an A node, or the root, sends into Z(y) reaches every row of
    y's nest once, so the apexed cones are the nest sizes of the sends not
    nested in a send of the same apex; counting every A node as visited,
    that bounds the cones the sweep holds. The levels number about the
    depth of the nesting.
    """
    poly = table.poly
    n, m0 = poly.n, poly.rank[0]
    U, V = np.array(table.left, np.int64), np.array(table.right, np.int64)
    bridge = U >= 0
    first = (U - m0) % n + 1
    last = np.where(V == m0, n, (V - m0) % n)
    depth = np.cumsum(
        np.bincount(first[bridge], minlength=n + 1) - np.bincount(last[bridge], minlength=n + 1)
    )
    sent = child[:n, 1:] >= n
    keys = np.concatenate((ch_key[:n, 1:][sent], roots[roots % (n + 1) > 0]))
    x, apex = np.divmod(keys, n + 1)
    lo, hi = first[x], last[x]
    o = np.lexsort((-hi, lo, apex))
    lo, hi, apex = lo[o], hi[o], apex[o]
    # a send is nested in an earlier send of its apex when that one's nest reaches past it
    reach = np.maximum.accumulate(np.concatenate(([-1], (apex * (n + 1) + hi)[:-1])))
    top = reach <= apex * (n + 1) + lo
    cones = len(table) + int((hi - lo)[top].sum())
    return cones, cones / int(depth.max())


def _sweep(
    poly: Polygon, table: BridgeTable, f: TriangleWeightFn
) -> tuple[int, int, np.ndarray, np.ndarray, Callable[[], tuple[int, np.ndarray]]] | None:
    """The search's visited cones, valued level by level in numpy, and their walk.

    Returns (visited_cones, memo_hits, keys, values, walk): the counts as
    the loop (_search) would give them, each visited cone's packed key and
    value (one cell each), and walk(), which returns the optimum and one
    optimal edge set read off the cells, as sorted (a, b) rows, a < b; or None, having valued nothing,
    when _width expects fewer than SWEEP_MIN_WIDTH cones per level, too few
    to pay for the levels' numpy calls (sorted or tie-heavy weights nest n
    deep with a few cones each).

    Every cone expansion is _cone_shape's, so the cones fall into two nodes
    per bridge x (named by its S node): A(x), its apexless cone, and Z(x),
    its row of apexed cones. Z(x) expands into A(x), Z(lc[x]) and Z(rc[x])
    with the same apex; A(x) into the apexless cone of bridge ab when
    ``one`` is set, and into ab's children lc[ab] and rc[ab]. The search
    never prunes, so which cones it visits depends on the polygon alone:
    _visit lists them top-down by node height as packed keys x * (n + 1) + k,
    k = apex + 1 or 0, one sort per level. The values then go bottom-up,
    a few whole-level expressions per level. They are int64 while the
    largest value so far proves the next level's sums fit, and object (exact
    ints) from the first level where they may not, as in yao_solver. Each
    cell keeps whether branch 1 won (it wins ties, as in
    reconstruct_triangulation) and, in rows 1 and 2 of the kid table, the
    cells of that branch's children, so the walk goes down from the
    root's cells one generation at a time, in numpy, with no lookup by key.
    """
    n, w, n1 = poly.n, poly.weights, poly.n + 1
    fvec = f.vec
    U, V, LC, RC = (np.array(a, np.int64) for a in (table.left, table.right, table.lc, table.rc))
    bridge = U >= 0
    R = np.array(poly.rank_of, np.int64)

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
    root = [x * n1 + k for x, k, u, v in _root_cones(table)[1] if x >= 0 and (k or (v - u) % n > 2)]
    roots = np.array(root, np.int64)
    cones, width = _width(table, child, ch_key, roots)
    if width < SWEEP_MIN_WIDTH:
        return None
    spans, kids, keys, a_cell, root_cells, pushes = _visit(child, ch_key, roots, n1, cones)
    ncells = len(keys)

    # per-bridge weights and constants: A(x)'s triangle and base children
    tmax = int64_watch_bound(poly, f)
    obj = tmax is not None and 2 * tmax >= INT64_LIMIT
    if obj:
        tmax = None  # object from the start: nothing left to watch
    W = np.array(w, dtype=object if obj else np.int64)
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
        kid0 = np.where(z, a_cell[x], kid[0])  # every cell of Z(x) reads A(x)
        val = value[kid[1]] + value[kid[2]] + c2
        alt = value[kid0] + c1
        b1 = won[lo:hi] = (z | one[x]) & (alt <= val)
        val = value[lo:hi] = np.where(b1, alt, val)
        # from here on, rows 1 and 2 name the children of the branch that won
        kid[1] = np.where(b1, kid0, kid[1])
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
        root_edges, root_cones = _root_cones(table)
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
        opt = sum(value[root_cells].tolist())
        for _, apex, u, v in root_cones:
            cone = Cone(u, v, apex - 1 if apex else None)
            if is_base_cone(poly, cone):
                opt += cone_value_base(poly, cone, f)
        return opt, np.stack(np.divmod(e, n), axis=1)

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

    # the root's non-base cones; base ones are valued by the walk
    work: list = [
        x * n1 + k for x, k, u, v in _root_cones(table)[1] if x >= 0 and (k or (v - u) % n > 2)
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
    packed key, which refuses n > DENSE_CAP. Two engines run the search and
    agree in value, edges, visited_cones and memo_hits; stats.engine names the one that
    ran. A hash solve of n >= SWEEP_MIN_N nodes whose weight function has a
    ``vec`` takes the numpy sweep (exact past int64 like yao_solver's vector
    engine) when it expects at least SWEEP_MIN_WIDTH cones per level of its
    cone graph: the sweep's cost grows with the levels, the loop's with the
    cones. Every other solve takes the loop.
    """
    t0 = time.perf_counter_ns()
    if backend not in ("hash", "dense"):
        raise ValueError(f"unknown memo backend {backend!r}")
    f.ensure_monotonic()
    check_accumulator_bound(poly, f)
    n = poly.n
    table = find_bridges_linear(poly)
    total = table.total_cones()
    swept = None
    if backend == "hash" and f.vec is not None and n >= SWEEP_MIN_N:
        swept = _sweep(poly, table, f)
    if swept is not None:
        engine = "sweep"
        visited, hits, _, _, walk = swept
        opt, rows = walk()
        edges = zip(*rows.T.tolist())  # Triangulation makes the one frozenset
        del swept, walk  # the cells go before the Triangulation is built
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
