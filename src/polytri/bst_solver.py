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
the rules. The scalar engines read every cone expansion as one record,
stated once in ``_branches``. ``solve_bst`` runs the rules in one of three
engines (its docstring says which solve takes which): the loop, over a
flattened work stack of packed keys memoized in a dict (backend "hash") or
a flat list indexed by the key (backend "dense"); the sweep, which lays the
visited cones out per node in numpy, in closed form from the bridge nesting
(which cones the search visits depends on the polygon alone), and values
them a few numpy calls per level, the record in array form; or yao_solver's
rows, which value every cone. ``reconstruct_triangulation`` walks one
winning edge set over solved values by packed key, for the loop, the rows
and yao_solver; the sweep walks its own cells. "Lighter" is always
``rank_of[a] < rank_of[b]``. A stored value that no branch reproduces
raises SolverInvariantError. The tests cross-check the records against the
public rules cone by cone, and the sweep and the rows against the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

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
_CHUNK = 2**17  # cells per chunk of the sweep's passes and its check, to bound their temporaries

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
    v1, v2, v3, v4 = poly.arrays[1, :4].tolist()
    adj2 = poly.adjacent(v1, v2)
    adj3 = poly.adjacent(v1, v3)
    if adj2 and adj3:
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


def _root(
    poly: Polygon, lc: Sequence[int], rc: Sequence[int], f: TriangleWeightFn
) -> tuple[tuple[Edge, ...], list, int]:
    """The root's forced edges, the packed keys of its non-base cones and the value of its base ones.

    lc and rc are the bridge table's (lists, or the rows of its arrays).
    With the two lightest nodes adjacent, the whole polygon is the apexless
    cone of the bridge between them, so the root takes part in the memo;
    otherwise the root is expand_root's single, forced, branch.
    """
    n, w, fw = poly.n, poly.weights, f.fn
    v1, v2, *_ = lightest = poly.arrays[1, :3].tolist()  # the ends of expand_root's children
    if (v2 - v1) % n == 1:
        edges, cones = (), [(rc[v2], 0, v2, v1)]
    elif (v1 - v2) % n == 1:
        edges, cones = (), [(lc[v2], 0, v1, v2)]
    else:
        (br,) = expand_root(poly)
        edges, cones = br.edges, []
        for c in br.children:
            x = (lc[c.v] if lightest.index(c.u) < lightest.index(c.v) else rc[c.u]) if (c.v - c.u) % n > 1 else -1
            cones.append((x, 0 if c.apex is None else c.apex + 1, c.u, c.v))
    keys, base = [], 0
    for x, k, a, b in cones:  # cone (a, b), S node x (-1: a single side), apex k - 1 (k = 0: none)
        if x < 0:
            base += fw(w[a], w[b], w[k - 1]) if k else 0
        elif not k and (b - a) % n == 2:
            base += fw(w[a], w[x], w[b])
        else:
            keys.append(x * (n + 1) + k)
    return edges, keys, base


def _branches(poly: Polygon, table: BridgeTable, f: TriangleWeightFn) -> Callable[[int, int], tuple]:
    """branch(x, k): the expansion of the cone of bridge x (its S node) with apex k - 1 (k = 0: none).

    An apexless cone of one triangle gives (value,); any other the record
    (p, m, c2, ch2a, ch2b, c1, ch1). p is the apex, or the lighter endpoint
    of an apexless cone, and m = S(a, b) for the bridge (a, b) left after
    p's forced side. Branch 2 is the edge (p, m): c2 sums its children that
    are single apexed triangles, ch2a and ch2b are the packed keys of its
    others, (a, m) and (m, b) (negative: none). Branch 1 is the triangle
    (a, b, p), weight c1, plus the apexless cone (a, b), key ch1; ch1 < 0:
    no branch 1, the edge (p, m) is forced. The table is read once, when made.
    """
    n, w, fw, n1 = poly.n, poly.weights, f.fn, poly.n + 1
    left, right, lc, rc, rank_of = table.left, table.right, table.lc, table.rc, poly.rank_of

    def branch(x: int, k: int) -> tuple:
        if k:
            p, m, one = k - 1, x, True
        else:
            u, v = left[x], right[x]
            if (v - u) % n == 2:
                return (fw(w[u], w[x], w[v]),)
            # x next to the lighter end p: two branches, (a, b) the rest; otherwise the edge (p, x) is forced
            if rank_of[u] < rank_of[v]:
                p, m, one = (u, rc[x], True) if lc[x] < 0 else (u, x, False)
            else:
                p, m, one = (v, lc[x], True) if rc[x] < 0 else (v, x, False)
        a, b = left[m], right[m]
        c2, ch2a, ch2b = 0, -1, -1
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
            return p, m, c2, ch2a, ch2b, fw(w[a], w[b], w[p]), m * n1
        return p, m, c2, ch2a, ch2b, 0, -1

    return branch


def reconstruct_triangulation(
    poly: Polygon, table: BridgeTable, f: TriangleWeightFn, get: Callable[[int], int]
) -> tuple[int, frozenset[Edge]]:
    """Evaluate the root and walk one optimal edge set over solved cone values.

    The loop engine and yao_solver walk this way; the sweep walks its own
    cells (_sweep). get(key) returns the solved value of the cone with
    packed key x*(n + 1) + k: the cone of the bridge whose S node is x,
    with apex k - 1 (k = 0: none), for every key the root (_root) or a
    branch record (_branches) names. Returns (optimal weight, edges).

    Branch 1 is taken when it reproduces the solved value, so it wins ties
    as in the search; otherwise branch 2 must, and an apexless cone of one
    triangle must hold its weight, or SolverInvariantError is raised, as it
    is when the walk does not yield n - 3 edges.
    """
    n, n1, left, right = poly.n, poly.n + 1, table.left, table.right
    branch = _branches(poly, table, f)
    root_edges, keys, opt = _root(poly, table.lc, table.rc, f)
    edges: list[Edge] = list(root_edges)
    stack: list[int] = []  # cones to walk, as key, value pairs
    for key in keys:
        val = get(key)
        opt += val
        stack += key, val
    while stack:
        val = stack.pop()
        x, k = divmod(stack.pop(), n1)
        rec = branch(x, k)
        if len(rec) > 1:
            p, m, c2, ch2a, ch2b, c1, ch1 = rec
            if ch1 >= 0 and c1 + (v1 := get(ch1)) == val:
                a, b = left[m], right[m]
                edges.append((a, b) if a < b else (b, a))
                stack += ch1, v1
                continue
            va = get(ch2a) if ch2a >= 0 else 0
            vb = get(ch2b) if ch2b >= 0 else 0
            if c2 + va + vb == val:
                edges.append((p, m) if p < m else (m, p))
                if ch2a >= 0:
                    stack += ch2a, va
                if ch2b >= 0:
                    stack += ch2b, vb
                continue
        elif rec[0] == val:
            continue
        raise SolverInvariantError(
            f"no branch of cone ({left[x]}, {right[x]}, apex {k - 1 if k else None}) "
            f"reproduces its solved value {val}"
        )
    out = frozenset(edges)
    if len(out) != n - 3:
        raise SolverInvariantError(f"reconstruction produced {len(out)} edges, wanted {n - 3}")
    return opt, out


def _held(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """How many of the runs of positions lo .. hi - 1 hold each position 0 .. n - 1."""
    return np.cumsum(np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1))[:n]


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
) -> tuple | None:
    """Pass 1 of the sweep: the visited cells, counted, then laid out per node in closed form.

    child[j, node] is child j's node (-1: none), ch_key[j, node] its key less
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
    per nest level, where the loop is faster, returns None; with a census
    below ROWS_FACTOR times the cells, where Yao's rows are cheaper, the
    loop's counts (visited, hits) alone: the cells, and the pushes (a root
    key each, and each cell's children) less the cells. Neither lays out a
    cell. Else returns (visited, hits, levels, node, start, base, keys,
    root_cells). Levels run from the deepest bridges up, A(x) a level before
    Z(x), so children lie in lower levels; node lists the nodes with cells
    in cell order, levels where each level begins in it. Node x's cells are
    start[x] .. , one per slot; base[j, x] is child j's cell at slot 0, and
    slot d's is base[j, x] + d but for a Z row's A(y). start[-1] and base
    name the cell visited for an absent child.
    """
    n, n1 = len(first), len(first) + 1
    pos = (np.arange(n) - m0) % n
    seen = _held(first[roots // n1], last[roots // n1], n)[pos] > 0
    sent = (child[1:, :n] >= n) & seen
    sends = np.concatenate((ch_key[1:, :n][sent], roots[roots % n1 > 0]))
    k, lo, hi, cover = _top_sends(first, last, sends, n1)
    bridge = child[0, n:] >= 0
    nest = _held(first[bridge], last[bridge], n)[pos]
    size = np.concatenate((seen, _held(lo, hi, n)[pos]))  # cells per node
    cells = int(size.sum())
    if cells < SWEEP_MIN_WIDTH * int(nest.max()):
        return None
    hits = len(roots) + int(np.count_nonzero(child >= 0, axis=0) @ size) - cells
    if census < ROWS_FACTOR * cells:
        return cells, hits
    o = np.lexsort((k, -hi, lo))
    depth = np.empty(len(k), np.int64)
    depth[o] = np.arange(len(k)) - np.searchsorted(np.sort(hi), lo[o], side="right")
    node = np.flatnonzero(size)
    level = 2 * (int(nest.max()) - nest).astype(np.min_scalar_type(2 * int(nest.max()) + 1))
    level = np.concatenate((level, level + 1))[node]
    node = node[np.argsort(level, kind="stable")]  # radix
    levels = np.concatenate(([0], np.cumsum(np.bincount(level)))).tolist()
    start = np.full(2 * n + 1, cells, np.int64)  # the last entry stands for an absent child
    start[node] = np.cumsum(size[node]) - size[node]
    sent_cell = start[n + sends // n1] + depth[cover]  # slot 0 of its Z row, plus its top send's depth
    keys = np.full(cells, -1, np.int64)
    keys[start[:n][seen]] = np.flatnonzero(seen) * n1
    at = (np.arange(n) + m0) % n
    for i, j, _, d in _chunks(hi - lo):
        run = hi[i:j] - lo[i:j]
        q = at[np.repeat(lo[i:j], run) + d]
        keys[start[n + q] + np.repeat(depth[i:j], run)] = q * n1 + np.repeat(k[i:j], run)
    base = start[child]
    base[1:, :n][sent] = sent_cell[: np.count_nonzero(sent)]
    root_cells = start[roots // n1]
    root_cells[roots % n1 > 0] = sent_cell[np.count_nonzero(sent) :]
    return cells, hits, levels, node, start, base, keys, root_cells


def _check_layout(
    child: np.ndarray, ch_key: np.ndarray, roots: np.ndarray, levels: list[int], node: np.ndarray, *laid: np.ndarray
) -> None:
    """Raise SolverInvariantError unless _layout's cells are the search's cone graph, as pass 2 reads it.

    Per node and per run of slots, with no table per cell: every slot is
    written once (writes number the slots, so a double write leaves a -1).
    Every child holds the key its node's shape asks for: one of one cell (an
    A node's, a Z row's A(y)) lies in its node's run and holds ch_key; a Z
    row's Z child starts at its base, is no shorter, and holds the same apex
    at each slot; a root's cell holds its key. Every cell but the roots' is
    a child: a Z row's slots up to its Z parent's length are that parent's,
    any other is a distinct cell that an A node, a Z row or a root names.
    """
    start, base, keys, root_cells = laid
    ncells, n = len(keys), child.shape[1] // 2
    if ncells and keys.min() < 0:
        raise SolverInvariantError(f"the sweep wrote no cone into cell {int(keys.argmin())}")
    ends = np.append(start[node], ncells)
    size, length = np.diff(ends), np.zeros(2 * n + 1, np.int64)  # cells per node; an absent child's one
    length[node], length[-1] = size, 1
    flips = np.flatnonzero(np.diff(node >= n)) + 1  # where A nodes turn to Z nodes or back
    if len(node) and (ends[0] or size.min() < 1 or length[:n].max() > 1 or not np.isin(flips, levels).all()):
        raise SolverInvariantError("the sweep's nodes do not tile its cells by level, one cell per A node")
    level = np.zeros(2 * n + 1, np.min_scalar_type(len(levels)))  # each node's level in pass 2, from 1; 0: no cells
    level[node] = np.repeat(np.arange(1, len(levels), dtype=level.dtype), np.diff(levels))
    if (late := (level[child] >= level[:-1]) & (level[:-1] > 0)).any():  # pass 2 would read a child not valued yet
        j, x = divmod(int(late.argmax()), 2 * n)
        raise SolverInvariantError(f"cell {start[x]}: child {j} in level {level[child[j, x]] - 1} >= {level[x] - 1}")
    lo, run = start[child], child[1:, n:] >= 0  # run: a Z row's Z children, slot by slot
    good = (lo <= base) & (base < lo + length[child])  # every child in its node's cells
    good[1:, n:] &= ~run | (base[1:, n:] == lo[1:, n:]) & (length[child[1:, n:]] >= length[n:-1])
    one = good & (child >= 0) & (length[:-1] > 0)  # any other child, one cell, holds its key
    one[1:, n:] = False
    if ncells:
        good &= ~one | (np.take(keys, base, mode="clip") == ch_key)
    good |= length[:-1] == 0  # nodes without cells are never read
    if not good.all():
        j, x = divmod(int(good.argmin()), 2 * n)
        raise SolverInvariantError(f"cell {start[x]} (key {keys[start[x]]}) has a wrong child {j}")
    y = np.nonzero(run)[1] + n  # each Z row with a Z child c: slot d of both holds the same apex
    c, r = child[1:, n:][run], length[y]
    for i, j, _, d in _chunks(r):
        p = np.repeat(start[y[i:j]], r[i:j]) + d
        bad = keys[np.repeat(start[c[i:j]], r[i:j]) + d] != keys[p] + np.repeat((c[i:j] - y[i:j]) * (n + 1), r[i:j])
        if bad.any():
            p = p[bad.argmax()]
            raise SolverInvariantError(f"cell {p} (key {keys[p]}) and its Z child's at its slot hold different apexes")
    above = np.zeros(2 * n + 1, np.int64)  # the slots of each Z row that its Z parent reaches
    above[c] = r
    cell = root_cells[(root_cells >= 0) & (root_cells < ncells)]
    t = np.concatenate((base[one], cell))  # the cells named alone, and their nodes
    x = np.concatenate((child[one], node[np.searchsorted(ends, cell, side="right") - 1]))
    hit = np.zeros(ncells + 1, bool)  # the last entry takes those at slots that a Z parent reaches
    hit[np.where(t - start[x] < above[x], ncells, t)] = True
    if (missing := ncells - int(above.sum()) - np.count_nonzero(hit[:-1])) > 0:
        raise SolverInvariantError(f"{missing} cells are no cell's child")
    x = roots // (n + 1) + (roots % (n + 1) > 0) * n
    in_run = len(root_cells) == len(roots) and ((start[x] <= root_cells) & (root_cells < start[x] + length[x])).all()
    if not (in_run and (keys[root_cells] == roots).all()):
        raise SolverInvariantError("the roots' cells do not hold the roots' cones")


def _sweep(
    poly: Polygon, table: BridgeTable, f: TriangleWeightFn
) -> tuple[int, int, np.ndarray, np.ndarray, Callable[[], tuple[int, np.ndarray]]] | tuple[int, int] | None:
    """The search's visited cones, valued level by level in numpy, and their walk.

    Returns (visited_cones, memo_hits, keys, values, walk): the loop's
    counts (_search), each visited cone's packed key and value (one cell
    each), and walk(), which returns the optimum and one optimal edge set as
    sorted (a, b) rows, a < b. Having valued nothing, it returns what
    _layout returns when that lays out no cell: None or the loop's counts.

    The cones fall into two nodes per bridge x: A(x), its apexless cone, and
    Z(x), its row of apexed cones (_branches). _layout lays the visited
    cells out per node and links each node to its children's cells;
    _check_layout proves them the cone graph. The values go up by level in
    core.vector_arithmetic's dtype: int64 while the largest value so far
    proves the next level's sums fit, then object, as in yao_solver; without
    a ``vec``, fn in object dtype. An A level is valued per node, a Z level
    in runs of whole rows, each row's constants read once for all its
    slots. Each cell keeps whether branch 1 won (it wins ties), for the
    walk down the same links.
    """
    n, n1 = poly.n, poly.n + 1
    U, V, LC, RC, R = table.arrays
    bridge = U >= 0

    # A(x)'s branch record (_branches) per bridge: p, m, and whether it has branch 1
    rows = np.arange(n)
    lu = R[U] < R[V]
    leaf = (V - U) % n == 2
    one = np.where(lu, LC < 0, RC < 0) & ~leaf & bridge
    P = np.where(lu, U, V)
    M = np.where(one, np.where(lu, RC, LC), rows)
    A, B = U[M], V[M]

    # the nodes A(x) = x and Z(x) = n + x: their children and packed keys
    child = np.full((3, 2 * n), -1, np.int64)
    child[0] = np.concatenate((np.where(one, M, -1), rows))
    for j, (c, ends_at_p, zc) in enumerate(((LC[M], P == A, LC), (RC[M], P == B, RC)), 1):
        apexed = ~ends_at_p & (c >= 0)
        child[j, :n] = np.where(leaf | ~(ends_at_p | apexed), -1, np.where(apexed, n + c, c))
        child[j, n:] = np.where(zc >= 0, n + zc, -1)
    child[:, ~np.concatenate((bridge, bridge))] = -1  # the two lightest name no bridge
    ch_key = np.where(child < n, child, child - n) * n1  # less the apex that a Z row's children inherit
    ch_key[1:, :n] += (child[1:, :n] >= n) * (P + 1)
    root_edges, root, base_sum = _root(poly, LC, RC, f)
    roots = np.array(root, np.int64)
    m0 = poly.arrays.item(1, 0)  # rank[0]
    first, last = (U - m0) % n + 1, np.where(V == m0, n, (V - m0) % n)  # the nest of x's bridge
    laid = _layout(first, last, m0, child, ch_key, roots, table.total_cones())
    if laid is None or len(laid) == 2:
        return laid
    _check_layout(child, ch_key, roots, *laid[2:])
    visited, hits, levels, node, start, base, keys, root_cells = laid
    ends = np.append(start[node], visited)
    size = np.diff(ends)

    # per-bridge weights and constants: A(x)'s triangle and base children
    fvec, dtype, tmax = vector_arithmetic(poly, f)
    W = poly.arrays[0].astype(dtype, copy=False)
    WU, WV = W[U], W[V]
    C1 = np.where(one, fvec(W[A], W[B], W[P]), 0)
    C2 = np.where(leaf, fvec(WU, W, WV), 0)
    for j, (x, y) in enumerate(((A, M), (M, B)), 1):
        C2 = C2 + np.where(~leaf & (child[j, :n] < 0), fvec(W[x], W[y], W[P]), 0)
    ZL, ZR = (LC < 0).astype(np.int64), (RC < 0).astype(np.int64)  # Z(x)'s one-triangle sides (u, x), (x, v)

    def zconsts(x: np.ndarray, wz: np.ndarray, r: np.ndarray | int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Apexed cells' branch-1 triangle and branch-2 base triangles; x their bridges, r cells each, wz their apex's weight."""
        wu, wv, ws, zl, zr = (np.repeat(c[x], r) for c in (WU, WV, W, ZL, ZR))
        return fvec(wu, wv, wz), fvec(wu, ws, wz) * zl + fvec(ws, wv, wz) * zr

    # pass 2, up by level; won: branch 1 gave the cell's value (it wins ties).
    # A Z row's cells share its bridge's weights, one-triangle sides, A value
    # and Z children's bases: each is gathered once per row and repeated over
    # its slots, and only the apex weight is gathered per cell.
    value = np.zeros(visited + int(size.max(initial=1)), dtype=W.dtype)  # zeros past the cells: absent children
    won = np.zeros(visited, bool)
    peak = 0
    for i, j in zip(levels, levels[1:]):
        if tmax is not None and 2 * (peak + tmax) >= INT64_LIMIT:
            value, WU, WV, W, C1, C2 = (a.astype(object) for a in (value, WU, WV, W, C1, C2))
            tmax = None
        for a, b, lo, d in _chunks(size[i:j]):
            a, b, lo, hi = a + i, b + i, lo + ends[i], ends[b + i]
            if node[a] < n:  # A(x): one cell each, valued per node
                x = node[a:b]
                val = value[base[1, x]] + value[base[2, x]] + C2[x]
                alt = value[base[0, x]] + C1[x]
                b1 = won[lo:hi] = one[x] & (alt <= val)
                val = value[lo:hi] = np.where(b1, alt, val)
            else:  # Z(y): whole rows of r slots; slot d's Z children are at their bases plus d
                y, r = node[a:b], size[a:b]
                alt, val = zconsts(y - n, W[keys[lo:hi] - np.repeat((y - n) * n1 + 1, r)], r)
                val = val + value[np.repeat(base[1, y], r) + d] + value[np.repeat(base[2, y], r) + d]
                alt = alt + np.repeat(value[base[0, y]], r)
                won[lo:hi] = alt <= val
                val = value[lo:hi] = np.minimum(alt, val)
            if tmax is not None:
                peak = max(peak, int(val.max()))

    def walk() -> tuple[int, np.ndarray]:
        """The root's value and one optimal edge set as sorted (a, b) rows, a < b, walked down by level.

        Each cell leads to its winning branch's children, and adds the edge
        (a, b) = (U[m], V[m]) if branch 1 won, else (p, m), but nothing as an
        apexless one-triangle cone; m is x if apexed, else M[x]. A walked
        branch that does not give its cell's value, or a walk without n - 3
        distinct edges, raises SolverInvariantError.
        """
        walked = [(root_cells[:0],) * 4]
        seen = np.zeros(len(value), bool)  # the cells walked to, and past them the absent children
        seen[root_cells] = True
        for i, j in reversed(list(zip(levels, levels[1:]))):
            cells = ends[i] + np.flatnonzero(seen[ends[i] : ends[j]])
            at = np.searchsorted(ends, cells, side="right") - 1
            x, b1, d = node[at], won[cells], cells - ends[at]
            ka, kb = np.where(b1, base[0, x], base[1, x] + d), np.where(b1, visited, base[2, x] + d)
            seen[ka] = seen[kb] = True
            walked.append((cells, x, ka, kb))
        cells, x, ka, kb = (np.concatenate(a) for a in zip(*walked))
        x, z = x % n, x >= n
        k = keys[cells] - x * n1
        b1, val = won[cells], value[cells]
        zc1, zc2 = zconsts(x, W[k - 1])  # apexless (k = 0): masked by z
        c = np.where(b1, np.where(z, zc1, C1[x]), np.where(z, zc2, C2[x]))
        bad = np.flatnonzero(val != value[ka] + value[kb] + c)
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
        return sum(value[root_cells].tolist()) + base_sum, np.stack(np.divmod(e, n), axis=1)

    return visited, hits, keys, value[:visited], walk


def _search(
    poly: Polygon, table: BridgeTable, f: TriangleWeightFn, memo: dict[int, int] | list[int | None]
) -> tuple[int, int]:
    """The search as a loop over a work stack; returns (visited, hits).

    Fills ``memo`` (a dict, or a list of n * (n + 1) Nones, read alike: None
    for a cone not stored yet) by packed key x*(n + 1) + k (x the bridge's S
    node, k = apex + 1 or 0). Each cone is expanded once, into its branch
    record (_branches).
    """
    n1 = poly.n + 1
    branch = _branches(poly, table, f)
    lookup = memo.get if type(memo) is dict else memo.__getitem__
    visited = hits = 0

    work: list = _root(poly, table.lc, table.rc, f)[1]  # the root's non-base cones; base ones are valued by the walk

    # Work stack: an int is a cone key to expand; a tuple is a branch record
    # to combine, once its children are valued, into the value of the key
    # pushed just below it. An apexless cone of one triangle has no children:
    # its record's value is stored at once.
    while work:
        item = work.pop()
        if type(item) is int:
            if lookup(item) is not None:
                hits += 1
                continue
            visited += 1
            x, k = divmod(item, n1)
            rec = branch(x, k)
            if len(rec) == 1:
                memo[item] = rec[0]
                continue
            work.append(item)
            work.append(rec)
            _, _, _, a, b, _, ch1 = rec
            if ch1 >= 0:
                work.append(ch1)
            if a >= 0:
                work.append(a)
            if b >= 0:
                work.append(b)
        else:
            _, _, val, a, b, c1, ch1 = item
            if a >= 0:
                val += lookup(a)
            if b >= 0:
                val += lookup(b)
            if ch1 >= 0:
                alt = c1 + lookup(ch1)
                if alt < val:
                    val = alt
            key = work.pop()
            if lookup(key) is not None:
                raise SolverInvariantError(f"memo cell {key} written twice")
            memo[key] = val

    return visited, hits


def solve_bst(poly: Polygon, f: TriangleWeightFn, backend: str = "hash") -> tuple[int, Triangulation, SolveStats]:
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
    cone (the sweep holds 17 per cell, its key, value and winning branch,
    past a traced peak of about 45 at 10**6 nodes); the witness is walked
    over them by key. Every other solve takes the loop. The sweep hands its
    witness to the Triangulation as sorted int64 rows and builds no edge set.
    """
    t0 = time.perf_counter_ns()
    if backend not in ("hash", "dense"):
        raise ValueError(f"unknown memo backend {backend!r}")
    n = poly.n
    if backend == "dense" and n > DENSE_CAP:
        raise ValueError(f"dense memo refused for n={n} > {DENSE_CAP}; use the hash backend")
    f.ensure_monotonic()
    check_accumulator_bound(poly, f)
    table = find_bridges_linear(poly)
    total = table.total_cones()
    swept = _sweep(poly, table, f) if backend == "hash" and n >= SWEEP_MIN_N else None
    if swept is not None and len(swept) == 5:
        engine = "sweep"
        visited, hits, _, _, walk = swept
        opt, edges = walk()
    elif swept is not None:  # the loop's counts alone: near the census, Yao's rows value every cone
        from .yao_solver import _sweep as yao_rows  # yao_solver imports this module

        engine = "rows"
        visited, hits = swept
        get = yao_rows(poly, table, f)
        opt, edges = reconstruct_triangulation(poly, table, f, get)
    else:
        engine = "loop"
        if backend == "hash":
            memo = {}
            get = memo.__getitem__
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
