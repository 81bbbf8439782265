"""Node-weighted convex polygons, triangle weight functions, and triangulations.

The polygon is purely combinatorial: node i sits between nodes (i - 1) mod n
and (i + 1) mod n in clockwise order and carries a positive integer weight.
A triangulation is a set of n - 3 pairwise non-crossing internal edges; its
weight is the sum of a triangle weight function over the n - 2 triangles the
edges create. ``validate_triangulation``, ``require_valid``,
``list_triangles`` and ``triangulation_weight`` (and the matrix-chain mapping
through ``list_triangles``) read an edge set by one of two routes. From
``PASS_MIN_N`` nodes on, a numpy pass sorts the edges and checks each
triangle by binary search; it accepts only valid triangulations. Below that
size, and for every edge set the pass does not accept, a Python sweep over
the nodes decides, and it alone words each rejection and error. A
``Triangulation`` built from a solver's int64 rows, and its ``EdgeSet``,
hand the pass those rows with no ``array("q")`` read; they pass its every
check or go the route of any other edge set.

``Polygon`` reads its weights by one numpy route at every size: an
``array("q")`` read, a stable argsort for the rank and a scatter for its
inverse. Weights that route refuses go to a Python loop, which alone words
each rejection.
"""

from __future__ import annotations

import operator
import random
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Collection, Iterable

import numpy as np

WEIGHT_MAX = 2**63 - 1  # node weights must fit a signed 64-bit integer
INT64_LIMIT = 2**63  # the least value int64 cannot hold
ACCUMULATOR_MAX = 2**127  # triangulation sums are checked against this bound
PASS_MIN_N = 24  # from here on the numpy pass reads edge sets first (measured crossover)

Edge = tuple[int, int]
Triangle = tuple[int, int, int]  # node indices i < m < j


class InvalidTriangulationError(ValueError):
    """An edge set failed triangulation validation."""


class MonotonicityError(ValueError):
    """A custom triangle weight function failed its spot check."""


class SolverInvariantError(ValueError):
    """A solver's own tables contradict each other (a bug, not bad input)."""


def norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def as_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """Python ints from Python or numpy integers; ValueError naming any other value."""
    out = []
    for i, v in enumerate(values):
        try:
            out.append(operator.index(v))
        except TypeError:
            raise ValueError(f"{what} {i} is not an integer: {v!r}") from None
    return tuple(out)


def int64_safe(poly: "Polygon", f: "TriangleWeightFn") -> bool:
    """True when every partial sum of f over any triangulation fits int64.

    A static bound with headroom: the worst case of (n - 2) triangles at the
    maximum weight stays below 2**62. Under it the vector engines run in
    int64 with no overflow bookkeeping; past it they watch the values they
    compute (``vector_arithmetic``) and continue in object dtype from the
    first step that could overflow.
    """
    wmax = max(poly.weights)
    return (poly.n - 2) * f.fn(wmax, wmax, wmax) < 2**62


def vector_arithmetic(poly: "Polygon", f: "TriangleWeightFn") -> tuple[Callable, type, int | None]:
    """The weight function, dtype and int64 watch T that a numpy engine runs with.

    dp3, Yao's sweep and the BST sweep all take them from here, so ``f.vec``
    alone picks their arithmetic. Without ``vec``: ``np.frompyfunc(fn)`` in
    object dtype, so fn's exact values stay as they are. With it, ``vec``:
    in int64 with nothing to watch (T None) when ``int64_safe`` holds; in
    object dtype from the start when 2 * T >= 2**63; else in int64, where
    T = f(wmax, wmax, wmax) bounds every triangle because f is monotone, and
    the engine turns its arrays to object dtype from the first step whose
    sums T and its stored values cannot keep below 2**63.
    """
    if f.vec is None:
        return np.frompyfunc(f.fn, 3, 1), object, None
    if int64_safe(poly, f):
        return f.vec, np.int64, None
    wmax = max(poly.weights)
    tmax = f.fn(wmax, wmax, wmax)
    if 2 * tmax >= INT64_LIMIT:
        return f.vec, object, None
    return f.vec, np.int64, tmax


def check_accumulator_bound(poly: "Polygon", f: "TriangleWeightFn") -> None:
    """Reject solves whose worst-case total could leave the 128-bit range."""
    wmax = max(poly.weights)
    if (poly.n - 2) * f.fn(wmax, wmax, wmax) >= ACCUMULATOR_MAX:
        raise OverflowError(
            "worst-case triangulation weight exceeds the 128-bit accumulator range"
        )


def _ranked(weights: Iterable) -> tuple[array, np.ndarray]:
    """The weights as array("q") and their stable argsort; ValueError naming a bad weight.

    array("q") reads each weight through operator.index, as ``as_ints``
    does, so 1.9, "4" and 2**63 are refused, never truncated, and the sort
    finds the least weight. Weights it refuses, fewer than 3 and a least
    weight below 1 go to the Python loop, which alone words each rejection.
    """
    if not isinstance(weights, (tuple, list, np.ndarray)):
        weights = tuple(weights)  # the loop may read them again
    try:
        w = array("q", weights)
        if len(w) >= 3:
            rank = np.frombuffer(w, np.int64).argsort(kind="stable")  # ties go by index
            if w[rank[0]] > 0:
                return w, rank
    except (TypeError, ValueError, OverflowError):
        pass
    ws = as_ints(weights, "weight of node")
    if len(ws) < 3:
        raise ValueError(f"polygon needs at least 3 nodes, got {len(ws)}")
    for i, x in enumerate(ws):
        if x <= 0:
            raise ValueError(f"node {i} has non-positive weight {x}")
        if x > WEIGHT_MAX:
            raise ValueError(f"node {i} weight {x} exceeds the signed 64-bit limit")
    return _ranked(ws)  # Python ints the loop accepts: the route takes them


@dataclass(frozen=True)
class Polygon:
    """Clockwise node weights plus the derived light-to-heavy node order.

    ``n`` is the node count, stored once since the solvers read it in their
    inner loops. ``rank[r]`` is the index of the r-th lightest node under
    the total order (weight, node index), and ``rank_of`` is the inverse
    permutation. ``rank`` is the one place that order is decided: ties in
    weight go by node index, which is equivalent to an infinitesimal
    perturbation and leaves optimal triangulation weights unchanged, and
    code asks "is a lighter than b" as ``rank_of[a] < rank_of[b]``.
    """

    weights: tuple[int, ...]
    n: int = field(init=False, repr=False, compare=False)
    rank: tuple[int, ...] = field(init=False, repr=False, compare=False)
    rank_of: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ws = self.weights
        w, rank = _ranked(ws)
        n = len(w)
        rank_of = np.empty_like(rank)
        rank_of[rank] = np.arange(n)
        if type(ws) is not tuple or set(map(type, ws)) != {int}:  # else share the caller's ints
            ws = tuple(w.tolist())
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rank", tuple(rank.tolist()))
        object.__setattr__(self, "rank_of", tuple(rank_of.tolist()))

    def adjacent(self, a: int, b: int) -> bool:
        d = (a - b) % self.n
        return d == 1 or d == self.n - 1

    def arc_len(self, u: int, v: int) -> int:
        """Number of clockwise steps from u to v (0 means u == v)."""
        return (v - u) % self.n


class TriangleWeightFn:
    """A symmetric, monotonic map from three node weights to a cost.

    ``kind`` is "mult", "add", or "custom". ``fn`` evaluates Python integers
    exactly; ``vec``, when present, evaluates numpy arrays elementwise and
    must be exact on int64 arrays, returning int64 (the solvers only pass
    values whose results fit int64), and on object arrays of Python ints.
    Custom functions are spot checked for monotonicity and symmetry, and
    ``vec`` against ``fn``, before any solver will accept them.
    """

    __slots__ = ("kind", "fn", "vec", "_checked")

    def __init__(
        self,
        kind: str,
        fn: Callable[[int, int, int], int],
        vec: Callable | None = None,
        checked: bool = False,
    ) -> None:
        self.kind = kind
        self.fn = fn
        self.vec = vec
        self._checked = checked

    def __call__(self, x: int, y: int, z: int) -> int:
        return self.fn(x, y, z)

    def __repr__(self) -> str:
        return f"TriangleWeightFn({self.kind!r})"

    @classmethod
    def multiplicative(cls) -> "TriangleWeightFn":
        return cls("mult", lambda x, y, z: x * y * z, vec=lambda x, y, z: x * y * z, checked=True)

    @classmethod
    def additive(cls) -> "TriangleWeightFn":
        return cls("add", lambda x, y, z: x + y + z, vec=lambda x, y, z: x + y + z, checked=True)

    @classmethod
    def product_plus_sum(cls) -> "TriangleWeightFn":
        """The built-in custom example f(x, y, z) = xyz + x + y + z."""
        return cls(
            "custom",
            lambda x, y, z: x * y * z + x + y + z,
            vec=lambda x, y, z: x * y * z + x + y + z,
        )

    @classmethod
    def custom(cls, fn: Callable[[int, int, int], int], vec: Callable | None = None) -> "TriangleWeightFn":
        return cls("custom", fn, vec=vec)

    def ensure_monotonic(self) -> None:
        """Spot check strict monotonicity and symmetry; cached per instance.

        Draws 1000 seeded random triples, bumps one coordinate, and requires a
        strict increase; also requires invariance under argument permutation.
        When ``vec`` is present it must agree with ``fn``: as int64 arrays on
        the same triples wherever fn's value fits int64 and on a few mixed
        triples at the int64 boundary (up to the largest power of two x
        with fn(x, x, x) < 2**63), and as object arrays on triples above x.
        Raises MonotonicityError on the first counterexample found, when vec
        raises, or when it returns another dtype than int64 on int64 arrays.
        """
        if self._checked:
            return
        rng = random.Random(0)
        f = self.fn
        triples: list[tuple[int, int, int]] = []
        values: list[int] = []
        # f(1,1,1) is the global minimum under monotonicity; the vector engines'
        # int64 watches bound a sum by the largest value so far, which needs f >= 0
        if f(1, 1, 1) < 0:
            raise MonotonicityError(f"{self.kind} weight fn is negative at (1, 1, 1)")
        for _ in range(1000):
            x, y, z = (rng.randint(1, 1000) for _ in range(3))
            base = f(x, y, z)
            if f(y, x, z) != base or f(z, y, x) != base or f(x, z, y) != base:
                raise MonotonicityError(f"{self.kind} weight fn is not symmetric at {(x, y, z)}")
            bump = rng.randint(1, 50)
            which = rng.randrange(3)
            bumped = [x, y, z]
            bumped[which] += bump
            if f(*bumped) <= base:
                raise MonotonicityError(
                    f"{self.kind} weight fn is not strictly monotonic: "
                    f"f{tuple(bumped)} <= f{(x, y, z)}"
                )
            if base < INT64_LIMIT:
                triples.append((x, y, z))
                values.append(base)
        if self.vec is not None:
            # the vector engines run vec on int64 arrays up to the int64
            # boundary and on object arrays past it: check it there too
            x = 1
            while 2 * x <= WEIGHT_MAX and f(2 * x, 2 * x, 2 * x) < INT64_LIMIT:
                x *= 2
            h = max(1, x // 2)
            for t in ((x, x, x), (x, 1, 1), (1, x, h), (h, x, x), (x, h, 3)):
                value = f(*t)
                if value < INT64_LIMIT:
                    triples.append(t)
                    values.append(value)
            if triples:
                self._check_vec(triples, values, np.int64)
            y = min(2 * x, WEIGHT_MAX)
            above = [(y, y, y), (y, 1, x), (x, y, 2)]
            self._check_vec(above, [f(*t) for t in above], object)
        self._checked = True

    def _check_vec(self, triples: list[tuple[int, int, int]], values: list[int], dtype) -> None:
        """Raise MonotonicityError unless vec equals fn on ``triples`` as ``dtype`` arrays."""
        try:
            got = np.broadcast_to(self.vec(*np.array(triples, dtype=dtype).T), len(triples))
        except Exception as exc:  # user code: any failure means vec is unusable
            raise MonotonicityError(
                f"{self.kind} weight fn's vec raised on {np.dtype(dtype)} arrays: {exc!r}"
            ) from exc
        # the int64 engines store vec's values in int64 arrays: an object
        # result (a Fraction, say) would be truncated there
        if dtype is np.int64 and got.dtype != np.int64:
            raise MonotonicityError(
                f"{self.kind} weight fn's vec returns {got.dtype} on int64 arrays, not int64"
            )
        for t, g, want in zip(triples, got.tolist(), values):
            if g != want:
                raise MonotonicityError(
                    f"{self.kind} weight fn's vec disagrees with fn at {t}: {g} != {want}"
                )


class EdgeSet(frozenset):
    """Edges that keep the int64 rows they came from as ``rows``; sets derived from them are plain frozensets."""

    __slots__ = ("rows",)

    def __reduce__(self):
        return frozenset, (tuple(self),)


@dataclass(frozen=True)
class Triangulation:
    """A set of internal edges plus the weight claimed by its producer.

    Given a solver's (k, 2) int64 rows, it keeps a read-only copy (``rows``,
    else None) for the checks and builds ``edges``, an ``EdgeSet``, when read.
    """

    edges: frozenset[Edge]
    weight: int
    rows: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(rows := self.edges, np.ndarray) and rows.dtype == np.int64 and rows.shape[1:] == (2,):
            object.__setattr__(self, "rows", rows.copy())
            self.rows.flags.writeable = False
            return object.__delattr__(self, "edges")  # __getattr__ builds it on the first read
        index = operator.index  # the rule _edge_set applies: numpy integers become ints
        try:
            edges = frozenset(norm_edge(index(a), index(b)) for a, b in self.edges)
        except TypeError:
            for pair in self.edges:  # still there unless given as an iterator: name the edge
                _index_pair(pair)
            raise ValueError("an edge has an endpoint that is not an integer") from None
        object.__setattr__(self, "edges", edges)

    def __getattr__(self, name: str):
        if name != "edges" or self.rows is None:
            raise AttributeError(name)
        a, b = self.rows.T
        object.__setattr__(self, "edges", EdgeSet(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())))
        self.edges.rows = self.rows
        return self.edges

    def __reduce__(self):  # a copy or a pickle keeps the rows, read-only
        return Triangulation, (self.edges if self.rows is None else self.rows, self.weight)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    kind: str | None = None  # "count" | "side" | "crossing"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _index_pair(pair: Iterable) -> Edge:
    """The pair's endpoints through operator.index, the rule as_ints applies to weights."""
    a, b = pair
    try:
        return operator.index(a), operator.index(b)
    except TypeError:
        raise ValueError(f"edge {tuple(pair)!r} has an endpoint that is not an integer") from None


def _edge_set(poly: Polygon, edges: Iterable[Edge] | Triangulation) -> set[Edge]:
    if isinstance(edges, Triangulation):
        edges = edges.edges
    n = poly.n
    out: set[Edge] = set()
    for pair in edges:
        a, b = _index_pair(pair)
        if a == b:
            raise ValueError(f"degenerate edge ({a}, {b})")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
        out.add(norm_edge(a, b))
    return out


def _sweep(
    poly: Polygon, edges: Iterable[Edge] | Triangulation
) -> tuple[ValidationResult, set[Edge], list[Triangle]]:
    """Validate ``edges`` and list their triangles in one pass over the nodes.

    Returns (result, normalized edge set, triangles); the triangles are
    listed only when the result is ok. Non-crossing chords nest like
    parentheses, so a stack of open chords finds the first crossing. The
    triangles whose lowest node is p fan out between p's consecutive
    neighbours above p (the side to p + 1, p's chords in increasing order,
    and the side to n - 1 when p = 0), so each comes out exactly once.
    """
    n = poly.n
    es = _edge_set(poly, edges)
    if len(es) != n - 3:
        return ValidationResult(False, "count", f"expected {n - 3} edges, got {len(es)}"), es, []
    sides = [e for e in es if e[1] - e[0] in (1, n - 1)]
    if sides:
        a, b = min(sides)
        return ValidationResult(False, "side", f"edge ({a}, {b}) duplicates a polygon side"), es, []
    above: list[list[int]] = [[] for _ in range(n)]
    above[0].append(n - 1)  # the side (0, n - 1) encloses every chord
    closes = [0] * n
    for a, b in es:
        above[a].append(b)
        closes[b] += 1
    stack: list[Edge] = []
    tris: list[Triangle] = []
    # node n - 1 only closes what is still open: nothing can cross there
    for p in range(n - 1):
        need = closes[p]
        while need and stack and stack[-1][1] == p:
            stack.pop()
            need -= 1
        if need:
            # an edge closing at p is buried beneath the top of stack; the
            # two provably cross (buried opens first, top closes later)
            other = stack[-1]
            buried = next(e for e in reversed(stack) if e[1] == p)
            return ValidationResult(False, "crossing", f"edges {buried} and {other} cross"), es, []
        ups = above[p]
        if ups:
            ups.sort()
            tris += zip(repeat(p), [p + 1, *ups], ups)
            stack += [(p, b) for b in reversed(ups)]  # inner chords on top
    return ValidationResult(True), es, tris


def _pass(poly: Polygon, pairs: Collection) -> np.ndarray | None:
    """The triangles of a triangulation as a (3, n - 2) array of rows i, m, j.

    None hands ``pairs`` to ``_sweep``. The pass reads only n - 3 pairs of
    integers (no float or string is truncated) in range. It keys each pair
    (a, b), a <= b, as a * n + b and sorts the keys with the side (0, n - 1).
    Each key (a, b) then has apex m: the b of the key before it when that key
    also starts at a, else a + 1. The pairs triangulate the polygon exactly
    when every (m, b) is a side or a key (binary search), and the triangles
    are the (a, m, b): read down from the side (0, n - 1) they tile the
    polygon with n - 3 chords from the pairs, so they use them all.
    """
    n = poly.n
    if len(pairs) != n - 3:
        return None
    try:
        if isinstance(pairs, np.ndarray):  # a Triangulation's (n - 3, 2) int64 rows
            ends = pairs.reshape(-1)
        elif set(map(len, pairs)) - {2}:  # a "pair" of another length is the sweep's to reject
            return None
        else:  # array("q") reads each endpoint through operator.index, the sweep's rule: 2.5 or "2" raise
            ends = np.frombuffer(array("q", chain.from_iterable(pairs)), np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if (ends.view(np.uint64) >= n).any():  # negative or too large
        return None
    a, b = np.minimum(ends[::2], ends[1::2]), np.maximum(ends[::2], ends[1::2])
    keys = np.empty(n - 2, np.int64)
    np.add(a * n, b, out=keys[1:])
    keys[0] = n - 1
    keys.sort()
    rows = np.empty((3, n - 2), np.int64)
    a, m, b = rows
    np.divmod(keys, n, out=(a, b))
    np.add(a, 1, out=m)
    # the first degenerate pair, else a side, else a repeated key gets m >= b and fails
    np.copyto(m[1:], b[:-1], where=a[1:] == a[:-1])
    need = (m * n + b)[b - m != 1]  # a side needs no search
    if (keys.take(keys.searchsorted(need), mode="clip") != need).any():
        return None
    return rows


def _route(
    poly: Polygon, edges: Iterable[Edge] | Triangulation
) -> tuple[Iterable[Edge], np.ndarray | None]:
    """(edges, the pass's triangle rows), None where the sweep must read edges; kept rows go to the pass as they are."""
    rows = getattr(edges, "rows", None) if isinstance(edges, (Triangulation, EdgeSet)) else None
    if rows is not None and poly.n >= PASS_MIN_N and (tris := _pass(poly, rows)) is not None:
        return edges, tris
    if isinstance(edges, Triangulation):
        edges = edges.edges
    if poly.n < PASS_MIN_N:
        return edges, None
    if not isinstance(edges, (list, tuple, set, frozenset)):
        edges = list(edges)  # the pass and a fallback sweep read an iterator once
    return edges, _pass(poly, edges)


def validate_triangulation(poly: Polygon, edges: Iterable[Edge] | Triangulation) -> ValidationResult:
    """Check that ``edges`` triangulate the polygon.

    Accepts iff there are exactly n - 3 edges, none duplicates a polygon
    side, and no two cross, where chords (a, b) and (c, d) cross iff exactly
    one of c, d lies strictly between a and b in circular order. Violations
    are reported in that fixed order: count, then the least side-duplicating
    edge, then the first crossing of the node sweep.
    """
    edges, rows = _route(poly, edges)
    return ValidationResult(True) if rows is not None else _sweep(poly, edges)[0]


def _require(
    poly: Polygon, edges: Iterable[Edge] | Triangulation
) -> tuple[set[Edge], list[Triangle]]:
    res, es, tris = _sweep(poly, edges)
    if not res.ok:
        raise InvalidTriangulationError(f"{res.kind}: {res.detail}")
    return es, tris


def require_valid(poly: Polygon, edges: Iterable[Edge] | Triangulation) -> set[Edge]:
    """The normalized edge set; InvalidTriangulationError unless it is valid."""
    edges, rows = _route(poly, edges)
    if rows is None:
        return _require(poly, edges)[0]
    es = set(zip(rows[0].tolist(), rows[2].tolist()))
    es.remove((0, poly.n - 1))
    return es


def _swept_triangles(poly: Polygon, edges: Iterable[Edge]) -> set[Triangle]:
    out = set(_require(poly, edges)[1])
    if len(out) != poly.n - 2:
        raise SolverInvariantError(f"expected {poly.n - 2} triangles, got {len(out)}")
    return out


def list_triangles(poly: Polygon, tri: Iterable[Edge] | Triangulation) -> set[Triangle]:
    """The n - 2 triangles (i, m, j), i < m < j, of a valid triangulation.

    Read off the numpy pass, or off the validating sweep in O(n log n) for
    the per-node chord sorts. Raises InvalidTriangulationError for an
    invalid edge set, and SolverInvariantError unless the sweep listed
    exactly n - 2 distinct triangles.
    """
    edges, rows = _route(poly, tri)
    return _swept_triangles(poly, edges) if rows is None else set(zip(*rows.tolist()))


def triangulation_weight(
    poly: Polygon, tri: Iterable[Edge] | Triangulation, f: TriangleWeightFn
) -> int:
    """Evaluate the sum of f over the triangles of ``tri``.

    Calls ``f.fn`` on Python ints once per triangle and never ``f.vec``, so
    the sum does not depend on the vector engines the solvers run.
    """
    edges, rows = _route(poly, tri)
    if rows is None:
        w = poly.weights
        total = sum(f.fn(w[a], w[b], w[c]) for a, b, c in _swept_triangles(poly, edges))
    else:  # gathers the polygon's own ints, so tolist makes no new ones
        total = sum(map(f.fn, *np.fromiter(poly.weights, object, poly.n)[rows].tolist()))
    if total >= ACCUMULATOR_MAX:
        raise OverflowError("triangulation weight exceeds the 128-bit accumulator range")
    return total


def parse_polygon(text: str) -> Polygon:
    """Parse the polygon text format: line 1 is n, line 2 is n weights."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError(f"polygon file needs exactly 2 non-blank lines, got {len(lines)}")
    try:
        n = int(lines[0])
        weights = [int(tok) for tok in lines[1].split()]
    except ValueError as exc:
        raise ValueError(f"polygon file is not integer-valued: {exc}") from None
    if n < 3:
        raise ValueError(f"polygon file declares n={n} < 3")
    if len(weights) != n:
        raise ValueError(f"polygon file declares n={n} but lists {len(weights)} weights")
    return Polygon(tuple(weights))


def format_polygon(poly: Polygon) -> str:
    return f"{poly.n}\n{' '.join(str(w) for w in poly.weights)}\n"


def load_polygon(path: str) -> Polygon:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_polygon(fh.read())
