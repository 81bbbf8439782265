"""Node-weighted convex polygons, triangle weight functions, and triangulations.

The polygon is purely combinatorial: node i sits between nodes (i - 1) mod n
and (i + 1) mod n in clockwise order and carries a positive integer weight.
A triangulation is a set of n - 3 pairwise non-crossing internal edges; its
weight is the sum of a triangle weight function over the n - 2 triangles the
edges create.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

WEIGHT_MAX = 2**63 - 1  # node weights must fit a signed 64-bit integer
ACCUMULATOR_MAX = 2**127  # triangulation sums are checked against this bound

Edge = tuple[int, int]


class InvalidTriangulationError(ValueError):
    """An edge set failed triangulation validation."""


class MonotonicityError(ValueError):
    """A custom triangle weight function failed its spot check."""


class SolverInvariantError(ValueError):
    """A solver's own tables contradict each other (a bug, not bad input)."""


def norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def int64_safe(poly: "Polygon", f: "TriangleWeightFn") -> bool:
    """True when every partial sum of f over any triangulation fits int64.

    Vectorized solver paths are only engaged under this bound, with headroom:
    the worst case of (n - 2) triangles at the maximum weight stays below
    2**62.
    """
    wmax = max(poly.weights)
    return (poly.n - 2) * f.fn(wmax, wmax, wmax) < 2**62


def check_accumulator_bound(poly: "Polygon", f: "TriangleWeightFn") -> None:
    """Reject solves whose worst-case total could leave the 128-bit range."""
    wmax = max(poly.weights)
    if (poly.n - 2) * f.fn(wmax, wmax, wmax) >= ACCUMULATOR_MAX:
        raise OverflowError(
            "worst-case triangulation weight exceeds the 128-bit accumulator range"
        )


@dataclass(frozen=True)
class Polygon:
    """Clockwise node weights plus the derived light-to-heavy node order.

    ``n`` is the node count, stored once since the solvers read it in their
    inner loops. ``rank[r]`` is the index of the r-th lightest node under
    the total order (weight, node index); ``rank_of`` is the inverse
    permutation. Ties in weight are broken by node index everywhere, which
    is equivalent to an infinitesimal perturbation and leaves optimal
    triangulation weights unchanged.
    """

    weights: tuple[int, ...]
    n: int = field(init=False, repr=False, compare=False)
    rank: tuple[int, ...] = field(init=False, repr=False, compare=False)
    rank_of: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ws = tuple(int(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        n = len(ws)
        object.__setattr__(self, "n", n)
        if n < 3:
            raise ValueError(f"polygon needs at least 3 nodes, got {n}")
        for i, w in enumerate(ws):
            if w <= 0:
                raise ValueError(f"node {i} has non-positive weight {w}")
            if w > WEIGHT_MAX:
                raise ValueError(f"node {i} weight {w} exceeds the signed 64-bit limit")
        rank = tuple(sorted(range(n), key=lambda i: (ws[i], i)))
        rank_of = [0] * n
        for r, node in enumerate(rank):
            rank_of[node] = r
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rank_of", tuple(rank_of))

    def cw_next(self, i: int) -> int:
        return (i + 1) % self.n

    def cw_prev(self, i: int) -> int:
        return (i - 1) % self.n

    def adjacent(self, a: int, b: int) -> bool:
        d = (a - b) % self.n
        return d == 1 or d == self.n - 1

    def is_side(self, a: int, b: int) -> bool:
        return self.adjacent(a, b)

    def arc_len(self, u: int, v: int) -> int:
        """Number of clockwise steps from u to v (0 means u == v)."""
        return (v - u) % self.n

    def lighter(self, a: int, b: int) -> bool:
        wa, wb = self.weights[a], self.weights[b]
        return (wa, a) < (wb, b)


def weight_rank(poly: Polygon) -> list[int]:
    """The permutation mapping rank r to the r-th lightest node index."""
    return list(poly.rank)


class TriangleWeightFn:
    """A symmetric, monotonic map from three node weights to a cost.

    ``kind`` is "mult", "add", or "custom". ``fn`` evaluates Python integers
    exactly; ``vec``, when present, evaluates numpy int64 arrays elementwise
    and is only engaged by solvers after an overflow bound check. Custom
    functions are spot checked for monotonicity and symmetry before any
    solver will accept them.
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

    def ensure_monotonic(self, seed: int = 0, rounds: int = 1000) -> None:
        """Spot check strict monotonicity and symmetry; cached per instance.

        Draws ``rounds`` random triples, bumps one coordinate, and requires a
        strict increase; also requires invariance under argument permutation.
        When ``vec`` is present it is evaluated on the same triples as int64
        arrays and must agree with ``fn`` wherever fn's value fits int64.
        Raises MonotonicityError on the first counterexample found.
        """
        if self._checked:
            return
        rng = random.Random(seed)
        f = self.fn
        triples: list[tuple[int, int, int]] = []
        values: list[int] = []
        # f(1,1,1) is the global minimum under monotonicity; solvers rely on
        # non-negative values (dense memo cells use -1 as the empty sentinel)
        if f(1, 1, 1) < 0:
            raise MonotonicityError(f"{self.kind} weight fn is negative at (1, 1, 1)")
        for _ in range(rounds):
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
            if base < 2**63:
                triples.append((x, y, z))
                values.append(base)
        if self.vec is not None and triples:
            got = self.vec(*np.array(triples, dtype=np.int64).T)
            for t, g, want in zip(triples, np.broadcast_to(got, len(triples)).tolist(), values):
                if g != want:
                    raise MonotonicityError(
                        f"{self.kind} weight fn's vec disagrees with fn at {t}: {g} != {want}"
                    )
        self._checked = True


@dataclass(frozen=True)
class Triangulation:
    """A set of internal edges plus the weight claimed by its producer."""

    edges: frozenset[Edge]
    weight: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(norm_edge(a, b) for a, b in self.edges))


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    kind: str | None = None  # "count" | "side" | "crossing"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _edge_set(poly: Polygon, edges: Iterable[Edge] | Triangulation) -> set[Edge]:
    if isinstance(edges, Triangulation):
        edges = edges.edges
    n = poly.n
    out: set[Edge] = set()
    for pair in edges:
        a, b = pair
        a, b = int(a), int(b)
        if a == b:
            raise ValueError(f"degenerate edge ({a}, {b})")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
        out.add(norm_edge(a, b))
    return out


def validate_triangulation(poly: Polygon, edges: Iterable[Edge] | Triangulation) -> ValidationResult:
    """Check that ``edges`` triangulate the polygon.

    Accepts iff there are exactly n - 3 edges, none duplicates a polygon
    side, and no two cross, where chords (a, b) and (c, d) cross iff exactly
    one of c, d lies strictly between a and b in circular order. Violations
    are reported in that fixed order: count, then side, then crossing.
    """
    n = poly.n
    es = _edge_set(poly, edges)
    if len(es) != n - 3:
        return ValidationResult(False, "count", f"expected {n - 3} edges, got {len(es)}")
    for a, b in sorted(es):
        if poly.is_side(a, b):
            return ValidationResult(False, "side", f"edge ({a}, {b}) duplicates a polygon side")
    # Sweep positions once; non-crossing chords must nest like parentheses.
    opens: list[list[int]] = [[] for _ in range(n)]
    closes = [0] * n
    for a, b in es:
        opens[a].append(b)
        closes[b] += 1
    stack: list[Edge] = []
    for p in range(n):
        need = closes[p]
        while need and stack and stack[-1][1] == p:
            stack.pop()
            need -= 1
        if need:
            # an edge closing at p is buried beneath the top of stack; the
            # two provably cross (buried opens first, top closes later)
            other = stack[-1]
            buried = next(e for e in reversed(stack) if e[1] == p)
            return ValidationResult(False, "crossing", f"edges {buried} and {other} cross")
        for b in sorted(opens[p], reverse=True):  # inner chords on top
            stack.append((p, b))
    return ValidationResult(True)


def require_valid(poly: Polygon, edges: Iterable[Edge] | Triangulation) -> set[Edge]:
    res = validate_triangulation(poly, edges)
    if not res.ok:
        raise InvalidTriangulationError(f"{res.kind}: {res.detail}")
    return _edge_set(poly, edges)


def list_triangles(poly: Polygon, tri: Iterable[Edge] | Triangulation) -> set[tuple[int, int, int]]:
    """The n - 2 triangles induced by the polygon sides plus internal edges."""
    n = poly.n
    es = require_valid(poly, tri)
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        adj[i].add((i + 1) % n)
        adj[(i + 1) % n].add(i)
    for a, b in es:
        adj[a].add(b)
        adj[b].add(a)
    out: set[tuple[int, int, int]] = set()
    work = [(0, n - 1)]
    while work:
        i, j = work.pop()
        if j - i < 2:
            continue
        mids = [m for m in adj[i] & adj[j] if i < m < j]
        assert len(mids) == 1, f"interval ({i}, {j}) has split candidates {mids}"
        m = mids[0]
        out.add((i, m, j))
        work.append((i, m))
        work.append((m, j))
    assert len(out) == n - 2
    return out


def triangulation_weight(
    poly: Polygon, tri: Iterable[Edge] | Triangulation, f: TriangleWeightFn
) -> int:
    """Evaluate the sum of f over the triangles of ``tri``."""
    w = poly.weights
    total = 0
    for a, b, c in list_triangles(poly, tri):
        total += f.fn(w[a], w[b], w[c])
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
