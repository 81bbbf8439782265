"""Matrix-chain multiplication as polygon triangulation.

A chain of n matrices with dimensions p0 x p1, p1 x p2, ..., p(n-1) x pn
maps to an (n + 1)-node polygon with weights p0..pn: polygon side
(i - 1, i) stands for matrix Ai, side (0, n) for the full product, and a
triangle {i, m, j} for multiplying the partial products over (i, m) and
(m, j) at cost pi * pm * pj. Minimum multiplicative triangulation weight
equals the minimum number of scalar multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

from .core import (
    ACCUMULATOR_MAX,
    Edge,
    Polygon,
    Triangulation,
    as_ints,
    list_triangles,
)

T = TypeVar("T")


@dataclass(frozen=True)
class ChainDims:
    """Matrix chain dimensions; dims[i - 1] x dims[i] is matrix Ai."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        ds = as_ints(self.dims, "dimension")
        object.__setattr__(self, "dims", ds)
        if len(ds) < 2:
            raise ValueError(f"a chain needs at least 2 dimensions, got {len(ds)}")
        for i, d in enumerate(ds):
            if d <= 0:
                raise ValueError(f"dimension {i} is non-positive: {d}")

    @property
    def n_matrices(self) -> int:
        return len(self.dims) - 1


def chain_to_polygon(chain: ChainDims) -> Polygon | None:
    """The polygon whose triangulations are the chain's parenthesizations.

    A single matrix costs zero multiplications and has no polygon; that
    degenerate case returns None.
    """
    if chain.n_matrices == 1:
        return None
    return Polygon(chain.dims)


def _fold(
    chain: ChainDims,
    tri: Iterable[Edge] | Triangulation,
    leaf: Callable[[int], T],
    join: Callable[[int, int, int, T, T], T],
) -> T:
    """Fold the parenthesization encoded by ``tri`` bottom-up.

    Matrix Aj is ``leaf(j)``; the product over chord (i, j), split at m by
    the triangle {i, m, j}, is ``join(i, m, j, left, right)`` of the
    products over (i, m) and (m, j). Triangles are taken in order of
    increasing span, so both parts are folded before they are joined. A
    single matrix has no polygon and folds to ``leaf(1)``.
    """
    if chain.n_matrices == 1:
        return leaf(1)
    poly = chain_to_polygon(chain)
    done: dict[Edge, T] = {}
    for i, m, j in sorted(list_triangles(poly, tri), key=lambda t: t[2] - t[0]):
        left = done.pop((i, m)) if m - i > 1 else leaf(m)
        right = done.pop((m, j)) if j - m > 1 else leaf(j)
        done[(i, j)] = join(i, m, j, left, right)
    return done[(0, poly.n - 1)]


def triangulation_to_parenthesization(
    chain: ChainDims, tri: Iterable[Edge] | Triangulation
) -> str:
    """Render the parenthesization encoded by a triangulation.

    The triangle {i, m, j} on chord (i, j) becomes "(L R)" where L covers
    matrices i+1..m and R covers m+1..j. So each triangle opens a
    parenthesis before A(i+1) and closes one after Aj, and the text is the
    matrices in order with their parentheses, joined once: linear in n.
    """
    n = chain.n_matrices
    if n == 1:
        return "A1"
    opens = [0] * (n + 1)
    closes = [0] * (n + 1)
    for i, _, j in list_triangles(chain_to_polygon(chain), tri):
        opens[i + 1] += 1
        closes[j] += 1
    return " ".join(f"{'(' * opens[j]}A{j}{')' * closes[j]}" for j in range(1, n + 1))


def parenthesization_cost(chain: ChainDims, tri: Iterable[Edge] | Triangulation) -> int:
    """Scalar multiplication count of the encoded parenthesization.

    Computed by the chain recurrence cost(i, j) = cost(i, m) + cost(m, j)
    + pi * pm * pj, folded over the chord tree, a deliberately separate
    route from summing triangle weights over the polygon.
    """
    p = chain.dims
    total = _fold(
        chain, tri, lambda j: 0, lambda i, m, j, left, right: left + right + p[i] * p[m] * p[j]
    )
    if total >= ACCUMULATOR_MAX:
        raise OverflowError("parenthesization cost exceeds the 128-bit accumulator range")
    return total


def parse_chain(text: str) -> ChainDims:
    """Parse the chain text format: line 1 is n, line 2 is n + 1 dims."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError(f"chain file needs exactly 2 non-blank lines, got {len(lines)}")
    try:
        n = int(lines[0])
        dims = [int(tok) for tok in lines[1].split()]
    except ValueError as exc:
        raise ValueError(f"chain file is not integer-valued: {exc}") from None
    if n < 1:
        raise ValueError(f"chain file declares n={n} < 1")
    if len(dims) != n + 1:
        raise ValueError(f"chain file declares {n} matrices but lists {len(dims)} dimensions")
    return ChainDims(tuple(dims))


def format_chain(chain: ChainDims) -> str:
    return f"{chain.n_matrices}\n{' '.join(str(d) for d in chain.dims)}\n"


def load_chain(path: str) -> ChainDims:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_chain(fh.read())
