"""Instance generators: structured worst cases and seeded random polygons.

All randomness goes through random.Random with an explicit seed, so every
instance is reproducible from (generator, parameters) alone.
"""

from __future__ import annotations

import random

from .core import Polygon
from .matrix_chain import ChainDims

__all__ = [
    "gen_heuristic_worst",
    "gen_random",
    "gen_random_chain",
    "gen_staircase",
]


def _zigzag(n: int) -> list[int]:
    """Rank (1-based) of the node at each clockwise position.

    Rank 1 and 2 sit adjacent, then ranks alternate sides of the polygon:
    even ranks continue clockwise, odd ranks fill the way back. Each node's
    neighbors are close to it in rank, which is what makes the induced
    search trees degenerate.
    """
    top_odd = n if n % 2 else n - 1
    return [1, 2, *range(4, n + 1, 2), *range(top_odd, 2, -2)]


def gen_staircase(half_n: int) -> Polygon:
    """Polygon on 2*half_n nodes whose weights zigzag by rank.

    The weight of each node is its rank: adjacent nodes are adjacent in
    weight too, so every expansion step peels off as little as possible.
    These drive the quadratic solvers to their worst case and give the
    branching solver its largest distinct-cone counts.
    """
    if half_n < 2:
        raise ValueError("staircase needs half_n >= 2")
    return Polygon(tuple(_zigzag(2 * half_n)))


def gen_heuristic_worst(n: int, t: int, perturb: bool = False) -> Polygon:
    """Polygon with two heavy nodes (weight t) splitting the light ones.

    The two heaviest ranks land on opposite sides of the polygon with light
    nodes (weight 1) between them; as t grows the additive heuristic's
    relative error on these approaches its 1/3 supremum from below.

    With perturb=True all weights are made pairwise distinct by scaling and
    adding each node's rank; the scale is large enough that optimal
    structures of the base polygon stay optimal.
    """
    if n < 4:
        raise ValueError("heuristic worst case needs n >= 4")
    if t < 1:
        raise ValueError("t must be positive")
    ranks = _zigzag(n)
    base = [1 if r <= n - 2 else t for r in ranks]
    if not perturb:
        return Polygon(tuple(base))
    scale = 3 * n * (n + 1)
    return Polygon(tuple(b * scale + r for b, r in zip(base, ranks)))


def gen_random(
    n: int, seed: int, lo: int = 1, hi: int = 10**6, distinct: bool = False
) -> Polygon:
    """Uniform random weights in [lo, hi]; distinct=True samples without
    replacement."""
    if n < 3:
        raise ValueError("polygon needs n >= 3")
    rng = random.Random(seed)
    if distinct:
        if hi - lo + 1 < n:
            raise ValueError(f"cannot draw {n} distinct weights from [{lo}, {hi}]")
        weights = rng.sample(range(lo, hi + 1), n)
    else:
        weights = [rng.randint(lo, hi) for _ in range(n)]
    return Polygon(tuple(weights))


def gen_random_chain(n_matrices: int, seed: int, lo: int = 1, hi: int = 100) -> ChainDims:
    """Random matrix chain: n_matrices + 1 dimensions uniform in [lo, hi]."""
    if n_matrices < 1:
        raise ValueError("chain needs at least one matrix")
    rng = random.Random(seed)
    return ChainDims(tuple(rng.randint(lo, hi) for _ in range(n_matrices + 1)))
