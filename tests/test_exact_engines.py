"""The vector engines on inputs that int64_safe rejects.

With a ``vec``, dp3 and Yao compute in int64 while the values computed so
far prove the next step cannot overflow, and in object dtype (exact Python
ints) from the first step where that proof fails. Each case here must give
the value and the edge set of the reference engines, which use Python ints
throughout: the same DP and sweep run on the weight function's fn_only
twin, with ``fn`` applied element-wise in object dtype.
"""

import random
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fn_only
from polytri import (
    Polygon,
    TriangleWeightFn,
    gen_random_chain,
    solve_bst,
    solve_dp_cubic,
    solve_yao,
    triangulation_weight,
)
from polytri.core import INT64_LIMIT, int64_safe

# symmetric pieces, each monotone in every argument on positive integers;
# the first four increase strictly, so any sum holding one of them does too
PIECES = {
    "e1": (lambda x, y, z: x + y + z,) * 2,
    "e2": (lambda x, y, z: x * y + y * z + z * x,) * 2,
    "e3": (lambda x, y, z: x * y * z,) * 2,
    "p2": (lambda x, y, z: x * x + y * y + z * z,) * 2,
    "max": (lambda x, y, z: max(x, y, z), lambda x, y, z: np.maximum(np.maximum(x, y), z)),
    "min": (lambda x, y, z: min(x, y, z), lambda x, y, z: np.minimum(np.minimum(x, y), z)),
}
STRICT = ["e1", "e2", "e3", "p2"]


def piece_sum(coeffs: dict[str, int]) -> TriangleWeightFn:
    """The custom weight fn sum(c * piece) with ``vec`` built from the same pieces."""
    terms = sorted(coeffs.items())
    return TriangleWeightFn.custom(
        lambda x, y, z: sum(c * PIECES[k][0](x, y, z) for k, c in terms),
        vec=lambda x, y, z: sum(c * PIECES[k][1](x, y, z) for k, c in terms),
    )


random_piece_sums = st.builds(
    lambda strict, loose: piece_sum({**loose, **strict}),
    st.dictionaries(st.sampled_from(STRICT), st.integers(1, 5), min_size=1),
    st.dictionaries(st.sampled_from(sorted(PIECES)), st.integers(1, 5)),
)

FNS = {
    "mult": TriangleWeightFn.multiplicative(),
    "add": TriangleWeightFn.additive(),
    "custom": TriangleWeightFn.product_plus_sum(),
    "pairs": TriangleWeightFn.custom(
        lambda x, y, z: x * y + y * z + z * x, vec=lambda x, y, z: x * y + y * z + z * x
    ),
}


def assert_engines_agree(poly: Polygon, f: TriangleWeightFn) -> int:
    vp, tp = solve_dp_cubic(poly, fn_only(f))
    vn, tn = solve_dp_cubic(poly, f)
    assert (vn, tn.edges) == (vp, tp.edges)
    vs, ts, _ = solve_yao(poly, fn_only(f))
    vv, tv, _ = solve_yao(poly, f)
    assert (vv, tv.edges) == (vs, ts.edges)
    assert vs == vp
    return vp


def heavy_light(seed: int, n: int, heavy: int) -> Polygon:
    rng = random.Random(seed)
    return Polygon(
        tuple(heavy - rng.randrange(8) if rng.random() < 0.9 else rng.randint(1, 50) for _ in range(n))
    )


@pytest.mark.parametrize("m", [100, 150, 200])
def test_random_chains(m):
    # dims to 10**6: every triangle fits int64, their sums may not
    poly = Polygon(gen_random_chain(m, m, lo=1, hi=10**6).dims)
    fm = FNS["mult"]
    assert not int64_safe(poly, fm)
    assert_engines_agree(poly, fm)


def vec_dtypes(g: TriangleWeightFn, solve) -> list[tuple[str, int]]:
    """The dtypes that solve(f) runs ``g.vec`` in, f being g with a spy on vec, as runs of (dtype, calls)."""
    g.ensure_monotonic()
    seen = []

    def spy(x, y, z):
        out = g.vec(x, y, z)
        seen.append(np.asarray(out).dtype.name)
        return out

    solve(TriangleWeightFn(g.kind, g.fn, vec=spy, checked=True))
    return [(dtype, len(list(calls))) for dtype, calls in groupby(seen)]


# heaviest triangle under mult just below 2**62: each vector engine starts
# in int64 and switches to object dtype partway through
MIX_2_62 = heavy_light(2, 60, 1_660_000)


@pytest.mark.parametrize("fname", ["mult", "custom"])
@pytest.mark.parametrize(
    "poly",
    [
        Polygon((2**20,) * 70),
        heavy_light(1, 60, 2**20),
        heavy_light(3, 40, 2**20),
        MIX_2_62,
        heavy_light(2, 60, 2**21 - 1000),
    ],
    ids=["uniform-2^20", "mix-2^20-a", "mix-2^20-b", "mix-2^62", "mix-2^21"],
)
def test_switch_to_object_mid_run(poly, fname):
    # every triangle fits int64, but runs of heavy nodes cost more than
    # 2**63: near 2**20, dp3 starts in int64 and switches at diagonal 6, and
    # Yao switches at one bridge in the mixes, while the uniform polygon's
    # rows stay small enough for int64; just below 2**62 both switch
    # mid-run, as the spy on vec shows; near 2**21 twice the heaviest
    # triangle passes 2**63, so both run in object dtype from the start
    f = FNS[fname]
    wmax = max(poly.weights)
    assert f.fn(wmax, wmax, wmax) < INT64_LIMIT
    assert assert_engines_agree(poly, f) > 0
    if poly is MIX_2_62:
        assert vec_dtypes(f, lambda g: solve_dp_cubic(poly, g)) == [("int64", 1), ("object", 57)]
        assert vec_dtypes(f, lambda g: solve_yao(poly, g)) == [("int64", 6), ("object", 106)]


@pytest.mark.parametrize("fname", ["mult", "custom"])
@pytest.mark.parametrize(
    "poly",
    [Polygon((2**22,) * 70), heavy_light(3, 50, 2**22), Polygon((2**40, 1, 2, 2**40, 3, 4, 2**39))],
    ids=["uniform", "mix", "2^40"],
)
def test_object_from_the_start(poly, fname):
    f = FNS[fname]
    wmax = max(poly.weights)
    assert f.fn(wmax, wmax, wmax) >= INT64_LIMIT
    assert_engines_agree(poly, f)


def test_optimum_fits_int64_while_a_losing_candidate_does_not():
    # two light nodes among heavy ones: fans from the light nodes are cheap,
    # any triangulation leaning on heavy triangles overflows int64
    heavy = 2**20
    poly = Polygon((1, 2) + (heavy,) * 30)
    fm = FNS["mult"]
    opt = assert_engines_agree(poly, fm)
    assert opt < INT64_LIMIT
    heavy_fan = {(2, j) for j in range(4, 32)} | {(0, 2)}
    assert triangulation_weight(poly, heavy_fan, fm) >= INT64_LIMIT


@settings(deadline=None, max_examples=60)
@given(
    weights=st.lists(
        st.one_of(st.integers(1, 64), st.integers(2**18, 2**22)), min_size=3, max_size=40
    ),
    f=st.one_of(st.sampled_from([FNS[name] for name in sorted(FNS)]), random_piece_sums),
)
def test_engines_equal_reference_engines(weights, f):
    poly = Polygon(tuple(weights))
    f.ensure_monotonic()
    assert_engines_agree(poly, f)
    _, ts, _ = solve_yao(poly, fn_only(f))
    oh, th, sh = solve_bst(poly, f, backend="hash")
    od, td, sd = solve_bst(poly, f, backend="dense")
    assert (oh, th.edges) == (od, td.edges) == (ts.weight, ts.edges)
    assert (sh.visited_cones, sh.memo_hits) == (sd.visited_cones, sd.memo_hits)
