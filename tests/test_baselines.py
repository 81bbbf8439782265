"""Cubic DP and brute-force enumeration, checked against each other and
against structure counts known in closed form."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from polytri import (
    Polygon,
    TriangleWeightFn,
    enumerate_triangulations,
    solve_bruteforce,
    solve_dp_cubic,
    triangulation_weight,
    validate_triangulation,
)
from conftest import fn_only
from test_exact_engines import MIX_2_62, vec_dtypes


# exact values no int64 table can hold; no vec, so the DP runs fn
FRACTION_FN = TriangleWeightFn.custom(lambda x, y, z: Fraction(x * y * z + x + y + z, 7))


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_structure_count_is_catalan(self, n):
        assert sum(1 for _ in enumerate_triangulations(n)) == catalan(n - 2)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_structure_validates(self, n):
        poly = Polygon((1,) * n)
        seen = set()
        for edges in enumerate_triangulations(n):
            assert validate_triangulation(poly, edges).ok
            seen.add(edges)
        assert len(seen) == catalan(n - 2)  # no duplicates

    def test_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_triangulations(2))
        with pytest.raises(ValueError):
            list(enumerate_triangulations(15))


class TestBruteforce:
    def test_quad_golden(self, weight_fns):
        poly = Polygon((1, 2, 5, 3))
        opt, winners = solve_bruteforce(poly, weight_fns["mult"])
        assert opt == 25 and winners == [frozenset({(0, 2)})]
        opt, winners = solve_bruteforce(poly, weight_fns["add"])
        assert opt == 16 and winners == [frozenset({(1, 3)})]

    def test_winner_list_is_complete(self, weight_fns):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(3, 8)
            poly = Polygon(tuple(rng.randint(1, 6) for _ in range(n)))
            for f in weight_fns.values():
                opt, winners = solve_bruteforce(poly, f)
                by_hand = {}
                for edges in enumerate_triangulations(n):
                    by_hand[edges] = triangulation_weight(poly, edges, f)
                want = min(by_hand.values())
                assert opt == want
                assert set(winners) == {e for e, v in by_hand.items() if v == want}

    def test_scalar_path_matches_numpy_path(self):
        # no vec forces the scalar loop
        f_scalar = TriangleWeightFn.custom(lambda x, y, z: x * y * z + x + y + z)
        f_vec = TriangleWeightFn.product_plus_sum()
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(4, 9)
            poly = Polygon(tuple(rng.randint(1, 40) for _ in range(n)))
            assert solve_bruteforce(poly, f_scalar) == solve_bruteforce(poly, f_vec)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="3 <= n <= 14"):
            solve_bruteforce(Polygon((1,) * 15), TriangleWeightFn.additive())


class TestCubicDP:
    def test_triangle(self, weight_fns):
        poly = Polygon((2, 3, 4))
        for f in (weight_fns["mult"], fn_only(weight_fns["mult"])):
            opt, tri = solve_dp_cubic(poly, f)
            assert opt == tri.weight == 24 and tri.edges == frozenset()

    def test_matches_bruteforce(self, weight_fns):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(3, 10)
            poly = Polygon(tuple(rng.randint(1, 30) for _ in range(n)))
            for f in (*weight_fns.values(), FRACTION_FN):
                want, winners = solve_bruteforce(poly, f)
                got, tri = solve_dp_cubic(poly, fn_only(f))
                assert got == want
                assert tri.edges in winners
                assert triangulation_weight(poly, tri, f) == want

    def test_numpy_engine_matches_python(self, weight_fns):
        rng = random.Random(23)
        rows = [(n, 10**4) for n in (4, 16, 40, 64, 80, 150)]
        rows.append((60, 5))  # weights in 1..5: many tied splits
        for n, hi in rows:
            poly = Polygon(tuple(rng.randint(1, hi) for _ in range(n)))
            for f in weight_fns.values():
                vp, tp = solve_dp_cubic(poly, fn_only(f))
                vn, tn = solve_dp_cubic(poly, f)
                assert vp == vn
                assert tn.edges == tp.edges  # same smallest-split tie rule
                assert validate_triangulation(poly, tn).ok
                assert triangulation_weight(poly, tn, f) == vn

    def test_engines_match_a_triple_loop(self, weight_fns):
        # a reference that shares no layout with the engines: cost by arc,
        # the smallest split kept on ties, chords read off the splits
        def triple_loop(poly, fn):
            w, n = poly.weights, poly.n
            cost = [[0] * n for _ in range(n)]
            split = [[0] * n for _ in range(n)]
            for d in range(2, n):
                for i in range(n - d):
                    j = i + d
                    best = None
                    for m in range(i + 1, j):
                        c = cost[i][m] + cost[m][j] + fn(w[i], w[m], w[j])
                        if best is None or c < best:
                            best, split[i][j] = c, m
                    cost[i][j] = best
            edges, work = set(), [(0, n - 1)]
            while work:
                i, j = work.pop()
                if j - i >= 2:
                    m = split[i][j]
                    edges |= {(a, b) for a, b in ((i, m), (m, j)) if b - a >= 2}
                    work += [(i, m), (m, j)]
            return cost[0][n - 1], frozenset(edges - {(0, n - 1)})

        rng = random.Random(41)
        polys = [Polygon(tuple(rng.randint(1, 3) for _ in range(n))) for n in (3, 5, 9, 17, 33, 60)]
        polys += [Polygon((5,) * n) for n in (4, 12, 60)]
        polys += [MIX_2_62, Polygon((2**40, 1, 2, 2**40, 3, 4, 2**39) * 3)]
        fns = dict(weight_fns, fraction=FRACTION_FN)
        for poly in polys:
            for name, f in fns.items():
                want = triple_loop(poly, f.fn)
                for g in (fn_only(f), f) if f.vec else (f,):
                    opt, tri = solve_dp_cubic(poly, g)
                    assert (opt, tri.edges) == want, (poly.n, name, g.vec is not None)
        # under mult, MIX_2_62 switches to object dtype mid-run (pinned in
        # test_switch_to_object_mid_run) and the last polygon starts in it
        on_last = vec_dtypes(weight_fns["mult"], lambda g: solve_dp_cubic(polys[-1], g))
        assert on_last == [("object", 19)]

    def test_rotation_invariance(self, weight_fns):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(4, 9)
            ws = [rng.randint(1, 20) for _ in range(n)]
            base = {
                k: solve_dp_cubic(Polygon(tuple(ws)), f)[0] for k, f in weight_fns.items()
            }
            shift = rng.randrange(1, n)
            rotated = Polygon(tuple(ws[shift:] + ws[:shift]))
            for k, f in weight_fns.items():
                assert solve_dp_cubic(rotated, f)[0] == base[k]

    def test_deterministic_tie_break(self):
        fa = TriangleWeightFn.additive()
        poly = Polygon((4, 4, 4, 4, 4, 4))
        v1, t1 = solve_dp_cubic(poly, fa)
        v2, t2 = solve_dp_cubic(poly, fa)
        assert (v1, t1.edges) == (v2, t2.edges)
        # all-equal weights: every triangulation is optimal; smallest-split
        # preference yields the fan anchored at node n-1
        assert t1.edges == frozenset({(1, 5), (2, 5), (3, 5)})

    def test_numpy_engine_exact_on_unsafe_weights(self):
        fm = TriangleWeightFn.multiplicative()
        poly = Polygon((2**22,) * 70)
        # every triangle weighs 2**66, so the numpy engine runs in object dtype
        vp, tp = solve_dp_cubic(poly, fn_only(fm))
        vn, tn = solve_dp_cubic(poly, fm)
        assert vn == vp == 68 * 2**66
        assert tn.edges == tp.edges
        assert validate_triangulation(poly, tn).ok

    @pytest.mark.parametrize(
        "n, w, engine",
        [
            (23, 10**6, "python"),
            (24, 10**6, "numpy"),  # not int64-safe, but f(wmax, wmax, wmax) < 2**63
            (49, 2**21, "python"),  # f(wmax, wmax, wmax) = 2**63: object dtype throughout
            (50, 2**21, "numpy"),
        ],
    )
    def test_auto_engine_choice(self, n, w, engine):
        # the DP runs vec, once per diagonal, whenever it exists, whatever n,
        # and gives the answer of the engine named: "python" is f's fn_only twin
        dtypes = []

        def vec(x, y, z):
            dtypes.append(x.dtype)
            return x * y * z

        f = TriangleWeightFn.custom(lambda x, y, z: x * y * z, vec=vec)
        f.ensure_monotonic()
        dtypes.clear()
        poly = Polygon((w,) * n)
        opt, tri = solve_dp_cubic(poly, f)
        assert len(dtypes) == n - 2
        assert dtypes[0] == (np.int64 if w == 10**6 else object)
        named, tn = solve_dp_cubic(poly, fn_only(f) if engine == "python" else f)
        assert (opt, tri.edges) == (named, tn.edges)
        # without vec, the DP runs fn in object dtype: its Fractions come back exact
        frac, tf = solve_dp_cubic(poly, TriangleWeightFn.custom(lambda x, y, z: Fraction(x * y * z, 7)))
        assert frac == Fraction(opt, 7) and tf.edges == tri.edges

    def test_accumulator_guard(self):
        fm = TriangleWeightFn.multiplicative()
        poly = Polygon((2**63 - 1,) * 5)
        with pytest.raises(OverflowError, match="128-bit"):
            solve_dp_cubic(poly, fm)
