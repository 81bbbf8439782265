"""Bottom-up sweep solver: engine parity, census stats, reconstruction."""

import random
from fractions import Fraction

import pytest

from conftest import fn_only, random_polygon
from polytri import (
    Polygon,
    TriangleWeightFn,
    find_bridges_linear,
    gen_staircase,
    solve_bst,
    solve_dp_cubic,
    solve_yao,
    triangulation_weight,
    validate_triangulation,
)


class TestSolveYao:
    def test_quad_goldens(self, weight_fns):
        poly = Polygon((1, 2, 5, 3))
        opt, tri, stats = solve_yao(poly, weight_fns["mult"])
        assert (opt, tri.edges) == (25, frozenset({(0, 2)}))
        assert stats.visited_cones == stats.total_cones == 3
        assert stats.memo_hits == 0
        assert stats.backend == "vector"  # vec present: the vector engine, at any n
        opt, tri, _ = solve_yao(poly, weight_fns["add"])
        assert (opt, tri.edges) == (16, frozenset({(1, 3)}))

    def test_triangle(self, weight_fns):
        opt, tri, stats = solve_yao(Polygon((2, 3, 4)), weight_fns["mult"])
        assert (opt, tri.edges) == (24, frozenset())
        assert (stats.visited_cones, stats.total_cones) == (1, 1)

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_matches_cubic_dp(self, engine, weight_fns):
        # the scalar engine runs on each weight function's fn_only twin
        rng = random.Random(79)
        for _ in range(60):
            n = rng.randint(3, 60)
            poly = Polygon(tuple(rng.randint(1, 10**6) for _ in range(n)))
            for f in weight_fns.values():
                want = solve_dp_cubic(poly, f)[0]
                opt, tri, stats = solve_yao(poly, fn_only(f) if engine == "scalar" else f)
                assert stats.backend == engine
                assert opt == want
                assert validate_triangulation(poly, tri).ok
                assert triangulation_weight(poly, tri, f) == opt
                assert stats.visited_cones == stats.total_cones
                assert stats.total_cones == find_bridges_linear(poly).total_cones()

    def test_vector_engine_matches_scalar(self, weight_fns):
        rng = random.Random(83)
        for n in (64, 90, 121):
            poly = Polygon(tuple(rng.randint(1, 10**4) for _ in range(n)))
            for f in weight_fns.values():
                vs, ts, ss = solve_yao(poly, fn_only(f))
                vv, tv, sv = solve_yao(poly, f)
                assert vs == vv
                assert ts.edges == tv.edges  # same values, same walk
                assert (ss.backend, sv.backend) == ("scalar", "vector")

    def test_engines_agree_on_tie_heavy_weights(self, weight_fns):
        rng = random.Random(89)
        for _ in range(10):
            poly = Polygon(tuple(rng.randint(1, 5) for _ in range(80)))
            for f in weight_fns.values():
                vs, ts, _ = solve_yao(poly, fn_only(f))
                vv, tv, _ = solve_yao(poly, f)
                assert (vs, ts.edges) == (vv, tv.edges)

    def test_matches_branching_solver(self, weight_fns):
        rng = random.Random(97)
        for _ in range(25):
            poly = random_polygon(rng, n_lo=3, n_hi=120, w_hi=10**6)
            for f in weight_fns.values():
                ob = solve_bst(poly, f)[0]
                oy, _, _ = solve_yao(poly, f)
                assert ob == oy

    def test_auto_engine_choice(self):
        # vec alone picks the engine
        fa = TriangleWeightFn.additive()
        f_plain = TriangleWeightFn.custom(lambda x, y, z: x + y + z)
        rng = random.Random(101)
        for n in (3, 4, 5, 63, 64):
            poly = Polygon(tuple(rng.randint(1, 99) for _ in range(n)))
            assert solve_yao(poly, fa)[2].backend == "vector"
            # no vectorized form: scalar at any size
            assert solve_yao(poly, f_plain)[2].backend == "scalar"

    def test_vector_engine_refusals(self):
        fm = TriangleWeightFn.multiplicative()
        big = Polygon((2**22,) * 70)
        # every triangle weighs 2**66, so the vector engine refuses int64 and
        # runs in object dtype
        vs, ts, ss = solve_yao(big, fn_only(fm))
        vv, tv, sv = solve_yao(big, fm)
        assert (ss.backend, sv.backend) == ("scalar", "vector")
        assert vv == vs == 68 * 2**66
        assert tv.edges == ts.edges
        assert validate_triangulation(big, tv).ok

    def test_scalar_engine_keeps_exact_non_integer_values(self):
        # no vec, so the scalar engine runs: fn's Fractions must come
        # back from the object rows as they are, never truncated to ints
        f = TriangleWeightFn.custom(lambda x, y, z: Fraction(x * y * z + x + y + z, 7))
        rng = random.Random(7)
        fractional = 0
        for _ in range(25):
            n = rng.randint(3, 60)
            poly = Polygon(tuple(rng.randint(1, 10**4) for _ in range(n)))
            opt, tri, stats = solve_yao(poly, f)
            assert stats.backend == "scalar"
            ob, tb, sb = solve_bst(poly, f)
            assert sb.engine == "loop"
            op, tp = solve_dp_cubic(poly, f)
            assert opt == ob == op == triangulation_weight(poly, tri, f)
            assert tri.edges == tb.edges == tp.edges
            fractional += opt.denominator != 1
        assert fractional >= 20

    @pytest.mark.parametrize("half_n", [2, 3, 10])
    def test_staircase_census(self, half_n, weight_fns):
        poly = gen_staircase(half_n)
        want_total = (2 * half_n - 2) * (2 * half_n - 1) // 2
        for f in weight_fns.values():
            _, tri, stats = solve_yao(poly, f)
            assert validate_triangulation(poly, tri).ok
            assert stats.visited_cones == stats.total_cones == want_total

    def test_accumulator_guard(self):
        poly = Polygon((2**63 - 1,) * 5)
        with pytest.raises(OverflowError, match="128-bit"):
            solve_yao(poly, TriangleWeightFn.multiplicative())
