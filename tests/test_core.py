"""Polygon, weight functions, validation, file format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytri import (
    InvalidTriangulationError,
    MonotonicityError,
    Polygon,
    TriangleWeightFn,
    Triangulation,
    format_polygon,
    list_triangles,
    norm_edge,
    parse_polygon,
    require_valid,
    solve_bst,
    solve_dp_cubic,
    solve_yao,
    triangulation_weight,
    validate_triangulation,
    weight_rank,
)
from polytri.core import WEIGHT_MAX, check_accumulator_bound, int64_safe

from conftest import any_crossing

QUAD = Polygon((1, 2, 5, 3))


class TestPolygon:
    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError, match="at least 3"):
            Polygon((1, 2))

    @pytest.mark.parametrize("bad", [0, -4])
    def test_rejects_non_positive_weight(self, bad):
        with pytest.raises(ValueError, match="non-positive"):
            Polygon((1, bad, 2))

    def test_rejects_oversized_weight(self):
        Polygon((1, 2, WEIGHT_MAX))  # at the limit is fine
        with pytest.raises(ValueError, match="64-bit"):
            Polygon((1, 2, WEIGHT_MAX + 1))

    def test_rank_orders_by_weight_then_index(self):
        poly = Polygon((5, 1, 5, 2))
        assert poly.rank == (1, 3, 0, 2)  # ties: node 0 before node 2
        assert poly.rank_of == (2, 0, 3, 1)
        assert weight_rank(poly) == [1, 3, 0, 2]

    def test_neighbors_and_arcs(self):
        poly = Polygon((1, 2, 3, 4, 5))
        assert poly.cw_next(4) == 0 and poly.cw_prev(0) == 4
        assert poly.adjacent(0, 4) and poly.adjacent(2, 3)
        assert not poly.adjacent(0, 2)
        assert poly.is_side(4, 0)
        assert poly.arc_len(3, 1) == 3
        assert poly.arc_len(1, 3) == 2
        assert poly.lighter(0, 1) and not poly.lighter(3, 2)

    def test_lighter_breaks_ties_by_index(self):
        poly = Polygon((7, 7, 1))
        assert poly.lighter(0, 1)
        assert not poly.lighter(1, 0)


class TestTriangleWeightFn:
    def test_builtin_values(self):
        assert TriangleWeightFn.multiplicative()(2, 3, 4) == 24
        assert TriangleWeightFn.additive()(2, 3, 4) == 9
        assert TriangleWeightFn.product_plus_sum()(2, 3, 4) == 33

    def test_vec_matches_fn(self, weight_fns):
        np = pytest.importorskip("numpy")
        xs = np.array([1, 7, 500], dtype=np.int64)
        ys = np.array([2, 1, 999], dtype=np.int64)
        zs = np.array([3, 4, 123], dtype=np.int64)
        for f in weight_fns.values():
            got = f.vec(xs, ys, zs)
            want = [f(int(x), int(y), int(z)) for x, y, z in zip(xs, ys, zs)]
            assert got.tolist() == want

    def test_custom_monotone_passes(self):
        f = TriangleWeightFn.custom(lambda x, y, z: x * y + y * z + z * x)
        f.ensure_monotonic()
        f.ensure_monotonic()  # cached second call

    def test_non_monotonic_rejected(self):
        f = TriangleWeightFn.custom(lambda x, y, z: -(x + y + z))
        with pytest.raises(MonotonicityError):
            f.ensure_monotonic()

    def test_non_symmetric_rejected(self):
        f = TriangleWeightFn.custom(lambda x, y, z: x + 2 * y + 3 * z)
        with pytest.raises(MonotonicityError, match="symmetric"):
            f.ensure_monotonic()

    def test_vec_disagreeing_with_fn_rejected_before_any_solve(self):
        # unchecked, dp3 returned 175412 here (its edges re-weigh to 7354, the
        # optimum is 6811) and yao raised a bare AssertionError
        f = TriangleWeightFn.custom(lambda x, y, z: x + y + z, vec=lambda x, y, z: x * y * z)
        rng = random.Random(5)
        poly = Polygon(tuple(rng.randint(1, 100) for _ in range(80)))
        for solve in (solve_dp_cubic, solve_yao, solve_bst):
            with pytest.raises(MonotonicityError, match="vec disagrees with fn"):
                solve(poly, f)

    def test_negative_floor_rejected(self):
        f = TriangleWeightFn.custom(lambda x, y, z: x + y + z - 10)
        with pytest.raises(MonotonicityError, match="negative"):
            f.ensure_monotonic()


class TestOverflowGuards:
    def test_int64_safe_boundary(self):
        fm = TriangleWeightFn.multiplicative()
        assert int64_safe(Polygon((1, 2, 5, 3)), fm)
        assert not int64_safe(Polygon((2**21, 2**21, 2**21, 2**21)), fm)

    def test_accumulator_bound(self):
        fm = TriangleWeightFn.multiplicative()
        check_accumulator_bound(Polygon((10**6,) * 4), fm)
        with pytest.raises(OverflowError):
            check_accumulator_bound(Polygon((WEIGHT_MAX,) * 4), fm)

    def test_triangulation_weight_overflow(self):
        fm = TriangleWeightFn.multiplicative()
        poly = Polygon((WEIGHT_MAX, WEIGHT_MAX, WEIGHT_MAX))
        with pytest.raises(OverflowError):
            triangulation_weight(poly, frozenset(), fm)


class TestValidation:
    def test_quad_valid_sets(self):
        assert validate_triangulation(QUAD, {(0, 2)}).ok
        assert validate_triangulation(QUAD, {(1, 3)})
        assert require_valid(QUAD, {(3, 1)}) == {(1, 3)}

    def test_count_violation(self):
        res = validate_triangulation(QUAD, set())
        assert not res.ok and res.kind == "count"
        res = validate_triangulation(QUAD, {(0, 2), (1, 3)})
        assert res.kind == "count"

    def test_side_violation(self):
        res = validate_triangulation(QUAD, {(0, 1)})
        assert not res.ok and res.kind == "side"
        # wrap-around side
        res = validate_triangulation(QUAD, {(3, 0)})
        assert res.kind == "side"

    def test_crossing_violation(self):
        poly = Polygon((1,) * 6)
        res = validate_triangulation(poly, {(0, 2), (1, 3), (0, 3)})
        assert not res.ok and res.kind == "crossing"

    def test_nested_ok(self):
        poly = Polygon((1,) * 6)
        assert validate_triangulation(poly, {(0, 2), (0, 3), (0, 4)}).ok
        assert validate_triangulation(poly, {(1, 5), (2, 5), (2, 4)}).ok

    def test_degenerate_and_range_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            validate_triangulation(QUAD, {(2, 2)})
        with pytest.raises(ValueError, match="out of range"):
            validate_triangulation(QUAD, {(0, 4)})

    def test_require_valid_raises(self):
        with pytest.raises(InvalidTriangulationError, match="count"):
            require_valid(QUAD, set())

    def test_accepts_triangulation_object(self):
        tri = Triangulation(frozenset({(2, 0)}), 25)
        assert tri.edges == frozenset({(0, 2)})  # normalized on construction
        assert validate_triangulation(QUAD, tri).ok

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_crossing_sweep_matches_pairwise_oracle(self, data):
        # any n-3 distinct chords form a triangulation iff pairwise non-crossing
        n = data.draw(st.integers(min_value=4, max_value=12))
        poly = Polygon((1,) * n)
        chords = [
            (a, b) for a in range(n) for b in range(a + 2, n) if (a, b) != (0, n - 1)
        ]
        edges = data.draw(st.permutations(chords)).copy()[: n - 3]
        res = validate_triangulation(poly, set(edges))
        assert res.ok == (not any_crossing(edges))
        if not res.ok:
            assert res.kind == "crossing"


class TestListTriangles:
    def test_fan(self):
        poly = Polygon((1,) * 6)
        tris = list_triangles(poly, {(0, 2), (0, 3), (0, 4)})
        assert tris == {(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)}

    def test_triangle_count_and_weight(self, weight_fns):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(3, 10)
            poly = Polygon(tuple(rng.randint(1, 9) for _ in range(n)))
            # greedy random triangulation by repeated ear cuts
            ring = list(range(n))
            edges = set()
            while len(ring) > 3:
                i = rng.randrange(len(ring))
                a, b, c = ring[(i - 1) % len(ring)], ring[i], ring[(i + 1) % len(ring)]
                if not poly.adjacent(a, c):
                    edges.add(norm_edge(a, c))
                ring.pop(i)
            tris = list_triangles(poly, edges)
            assert len(tris) == n - 2
            w = poly.weights
            for f in weight_fns.values():
                want = sum(f(w[a], w[b], w[c]) for a, b, c in tris)
                assert triangulation_weight(poly, edges, f) == want

    def test_rejects_invalid(self):
        with pytest.raises(InvalidTriangulationError):
            list_triangles(QUAD, {(0, 2), (1, 3)})


class TestPolygonFormat:
    def test_round_trip(self):
        text = format_polygon(QUAD)
        assert text == "4\n1 2 5 3\n"
        assert parse_polygon(text) == QUAD

    def test_parse_tolerates_blank_lines(self):
        assert parse_polygon("\n4\n\n1 2 5 3\n\n") == QUAD

    @pytest.mark.parametrize(
        "text",
        [
            "4\n1 2 5\n",  # count mismatch
            "4\n",  # missing weights
            "4\n1 2 5 3\n9 9 9\n",  # extra line
            "2\n1 2\n",  # too small
            "x\n1 2 5 3\n",  # not an int
            "4\n1 two 5 3\n",
        ],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_polygon(text)

    def test_load(self, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text(format_polygon(QUAD))
        from polytri import load_polygon

        assert load_polygon(str(path)) == QUAD
