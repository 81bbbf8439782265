"""Polygon, weight functions, validation, file format."""

import copy
import pickle
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polytri import (
    ChainDims,
    InvalidTriangulationError,
    MonotonicityError,
    Polygon,
    SolverInvariantError,
    TriangleWeightFn,
    Triangulation,
    format_polygon,
    list_triangles,
    norm_edge,
    parenthesization_cost,
    parse_polygon,
    require_valid,
    solve_bruteforce,
    solve_bst,
    solve_dp_cubic,
    solve_yao,
    triangulation_weight,
    validate_triangulation,
)
from polytri import core
from polytri.core import WEIGHT_MAX, check_accumulator_bound, int64_safe

from conftest import any_crossing, chords_cross, triangles_by_definition

QUAD = Polygon((1, 2, 5, 3))


def assert_arrays(poly):
    """poly.arrays holds the rows weights, rank (by weight, then index) and rank_of, read-only int64."""
    arrays, w = poly.arrays, poly.weights
    assert arrays.dtype == np.int64 and arrays.shape == (3, poly.n) and not arrays.flags.writeable
    rank = sorted(range(poly.n), key=lambda i: (w[i], i))
    assert arrays.tolist() == [list(w), rank, sorted(range(poly.n), key=rank.__getitem__)]
    assert (poly.rank, poly.rank_of) == tuple(map(tuple, arrays[1:].tolist()))


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

    @pytest.mark.parametrize("bad", [1.9, Fraction(7, 2), "4"], ids=["float", "fraction", "str"])
    def test_rejects_non_integral_weight(self, bad):
        # truncating would solve a different polygon from the one given
        with pytest.raises(ValueError, match="weight of node 1 is not an integer"):
            Polygon((1, bad, 3, 4))

    def test_accepts_numpy_integers(self):
        poly = Polygon(tuple(np.array([3, 1, 2], np.int64)))
        assert poly.weights == (3, 1, 2)
        assert all(type(w) is int for w in poly.weights)

    @settings(max_examples=150, deadline=None)
    @given(
        w=st.sampled_from([2, 3, 10**6, 2**62, WEIGHT_MAX]).flatmap(
            lambda hi: st.lists(st.integers(1, hi), min_size=3, max_size=2000)
        )
    )
    @example(w=[2**62, 1, WEIGHT_MAX, 2**62 - 1, 7, WEIGHT_MAX])  # keys w * n + i would leave int64
    def test_rank_orders_by_weight_then_index(self, w):
        poly = Polygon((5, 1, 5, 2))
        assert poly.rank == (1, 3, 0, 2)  # ties: node 0 before node 2
        assert poly.rank_of == (2, 0, 3, 1)
        poly = Polygon(tuple(w))  # tie-heavy at hi = 2 and 3
        assert poly.rank == tuple(sorted(range(len(w)), key=lambda i: (w[i], i)))
        assert all(poly.rank[r] == i for i, r in enumerate(poly.rank_of))

    def test_neighbors_and_arcs(self):
        poly = Polygon((1, 2, 3, 4, 5))
        assert poly.adjacent(0, 4) and poly.adjacent(2, 3)
        assert not poly.adjacent(0, 2)
        assert poly.adjacent(4, 0)
        assert poly.arc_len(3, 1) == 3
        assert poly.arc_len(1, 3) == 2
        assert poly.rank_of[0] < poly.rank_of[1]
        assert not poly.rank_of[3] < poly.rank_of[2]

    def test_lighter_breaks_ties_by_index(self):
        poly = Polygon((7, 7, 1))
        assert poly.rank_of[0] < poly.rank_of[1]
        assert not poly.rank_of[1] < poly.rank_of[0]


class TestPolygonRoute:
    """Accepted weights take one numpy route; the Python loop words every refusal."""

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((3, 0, 5), "node 1 has non-positive weight 0"),
            ((3, -4, 5), "node 1 has non-positive weight -4"),
            ((3, 1.9, 5), "weight of node 1 is not an integer: 1.9"),
            ((3, Fraction(7, 2), 5), "weight of node 1 is not an integer: Fraction(7, 2)"),
            ((3, "4", 5), "weight of node 1 is not an integer: '4'"),
            ((3, 2**63, 5), "node 1 weight 9223372036854775808 exceeds the signed 64-bit limit"),
            ((3, np.float64(2.0), 5), "weight of node 1 is not an integer: np.float64(2.0)"),
            ((3, np.bool_(True), 5), "weight of node 1 is not an integer: np.True_"),
            ((3, np.uint64(2**63), 5), "node 1 weight 9223372036854775808 exceeds the signed 64-bit limit"),
            ((3, 4), "polygon needs at least 3 nodes, got 2"),
            ((), "polygon needs at least 3 nodes, got 0"),
            ((0, 1.9), "weight of node 1 is not an integer: 1.9"),  # every weight is read first
            ((5, -1, 2**63), "node 1 has non-positive weight -1"),  # then the first fault by index
            ((1, 2, -(2**64)), "node 2 has non-positive weight -18446744073709551616"),
            ("345", "weight of node 0 is not an integer: '3'"),
            ((w for w in (3, 1.5, 2)), "weight of node 1 is not an integer: 1.5"),
        ],
    )
    def test_refusals_keep_their_words(self, weights, message):
        with mock.patch.object(core, "as_ints", wraps=core.as_ints) as loop:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Polygon(weights)
        assert loop.call_count == 1  # the loop words it

    @pytest.mark.parametrize(
        "weights, want",
        [
            ((3, 1, 2), (3, 1, 2)),
            ((True, 2, 3), (1, 2, 3)),
            (tuple(np.array([3, 1, 2, 9], np.int64)), (3, 1, 2, 9)),
            (tuple(np.array([3, 1, 2], np.uint8)), (3, 1, 2)),
            (np.array([3, 1, 2, WEIGHT_MAX], np.int64), (3, 1, 2, WEIGHT_MAX)),
            ([5, 5, 5], (5, 5, 5)),
            ((w for w in (2, 7, 1)), (2, 7, 1)),
        ],
    )
    def test_accepted_weights_are_python_ints(self, weights, want):
        with mock.patch.object(core, "as_ints", wraps=core.as_ints) as loop:
            poly = Polygon(weights)
        assert loop.call_count == 0  # the numpy route alone
        assert poly.weights == want and poly.n == len(want)
        for field in (poly.weights, poly.rank, poly.rank_of):
            assert type(field) is tuple and all(type(v) is int for v in field)
        assert type(poly.wmax) is int and poly.wmax == max(want)
        assert_arrays(poly)
        assert poly == Polygon(want)

    def test_a_copy_or_a_pickle_rebuilds_read_only_arrays(self):
        poly = Polygon((5, 1, 5, 2, WEIGHT_MAX))
        for twin in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
            assert twin == poly and twin.wmax == WEIGHT_MAX
            assert_arrays(twin)

    def test_a_tuple_of_ints_is_kept(self):
        weights = (3, 10**6, 2)
        assert Polygon(weights).weights is weights  # no second copy of each int


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

    def test_vec_returning_non_int64_rejected_before_any_solve(self):
        # vec agrees with fn, but its Fractions would be truncated in the int64
        # tables: unchecked, dp3 "numpy" returned 15156 for 106111/7 on the
        # polygon random.Random(5) draws, bruteforce 16 for 118/7 here, and
        # bst raised SolverInvariantError at random n=3000
        g = lambda x, y, z: Fraction(x * y * z + x + y + z, 7)
        poly = Polygon((3, 1, 4, 1, 5, 9))
        for solve in (solve_dp_cubic, solve_yao, solve_bst, solve_bruteforce):
            with pytest.raises(MonotonicityError, match="vec returns object on int64 arrays"):
                solve(poly, TriangleWeightFn.custom(g, vec=np.frompyfunc(g, 3, 1)))
        # without vec the same fn solves exactly
        f = TriangleWeightFn.custom(g)
        assert solve_bruteforce(poly, f)[0] == Fraction(118, 7)
        for solve in (solve_dp_cubic, solve_yao, solve_bst):
            assert solve(poly, f)[0] == Fraction(118, 7)
        rng = random.Random(5)
        assert solve_dp_cubic(Polygon(tuple(rng.randint(1, 50) for _ in range(6))), f)[0] == Fraction(106111, 7)

    def test_vec_wrong_at_int64_boundary_rejected(self):
        # agrees with fn on every triple up to 1000, wrong from x*y*z >= 2**40
        f = TriangleWeightFn.custom(
            lambda x, y, z: x * y * z, vec=lambda x, y, z: x * y * z % 2**40
        )
        with pytest.raises(MonotonicityError, match="vec disagrees with fn"):
            f.ensure_monotonic()

    def test_vec_failing_on_object_arrays_rejected(self):
        # exact in int64, but the vector engines also pass object arrays
        f = TriangleWeightFn.custom(
            lambda x, y, z: x * y * z, vec=lambda x, y, z: (x * y * z).astype(np.int64)
        )
        with pytest.raises(MonotonicityError, match="vec raised on object arrays"):
            f.ensure_monotonic()

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

    @pytest.mark.parametrize("edge", [(0.5, 2.9), (0, 2.0), (Fraction(2), 0), ("0", 2)])
    def test_rejects_non_integral_endpoints(self, edge):
        # read as the edge (0, 2) if truncated; under add that set weighs 17
        with pytest.raises(ValueError, match="not an integer"):
            validate_triangulation(QUAD, [edge])
        with pytest.raises(ValueError, match="not an integer"):
            triangulation_weight(QUAD, [edge], TriangleWeightFn.additive())

    @pytest.mark.parametrize("edge", [(0.5, 2.9), (2.5, 0), (Fraction(2), 0), ("0", 2)])
    def test_triangulation_refuses_non_integral_endpoints(self, edge):
        # the rule and message of validate_triangulation; an iterator's edge cannot be named
        with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} has an endpoint")):
            Triangulation(frozenset({(1, 3), edge}), 1)
        with pytest.raises(ValueError, match="has an endpoint that is not an integer"):
            Triangulation(iter([(1, 3), edge]), 1)

    def test_triangulation_takes_numpy_integers_as_ints(self):
        tri = Triangulation([(np.int64(2), np.int32(0)), (1, np.int64(3))], 25)
        assert tri.edges == frozenset({(0, 2), (1, 3)})
        assert all(type(v) is int for e in tri.edges for v in e)

    def test_accepts_numpy_integer_endpoints(self):
        edges = [(np.int64(0), np.int32(2))]
        assert validate_triangulation(QUAD, edges).ok
        assert require_valid(QUAD, edges) == {(0, 2)}
        assert all(type(v) is int for e in require_valid(QUAD, edges) for v in e)
        assert triangulation_weight(QUAD, edges, TriangleWeightFn.additive()) == 17

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
        # any n-3 distinct chords form a triangulation iff pairwise non-crossing;
        # with sides among the pairs, the least side is reported before any crossing
        n = data.draw(st.integers(min_value=4, max_value=12))
        poly = Polygon((1,) * n)
        with_sides = data.draw(st.booleans())
        pairs = [
            (a, b) for a in range(n) for b in range(a + 1, n) if with_sides or not poly.adjacent(a, b)
        ]
        edges = data.draw(st.permutations(pairs)).copy()[: n - 3]
        res = validate_triangulation(poly, set(edges))
        sides = sorted(e for e in edges if poly.adjacent(*e))
        if sides:
            assert (res.ok, res.kind) == (False, "side")
            assert res.detail == f"edge {sides[0]} duplicates a polygon side"
            return
        assert res.ok == (not any_crossing(edges))
        if not res.ok:
            assert res.kind == "crossing"
            e1, e2 = (tuple(map(int, pair)) for pair in re.findall(r"\((\d+), (\d+)\)", res.detail))
            assert {e1, e2} <= set(edges) and chords_cross(e1, e2)


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

    def test_wrong_triangle_count_raises_invariant_error(self, monkeypatch):
        # reachable only if the sweep's fans lost a triangle
        sweep = core._sweep

        def lossy(poly, edges):
            res, es, tris = sweep(poly, edges)
            return res, es, tris[1:]

        monkeypatch.setattr(core, "_sweep", lossy)
        with pytest.raises(SolverInvariantError, match="expected 3 triangles, got 2"):
            list_triangles(Polygon((1,) * 5), {(0, 2), (0, 3)})

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_triangles_match_definition(self, data):
        # a random ear-cut triangulation; the chain reading of the same
        # polygon must cost what the multiplicative triangle sum says
        n = data.draw(st.integers(min_value=3, max_value=40))
        weights = data.draw(st.lists(st.integers(1, 10**4), min_size=n, max_size=n))
        poly = Polygon(tuple(weights))
        ring, edges = list(range(n)), set()
        while len(ring) > 3:
            i = data.draw(st.integers(0, len(ring) - 1))
            a, c = ring[i - 1], ring[(i + 1) % len(ring)]
            if not poly.adjacent(a, c):
                edges.add(norm_edge(a, c))
            ring.pop(i)
        assert list_triangles(poly, edges) == triangles_by_definition(poly, edges)
        assert parenthesization_cost(ChainDims(poly.weights), edges) == triangulation_weight(
            poly, edges, TriangleWeightFn.multiplicative()
        )


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
