"""Bridge finders against a from-the-definition oracle, plus cone plumbing."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bridges_by_definition, chords_cross
from polytri import (
    Cone,
    Polygon,
    cone_nodes,
    enumerate_cones,
    find_bridges_linear,
    find_bridges_walk,
    gen_staircase,
)


def tables_equal(a, b):
    return (a.left, a.right, a.lc, a.rc) == (b.left, b.right, b.lc, b.rc)


def s_nodes(table):
    return {(u, v): table.s_node(u, v) for u, v in table.bridges}


def s_by_definition(poly):
    return {uv: s for uv, (s, _) in bridges_by_definition(poly).items()}


def nearest_lighter(poly, x, step):
    """The first node from x in direction step (+1 clockwise) lighter than x, or None."""
    n, w = poly.n, poly.weights
    for i in range(1, n):
        t = (x + step * i) % n
        if (w[t], t) < (w[x], x):
            return t
    return None


class TestFinders:
    def test_quad_golden(self):
        table = find_bridges_walk(Polygon((1, 2, 5, 3)))
        assert table.bridges == ((1, 3), (1, 0))
        assert s_nodes(table) == {(1, 3): 2, (1, 0): 3}
        assert (table.left, table.right) == ([-1, -1, 1, 1], [-1, -1, 3, 0])
        assert (table.lc, table.rc) == ([-1, -1, -1, 2], [-1, 3, -1, -1])

    def test_staircase_golden(self):
        table = find_bridges_linear(gen_staircase(3))
        assert table.bridges == ((1, 5), (1, 0), (2, 4), (2, 5))
        assert s_nodes(table) == {(1, 5): 2, (1, 0): 5, (2, 4): 3, (2, 5): 4}

    def test_triangle_has_one_bridge(self):
        table = find_bridges_walk(Polygon((2, 3, 4)))
        assert table.bridges == ((1, 0),)
        assert s_nodes(table) == {(1, 0): 2}

    def test_finders_agree_with_definition(self):
        rng = random.Random(41)
        for _ in range(250):
            n = rng.randint(3, 60)
            poly = Polygon(tuple(rng.randint(1, 40) for _ in range(n)))
            walk = find_bridges_walk(poly)
            linear = find_bridges_linear(poly)
            assert tables_equal(walk, linear)
            assert s_nodes(walk) == s_by_definition(poly)

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=24))
    @example([2, 1, 2, 1, 3, 1, 2, 2, 3, 1, 1, 2])  # test_cli's tie-heavy bridge golden
    @settings(max_examples=150, deadline=None)
    def test_finders_agree_on_tie_heavy_weights(self, weights):
        poly = Polygon(tuple(weights))
        walk = find_bridges_walk(poly)
        assert tables_equal(walk, find_bridges_linear(poly))
        assert s_nodes(walk) == s_by_definition(poly)

    @given(
        st.sampled_from([3, 10**6]).flatmap(
            lambda hi: st.lists(st.integers(1, hi), min_size=3, max_size=60)
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_table_is_the_nearest_lighter_neighbours(self, weights):
        """Each node but the two lightest is S of the bridge between its
        nearest lighter neighbours; lc and rc are S of its half-arcs."""
        poly = Polygon(tuple(weights))
        n = poly.n
        oracle = s_by_definition(poly)
        for finder in (find_bridges_walk, find_bridges_linear):
            table = finder(poly)
            assert len(table) == n - 2 == len(oracle)
            for x in range(n):
                u, v = nearest_lighter(poly, x, -1), nearest_lighter(poly, x, 1)
                if u is None:  # the lightest node
                    assert (table.left[x], table.right[x], table.lc[x], table.rc[x]) == (-1,) * 4
                    continue
                if u == v:  # the second lightest: both neighbours are the lightest
                    assert (table.left[x], table.right[x]) == (-1, -1)
                else:
                    assert (table.left[x], table.right[x]) == (u, v)
                    assert oracle[(u, v)] == x
                assert table.lc[x] == oracle.get((u, x), -1)
                assert table.rc[x] == oracle.get((x, v), -1)
                assert (table.lc[x] < 0) == ((x - u) % n == 1)
                assert (table.rc[x] < 0) == ((v - x) % n == 1)
            for u in range(n):
                for v in range(n):
                    if (u, v) in oracle:
                        assert table.s_node(u, v) == oracle[(u, v)]
                    else:
                        with pytest.raises(KeyError):
                            table.s_node(u, v)

    def test_structural_properties(self):
        rng = random.Random(43)
        for _ in range(80):
            n = rng.randint(3, 40)
            poly = Polygon(tuple(rng.randint(1, 10**6) for _ in range(n)))
            table = find_bridges_walk(poly)
            assert len(table) == n - 2
            # canonical order: by u, then clockwise arc length
            keys = [(u, (v - u) % n) for u, v in table.bridges]
            assert keys == sorted(keys)
            pairs = [tuple(sorted(b)) for b in table.bridges]
            for i, p in enumerate(pairs):
                for q in pairs[i + 1 :]:
                    assert not chords_cross(p, q)
            for u, v in table.bridges:
                span = (v - u) % n
                assert span >= 2
                arc = [(u + k) % n for k in range(1, span)]
                lightest = min(arc, key=lambda t: (poly.weights[t], t))
                assert table.s_node(u, v) == lightest


class TestCones:
    def test_cone_nodes_goldens(self):
        poly = Polygon((1, 2, 4, 6, 5, 3))
        assert cone_nodes(poly, Cone(2, 4)) == [2, 3, 4]
        assert cone_nodes(poly, Cone(2, 4, apex=1)) == [1, 2, 3, 4]
        assert cone_nodes(poly, Cone(1, 0)) == [1, 2, 3, 4, 5, 0]

    def test_cone_nodes_rejects_bad_cones(self):
        poly = Polygon((1, 2, 4, 6, 5, 3))
        with pytest.raises(ValueError, match="empty arc interior"):
            cone_nodes(poly, Cone(2, 3))
        with pytest.raises(ValueError, match="lies on the arc"):
            cone_nodes(poly, Cone(2, 4, apex=3))

    def test_enumerate_cones_matches_count(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(3, 30)
            poly = Polygon(tuple(rng.randint(1, 99) for _ in range(n)))
            table = find_bridges_linear(poly)
            cones = enumerate_cones(poly, table)
            assert len(cones) == table.total_cones()
            for cone in cones:
                table.s_node(cone.u, cone.v)  # KeyError unless a bridge
                if cone.apex is not None:
                    # apex strictly lighter than both endpoints
                    rank_of = poly.rank_of
                    assert rank_of[cone.apex] < rank_of[cone.u]
                    assert rank_of[cone.apex] < rank_of[cone.v]

    def test_enumerate_order_per_bridge(self):
        poly = gen_staircase(3)
        table = find_bridges_linear(poly)
        cones = enumerate_cones(poly, table)
        assert cones == [
            Cone(1, 5, None),
            Cone(1, 5, 0),
            Cone(1, 0, None),
            Cone(2, 4, None),
            Cone(2, 4, 0),
            Cone(2, 4, 1),
            Cone(2, 4, 5),
            Cone(2, 5, None),
            Cone(2, 5, 0),
            Cone(2, 5, 1),
        ]

    @settings(deadline=None, max_examples=80)
    @given(
        weights=st.one_of(
            st.lists(st.integers(1, 10**6), min_size=3, max_size=200),
            st.lists(st.integers(1, 4), min_size=3, max_size=200),
            st.integers(2, 100).map(lambda h: gen_staircase(h).weights),
        ),
        turn=st.integers(0, 199),
    )
    def test_total_cones_is_the_census_sum(self, weights, turn):
        # random, tie-heavy and rotated staircase polygons
        turn %= len(weights)
        poly = Polygon(tuple(weights[turn:]) + tuple(weights[:turn]))
        table = find_bridges_linear(poly)
        rank_of = poly.rank_of
        census = sum(1 + min(rank_of[u], rank_of[v]) for u, v in zip(table.left, table.right) if u >= 0)
        total = table.total_cones()
        assert type(total) is int and total == census
        assert "arrays" not in vars(table)  # the census converts nothing

    @pytest.mark.parametrize("poly", [Polygon((4, 5, 6)), gen_staircase(10), Polygon((3, 1, 4, 1, 5, 9, 2, 6))])
    def test_arrays_are_the_lists_read_only_and_cached(self, poly):
        table = find_bridges_linear(poly)
        arrays = table.arrays
        lists = (table.left, table.right, table.lc, table.rc, poly.rank_of)
        assert len(arrays) == len(lists)
        for a, want in zip(arrays, lists):
            assert a.dtype == np.int64 and a.tolist() == list(want)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        table.total_cones()
        assert table.arrays is arrays

    @pytest.mark.parametrize("half_n", [2, 3, 10])
    def test_staircase_total_cones_closed_form(self, half_n):
        table = find_bridges_linear(gen_staircase(half_n))
        assert table.total_cones() == (2 * half_n - 2) * (2 * half_n - 1) // 2
