"""Bridge finders against a from-the-definition oracle, plus cone plumbing."""

import random

import pytest
from hypothesis import given, settings
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
    return a.bridges == b.bridges and a.s == b.s


class TestFinders:
    def test_quad_golden(self):
        table = find_bridges_walk(Polygon((1, 2, 5, 3)))
        assert table.bridges == ((1, 3), (1, 0))
        assert table.s == {(1, 3): (2, 5), (1, 0): (3, 3)}

    def test_staircase_golden(self):
        table = find_bridges_linear(gen_staircase(3))
        assert table.bridges == ((1, 5), (1, 0), (2, 4), (2, 5))
        assert table.s == {
            (1, 5): (2, 4),
            (1, 0): (5, 3),
            (2, 4): (3, 6),
            (2, 5): (4, 5),
        }

    def test_triangle_has_one_bridge(self):
        table = find_bridges_walk(Polygon((2, 3, 4)))
        assert table.bridges == ((1, 0),)
        assert table.s == {(1, 0): (2, 4)}

    def test_finders_agree_with_definition(self):
        rng = random.Random(41)
        for _ in range(250):
            n = rng.randint(3, 60)
            poly = Polygon(tuple(rng.randint(1, 40) for _ in range(n)))
            walk = find_bridges_walk(poly)
            linear = find_bridges_linear(poly)
            assert tables_equal(walk, linear)
            assert walk.s == bridges_by_definition(poly)

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_finders_agree_on_tie_heavy_weights(self, weights):
        poly = Polygon(tuple(weights))
        walk = find_bridges_walk(poly)
        assert tables_equal(walk, find_bridges_linear(poly))
        assert walk.s == bridges_by_definition(poly)

    def test_structural_properties(self):
        rng = random.Random(43)
        for _ in range(80):
            n = rng.randint(3, 40)
            poly = Polygon(tuple(rng.randint(1, 10**6) for _ in range(n)))
            table = find_bridges_walk(poly)
            assert len(table) <= n - 1
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
                assert table.s[(u, v)] == (lightest, poly.weights[lightest])


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
                assert (cone.u, cone.v) in table.s
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

    @pytest.mark.parametrize("half_n", [2, 3, 10])
    def test_staircase_total_cones_closed_form(self, half_n):
        table = find_bridges_linear(gen_staircase(half_n))
        assert table.total_cones() == (2 * half_n - 2) * (2 * half_n - 1) // 2
