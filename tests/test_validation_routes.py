"""The two routes that read an edge set: the numpy pass and the Python sweep.

From ``core.PASS_MIN_N`` nodes on, ``validate_triangulation``,
``require_valid``, ``list_triangles`` and ``triangulation_weight`` try the
sorted numpy pass first and hand every edge set it does not accept to the
sweep. These tests force each route by patching the crossover and require
the same public answers, errors and messages from both.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytri import (
    Polygon,
    TriangleWeightFn,
    list_triangles,
    norm_edge,
    require_valid,
    solve_bst,
    triangulation_weight,
    validate_triangulation,
)
from polytri import core
from polytri.generators import gen_random

FNS = {
    "mult": TriangleWeightFn.multiplicative(),
    "add": TriangleWeightFn.additive(),
    "custom": TriangleWeightFn.product_plus_sum(),
    "fraction": TriangleWeightFn.custom(lambda x, y, z: Fraction(x * y * z + x + y + z, 7)),
}
ROUTES = {"pass": 3, "sweep": 10**9}  # PASS_MIN_N that forces each route


def ear_cut(n: int, rng: random.Random) -> list[tuple[int, int]]:
    ring, edges = list(range(n)), []
    while len(ring) > 3:
        i = rng.randrange(len(ring))
        a, c = ring[i - 1], ring[(i + 1) % len(ring)]
        if (c - a) % n not in (1, n - 1):
            edges.append(norm_edge(a, c))
        ring.pop(i)
    rng.shuffle(edges)
    return [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # both routes must fail alike, so any exception is the answer
        return type(exc), str(exc)


def answers(poly: Polygon, make_edges) -> list:
    """Every public reading of the edge set; ``make_edges`` gives a fresh copy each time."""
    out = [
        outcome(validate_triangulation, poly, make_edges()),
        outcome(require_valid, poly, make_edges()),
        outcome(list_triangles, poly, make_edges()),
    ]
    out += [outcome(triangulation_weight, poly, make_edges(), f) for f in FNS.values()]
    return out


def on_route(route: str, poly: Polygon, make_edges) -> list:
    with mock.patch.object(core, "PASS_MIN_N", ROUTES[route]):
        return answers(poly, make_edges)


@contextmanager
def counted_sweeps():
    """A list that gains one entry per ``core._sweep`` call inside the block."""
    calls = []
    sweep = core._sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    with mock.patch.object(core, "_sweep", counted):
        yield calls


@settings(deadline=None, max_examples=150)
@given(
    n=st.integers(3, 300),
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(["valid", "perturbed", "random"]),
)
def test_routes_agree(n, seed, kind):
    rng = random.Random(seed)
    poly = Polygon(tuple(rng.randint(1, 10**4) for _ in range(n)))
    edges = ear_cut(n, rng)
    if kind == "perturbed" and edges:
        # any pair near the range: degenerate, out of range, a side, a crossing or a repeat
        edges[rng.randrange(len(edges))] = (rng.randint(-1, n), rng.randint(-1, n))
    elif kind == "random":
        edges = [(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(n - 3 + rng.randint(-1, 1))]
        if edges and rng.random() < 0.2:
            edges[rng.randrange(len(edges))] = rng.choice([(0, 2.5), ("2", 0), (Fraction(2), 0)])
    fast = on_route("pass", poly, lambda: list(edges))
    assert fast == on_route("sweep", poly, lambda: list(edges))
    if kind == "valid":
        with counted_sweeps() as calls:
            assert on_route("pass", poly, lambda: list(edges)) == fast
        assert fast[0].ok and calls == []


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "edges, error",
    [
        ([(0, 2), (2, 2), (0, 4)], "degenerate edge (2, 2)"),
        ([(0, 2), (0, 3), (0, 6)], "edge (0, 6) out of range for n=6"),
        ([(0, 2), (-1, 3), (0, 4)], "edge (-1, 3) out of range for n=6"),
        # keyed as -1 * 6 + 10, it would read as the chord (0, 4)
        ([(0, 2), (0, 3), (-1, 10)], "edge (-1, 10) out of range for n=6"),
        ([(0, 2), (0, 3), (0, 2**70)], f"edge (0, {2**70}) out of range for n=6"),
        ([(0, 2), (0, 2.5), (0, 4)], "edge (0, 2.5) has an endpoint that is not an integer"),
        ([(0, 2), ("2", 0), (0, 4)], "edge ('2', 0) has an endpoint that is not an integer"),
    ],
)
def test_bad_endpoints_raise_alike(route, edges, error):
    poly = Polygon((3, 1, 4, 1, 5, 9))
    for got in on_route(route, poly, lambda: list(edges)):
        assert got == (ValueError, error)


@pytest.mark.parametrize("bad", [2.5, "2", np.float64(2.0)], ids=["float", "str", "np-float"])
def test_pass_never_truncates_an_endpoint(bad):
    # read as 2, the set {(0, 2), (0, 3), (0, 4)} would triangulate the hexagon
    poly = Polygon((1,) * 6)
    assert core._pass(poly, [(0, bad), (0, 3), (0, 4)]) is None
    assert core._pass(poly, [(0, 2), (0, 3), (0, 4)]) is not None


@pytest.mark.parametrize("route", ROUTES)
def test_iterator_is_read_once(route):
    poly = gen_random(40, 3)
    edges = list(solve_bst(poly, FNS["add"])[1].edges)
    crossing = edges[:-1] + [(edges[-1][0] + 1, edges[-1][1] + 1)]
    for given_edges in (edges, crossing, edges[:-1]):
        assert on_route(route, poly, lambda: iter(given_edges)) == on_route(
            "sweep", poly, lambda: list(given_edges)
        )


@pytest.mark.parametrize(
    "edges, taken",
    [
        ([(np.int64(0), np.int32(2)), (np.int16(0), 3), (4, np.uint8(0))], True),
        ([(False, 2), (0, True), (0, 4)], False),  # (0, True) is a side
        ([(False, 2), (3, False), (False, 4)], True),
        ([(True, False), (0, 3), (0, 4)], False),
        ([(np.int64(0), np.int64(2)), (np.int64(0), np.int64(3)), (np.int64(5), np.int64(1))], False),
    ],
    ids=["numpy-ints", "bool-side", "bool-valid", "all-bool-pair", "numpy-crossing"],
)
def test_numpy_and_bool_endpoints(edges, taken):
    # numpy integers and bools are integers to both routes; the pass takes a valid set of them
    poly = Polygon((2, 7, 1, 8, 2, 8))
    assert (core._pass(poly, edges) is not None) == taken
    fast = on_route("pass", poly, lambda: list(edges))
    assert fast == on_route("sweep", poly, lambda: list(edges))
    for got in fast[1:3]:  # require_valid and list_triangles give Python ints on both routes
        if isinstance(got, set):
            assert all(type(v) is int for t in got for v in t)


@pytest.mark.parametrize(
    "edges", [[(0, 2, 0), (3,), (0, 4)], [(0, 2), (0, 3), [0, 4, 5]]], ids=["3+1", "3"]
)
def test_pairs_of_other_lengths_are_handed_to_the_sweep(edges):
    # flattened, the first reads as the fan {(0, 2), (0, 3), (0, 4)}
    poly = Polygon((1,) * 6)
    assert core._pass(poly, edges) is None
    fast = on_route("pass", poly, lambda: list(edges))
    assert fast == on_route("sweep", poly, lambda: list(edges))
    assert fast[0][0] is ValueError


def test_repeated_edge_is_handed_to_the_sweep():
    poly = Polygon((1,) * 6)
    repeated = [(0, 2), (0, 3), (0, 4), (4, 0)]  # n - 2 entries, n - 3 distinct
    assert core._pass(poly, repeated) is None
    assert validate_triangulation(poly, repeated).ok
    short = [(0, 2), (0, 3), (3, 0)]  # n - 3 entries, n - 4 distinct
    assert core._pass(poly, short) is None
    for edges in (repeated, short):
        assert on_route("pass", poly, lambda: list(edges)) == on_route("sweep", poly, lambda: list(edges))


@pytest.mark.parametrize(
    "weights, edges",
    [
        ((5, 6, 7), []),
        ((5, 6, 7), [(0, 1)]),
        ((5, 6, 5, 1), [(0, 2)]),
        ((5, 6, 5, 1), [(3, 1)]),
        ((5, 6, 5, 1), [(3, 0)]),
        ((5, 6, 5, 1), [(0, 2), (1, 3)]),
        ((5, 6, 5, 1), []),
    ],
)
def test_smallest_polygons(weights, edges):
    poly = Polygon(weights)
    fast = on_route("pass", poly, lambda: list(edges))
    assert fast == on_route("sweep", poly, lambda: list(edges))
    if poly.n == 3 and not edges:
        assert fast[0].ok and fast[2] == {(0, 1, 2)} and fast[4] == 18


def test_large_witness_never_reaches_the_sweep():
    # random n = 5000 is far above the crossover: the pass alone must
    # validate and re-weigh a solver's witness
    poly = gen_random(5000, 11)
    f = FNS["add"]
    opt, tri, _ = solve_bst(poly, f)
    with counted_sweeps() as calls:
        assert validate_triangulation(poly, tri).ok
        assert require_valid(poly, tri.edges) == tri.edges
        assert len(list_triangles(poly, tri.edges)) == poly.n - 2
        assert triangulation_weight(poly, tri, f) == opt
    assert calls == []
