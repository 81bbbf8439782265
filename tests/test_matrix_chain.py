"""Matrix-chain reduction: dims to polygon, triangulation to parenthesization."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import chain_cost_bruteforce
from polytri.matrix_chain import _fold
from polytri.toolkit import child_seed
from polytri import (
    ChainDims,
    Polygon,
    TriangleWeightFn,
    chain_to_polygon,
    enumerate_triangulations,
    format_chain,
    gen_random_chain,
    load_chain,
    parenthesization_cost,
    parse_chain,
    solve_bst,
    triangulation_to_parenthesization,
    triangulation_weight,
)


class TestChainDims:
    def test_basic(self):
        chain = ChainDims((10, 20, 30, 40))
        assert chain.n_matrices == 3

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="at least 2 dimensions"):
            ChainDims((7,))
        with pytest.raises(ValueError, match="non-positive"):
            ChainDims((10, 0, 30))

    @pytest.mark.parametrize("bad", [10.5, Fraction(21, 2), "10"], ids=["float", "fraction", "str"])
    def test_rejects_non_integral_dims(self, bad):
        with pytest.raises(ValueError, match="dimension 0 is not an integer"):
            ChainDims((bad, 20, 30))

    def test_accepts_numpy_integers(self):
        chain = ChainDims(tuple(np.array([10, 20, 30], np.int64)))
        assert chain.dims == (10, 20, 30)
        assert all(type(d) is int for d in chain.dims)

    def test_polygon_mapping(self):
        assert chain_to_polygon(ChainDims((10, 20, 30, 40))) == Polygon((10, 20, 30, 40))
        assert chain_to_polygon(ChainDims((10, 20))) is None


class TestParenthesization:
    def test_goldens(self):
        chain = ChainDims((10, 20, 30, 40))
        assert triangulation_to_parenthesization(chain, {(0, 2)}) == "((A1 A2) A3)"
        assert triangulation_to_parenthesization(chain, {(1, 3)}) == "(A1 (A2 A3))"
        assert triangulation_to_parenthesization(ChainDims((5, 7, 9)), set()) == "(A1 A2)"
        assert triangulation_to_parenthesization(ChainDims((5, 7)), set()) == "A1"

    def test_cost_goldens(self):
        chain = ChainDims((10, 20, 30, 40))
        assert parenthesization_cost(chain, {(0, 2)}) == 18000
        assert parenthesization_cost(chain, {(1, 3)}) == 32000
        assert parenthesization_cost(ChainDims((5, 7)), set()) == 0

    def test_grammar(self):
        rng = random.Random(103)
        for _ in range(25):
            chain = gen_random_chain(rng.randint(2, 10), seed=rng.randrange(2**30))
            poly = chain_to_polygon(chain)
            for edges in enumerate_triangulations(poly.n):
                text = triangulation_to_parenthesization(chain, edges)
                # balanced parens, and A1..An appear exactly once, in order
                depth = 0
                for ch in text:
                    depth += ch == "("
                    depth -= ch == ")"
                    assert depth >= 0
                assert depth == 0
                labels = re.findall(r"A(\d+)", text)
                assert [int(x) for x in labels] == list(range(1, chain.n_matrices + 1))
                break  # one structure per chain is plenty for the grammar

    def test_cost_equals_triangle_weight_sum(self):
        fm = TriangleWeightFn.multiplicative()
        rng = random.Random(107)
        for _ in range(20):
            chain = gen_random_chain(rng.randint(2, 8), seed=rng.randrange(2**30))
            poly = chain_to_polygon(chain)
            for edges in enumerate_triangulations(poly.n):
                assert parenthesization_cost(chain, edges) == (
                    triangulation_weight(poly, edges, fm)
                )

    def test_rejects_invalid_triangulation(self):
        chain = ChainDims((10, 20, 30, 40, 50))
        with pytest.raises(ValueError):
            parenthesization_cost(chain, {(0, 2), (1, 3)})
        with pytest.raises(ValueError):
            triangulation_to_parenthesization(chain, {(0, 2), (1, 3)})


def joined_parenthesization(chain, tri):
    """The text built by joining the two parts' strings at every triangle."""
    return _fold(chain, tri, lambda j: f"A{j}", lambda i, m, j, left, right: f"({left} {right})")


class TestParenthesizationText:
    def test_chain_cli_chains(self):
        # the benchmark's chain-cli chains, seed 1, with bst's witnesses
        fm = TriangleWeightFn.multiplicative()
        for m in range(100, 201, 10):
            for trial in range(8):
                chain = gen_random_chain(m, child_seed(1, m, trial), lo=1, hi=10**6)
                _, tri, _ = solve_bst(chain_to_polygon(chain), fm)
                text = triangulation_to_parenthesization(chain, tri)
                assert text == joined_parenthesization(chain, tri)

    def test_chains_of_1e5_matrices(self):
        n = 10**5
        chain = ChainDims(tuple(random.Random(3).randint(1, 50) for _ in range(n + 1)))
        # the deepest split tree: ((A1 A2) A3) ... An
        left_deep = {(0, j) for j in range(2, n)}
        want = "(" * (n - 1) + "A1" + "".join(f" A{j})" for j in range(2, n + 1))
        assert triangulation_to_parenthesization(chain, left_deep) == want
        # a random split tree, shallow enough to join strings at every triangle
        rng = random.Random(5)
        edges, todo = set(), [(0, n)]
        while todo:
            i, j = todo.pop()
            if j - i > 1:
                if (i, j) != (0, n):
                    edges.add((i, j))
                m = rng.randint(i + 1, j - 1)
                todo += (i, m), (m, j)
        text = triangulation_to_parenthesization(chain, edges)
        assert text == joined_parenthesization(chain, edges)


class TestAgainstBruteforce:
    def test_optimal_cost_matches_split_recursion(self):
        fm = TriangleWeightFn.multiplicative()
        for n_matrices in range(2, 13):
            for trial in range(4):
                chain = gen_random_chain(n_matrices, seed=1000 * n_matrices + trial)
                poly = chain_to_polygon(chain)
                opt, tri, _ = solve_bst(poly, fm)
                assert opt == chain_cost_bruteforce(chain.dims)
                assert parenthesization_cost(chain, tri) == opt

    def test_single_matrix_chain(self):
        assert chain_cost_bruteforce((10, 20)) == 0


class TestChainFormat:
    def test_round_trip(self, tmp_path):
        chain = ChainDims((10, 20, 30, 40))
        text = format_chain(chain)
        assert text == "3\n10 20 30 40\n"
        assert parse_chain(text) == chain
        path = tmp_path / "chain.txt"
        path.write_text(text, encoding="utf-8")
        assert load_chain(str(path)) == chain

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n10 20 30\n",
            "3\n10 20 30 40 50\n",
            "0\n10\n",
            "x\n10 20\n",
            "1\n10 twenty\n",
            "2\n10 20 30\nextra\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_chain(text)
