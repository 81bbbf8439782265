"""Instance generators: shapes, reproducibility, and argument validation."""

import pytest

from polytri import (
    TriangleWeightFn,
    gen_heuristic_worst,
    gen_random,
    gen_random_chain,
    gen_staircase,
    solve_bruteforce,
    solve_bst,
)


class TestStaircase:
    @pytest.mark.parametrize(
        "half_n,weights",
        [
            (2, (1, 2, 4, 3)),
            (3, (1, 2, 4, 6, 5, 3)),
            (4, (1, 2, 4, 6, 8, 7, 5, 3)),
        ],
    )
    def test_goldens(self, half_n, weights):
        assert gen_staircase(half_n).weights == weights

    @pytest.mark.parametrize("half_n", [2, 5, 17])
    def test_weights_are_a_rank_permutation(self, half_n):
        poly = gen_staircase(half_n)
        n = 2 * half_n
        assert sorted(poly.weights) == list(range(1, n + 1))
        # weight == rank + 1 by construction
        assert all(poly.weights[poly.rank[r]] == r + 1 for r in range(n))

    def test_rejects_small(self):
        with pytest.raises(ValueError, match="half_n >= 2"):
            gen_staircase(1)


class TestHeuristicWorst:
    def test_goldens(self):
        assert gen_heuristic_worst(5, 4).weights == (1, 1, 4, 4, 1)
        assert gen_heuristic_worst(4, 1).weights == (1, 1, 1, 1)
        assert gen_heuristic_worst(6, 3).weights == (1, 1, 1, 3, 3, 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n >= 4"):
            gen_heuristic_worst(3, 10)
        with pytest.raises(ValueError, match="positive"):
            gen_heuristic_worst(5, 0)

    def test_perturbed_weights_are_distinct_and_order_preserving(self):
        for n, t in ((5, 4), (8, 10), (13, 2)):
            base = gen_heuristic_worst(n, t)
            pert = gen_heuristic_worst(n, t, perturb=True)
            assert len(set(pert.weights)) == n
            # perturbation never reorders: equal base weights split by rank
            for i in range(n):
                for j in range(n):
                    if base.weights[i] < base.weights[j]:
                        assert pert.weights[i] < pert.weights[j]

    def test_perturbation_preserves_optimal_structure(self):
        fa = TriangleWeightFn.additive()
        for n, t in ((5, 4), (7, 9)):
            base = gen_heuristic_worst(n, t)
            pert = gen_heuristic_worst(n, t, perturb=True)
            _, tri, _ = solve_bst(pert, fa)
            # the perturbed optimum is also a base optimum
            opt, winners = solve_bruteforce(base, fa)
            assert tri.edges in winners


class TestRandom:
    def test_reproducible(self):
        assert gen_random(20, seed=5).weights == gen_random(20, seed=5).weights
        assert gen_random(20, seed=5).weights != gen_random(20, seed=6).weights

    def test_bounds(self):
        poly = gen_random(500, seed=1, lo=10, hi=12)
        assert all(10 <= w <= 12 for w in poly.weights)

    def test_distinct(self):
        poly = gen_random(100, seed=2, lo=1, hi=150, distinct=True)
        assert len(set(poly.weights)) == 100

    def test_distinct_needs_room(self):
        with pytest.raises(ValueError, match="distinct"):
            gen_random(10, seed=0, lo=1, hi=5, distinct=True)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 3"):
            gen_random(2, seed=0)


class TestRandomChain:
    def test_shape_and_reproducibility(self):
        chain = gen_random_chain(6, seed=11)
        assert chain.n_matrices == 6
        assert len(chain.dims) == 7
        assert chain == gen_random_chain(6, seed=11)
        assert all(1 <= d <= 100 for d in chain.dims)

    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError, match="at least one matrix"):
            gen_random_chain(0, seed=0)
