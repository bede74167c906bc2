import numpy as np
import pytest

from optbranch.errors import InputError
from optbranch.generators import erdos_renyi, grid_subgraph, kings_subgraph, three_regular

from oracles import degree


class TestThreeRegular:
    def test_every_vertex_degree_three(self):
        g = three_regular(20, seed=7)
        assert all(degree(g, v) == 3 for v in range(20))

    def test_odd_size_rejected(self):
        with pytest.raises(InputError):
            three_regular(21, seed=0)

    def test_seed_determinism(self):
        assert three_regular(30, seed=5) == three_regular(30, seed=5)
        assert three_regular(30, seed=5) != three_regular(30, seed=6)


class TestErdosRenyi:
    def test_mean_degree_concentrates(self):
        totals = []
        for seed in range(50):
            g = erdos_renyi(1000, 3.0, seed)
            totals.append(2 * g.m / g.n)
        mean = float(np.mean(totals))
        assert 2.7 <= mean <= 3.3

    def test_single_vertex(self):
        assert erdos_renyi(1, 3.0, 0).n == 1

    def test_determinism(self):
        assert erdos_renyi(60, 3.0, 9) == erdos_renyi(60, 3.0, 9)

    @pytest.mark.parametrize("avg_degree", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_bad_average_degree_rejected(self, avg_degree):
        with pytest.raises(InputError, match="average degree"):
            erdos_renyi(10, avg_degree, 0)

    def test_zero_average_degree_is_edgeless(self):
        assert erdos_renyi(10, 0.0, 0).m == 0


class TestLatticeSubgraphs:
    def test_full_grid_max_degree_four(self):
        g = grid_subgraph(25, 1.0, seed=3)
        assert g.n == 25
        assert max(degree(g, v) for v in range(g.n)) == 4

    def test_full_kings_max_degree_eight(self):
        g = kings_subgraph(25, 1.0, seed=3)
        assert g.n == 25
        assert max(degree(g, v) for v in range(g.n)) == 8

    def test_exact_vertex_count_at_partial_filling(self):
        for seed in range(5):
            assert kings_subgraph(40, 0.8, seed).n == 40
            assert grid_subgraph(40, 0.8, seed).n == 40

    def test_kings_has_diagonal_adjacency(self):
        g = kings_subgraph(9, 1.0, seed=0)
        # center of the 3x3 board touches everything
        degrees = sorted(degree(g, v) for v in range(9))
        assert degrees == [3, 3, 3, 3, 5, 5, 5, 5, 8]

    def test_bad_filling_rejected(self):
        with pytest.raises(InputError):
            grid_subgraph(10, 0.0, seed=0)

    def test_determinism(self):
        assert kings_subgraph(30, 0.8, 4) == kings_subgraph(30, 0.8, 4)
