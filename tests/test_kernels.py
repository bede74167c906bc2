import numpy as np
import pytest

from optbranch import CapacityError, _kernels
from optbranch.graph import Graph

from oracles import oracle_config_scan, oracle_mis


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_max_independent_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 15))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
        size, config = _kernels.max_independent(n, list(g.adj_mask.values()))
        assert size == oracle_mis(g)
        assert g.is_independent(config)
        assert config.bit_count() == size


def test_config_scan_matches_brute_force():
    rng = np.random.default_rng(11)
    graphs = [random_graph(rng, int(rng.integers(0, 15)), float(rng.uniform(0.05, 0.7)))
              for _ in range(40)]
    # edgeless graphs, and complete ones (every pair drawn with p = 1)
    graphs += [Graph(n, []) for n in (0, 1, 9, 14)]
    graphs += [random_graph(rng, n, 1.0) for n in (2, 9, 14)]
    for g in graphs:
        n = g.n
        adj = list(g.adj_mask.values())
        bpos = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
        configs, pop, key, alpha = _kernels.config_scan(n, adj, bpos)
        want = oracle_config_scan(n, adj, bpos)
        assert configs.tolist() == want[0]
        assert pop.tolist() == want[1]
        assert key.tolist() == want[2]
        assert alpha.tolist() == want[3]
        # the smallest configuration among the largest independent sets
        size = max(want[1])
        assert _kernels.max_independent(n, adj) == (size, want[0][want[1].index(size)])


def test_scan_alpha_counts_boundary_keys():
    # triangle with one boundary vertex: alpha(0) = 1 (either other corner),
    # alpha(1) = 1 (the boundary vertex alone)
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    _, _, _, alpha = _kernels.config_scan(3, list(g.adj_mask.values()), [0])
    assert list(alpha) == [1, 1]


def test_empty_width_scan():
    size, config = _kernels.max_independent(0, [])
    assert (size, config) == (0, 0)


def test_width_beyond_int32_configs_is_refused():
    with pytest.raises(CapacityError):
        _kernels.max_independent(_kernels.MAX_WIDTH + 1, [0] * (_kernels.MAX_WIDTH + 1))


def test_listing_past_the_cap_is_refused():
    # an edgeless width-26 graph has 2^26 independent configurations
    assert 1 << 26 > _kernels.MAX_CONFIGS
    with pytest.raises(CapacityError):
        _kernels.config_scan(26, [0] * 26, [])


def test_listing_at_the_cap_is_kept(monkeypatch):
    # eight edgeless vertices list exactly 2^8 configurations
    monkeypatch.setattr(_kernels, "MAX_CONFIGS", 1 << 8)
    configs, _pop, _key, alpha = _kernels.config_scan(8, [0] * 8, [0])
    assert configs.tolist() == list(range(1 << 8)) and alpha.tolist() == [7, 8]
    with pytest.raises(CapacityError):
        _kernels.config_scan(9, [0] * 9, [0])
