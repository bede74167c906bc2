from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optbranch import CapacityError, table
from optbranch.graph import Graph, bits, region_of
from optbranch.table import (
    ENV_EXACT_LIMIT, NEG_INF, alpha_tensor, boundary_grouped, prune_by_environment,
    prune_irrelevant,
)
from optbranch._kernels import max_independent

from oracles import oracle_alpha_tensor, oracle_mis, oracle_prune_by_environment
from paper_cases import (
    DOMINATION_ROWS, FIG1_ALPHA, FIG1_REDUCED_BY, FIG1_ROWS,
    domination_region, fig1_region, string_to_config,
)


def boundary_key(s):
    """Boundary string (first boundary vertex leftmost) -> packed key."""
    return string_to_config(s)


@st.composite
def hosted_regions(draw):
    """The first 2-10 vertices of a random host graph of 6-22 vertices, with
    the boundary of the vertices that have a neighbour outside."""
    n = draw(st.integers(6, 22))
    p = draw(st.sampled_from([0.15, 0.25, 0.4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return region_of(Graph(n, edges), range(draw(st.integers(2, min(10, n - 1)))))


def random_region(rng, n, p, boundary_every=3):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = Graph(n, edges)
    return region_of(g, range(n), boundary=[v for v in range(n) if v % boundary_every == 0])


class TestAlphaTensor:
    def test_fig1_matches_published_table(self):
        t = alpha_tensor(fig1_region())
        for s, want in FIG1_ALPHA.items():
            assert t.values[boundary_key(s)] == want

    def test_single_vertex_region(self):
        g = Graph(1, [])
        t = alpha_tensor(region_of(g, [0], boundary=[0]))
        assert t.values == (0, 1)

    def test_domination_region_relevant_entries(self):
        t = alpha_tensor(domination_region())
        for s, (alpha, _) in DOMINATION_ROWS.items():
            assert t.values[boundary_key(s)] == alpha

    def test_capacity_error_names_limit(self):
        g = Graph(30, [])
        with pytest.raises(CapacityError, match="26"):
            alpha_tensor(region_of(g, range(30), boundary=[0]))

    def test_agrees_with_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            r = random_region(rng, n, float(rng.uniform(0.1, 0.6)))
            t = alpha_tensor(r)
            assert list(t.values) == oracle_alpha_tensor(r)


class TestPruneIrrelevant:
    def test_fig1_reduction_pattern(self):
        t = prune_irrelevant(alpha_tensor(fig1_region()))
        survivors = {"000", "001", "010", "111"}
        for s in FIG1_ALPHA:
            value = t.values[boundary_key(s)]
            if s in survivors:
                assert value == FIG1_ALPHA[s]
            else:
                assert value == NEG_INF
        # every documented reducer dominates its pruned row
        for pruned, reducer in FIG1_REDUCED_BY.items():
            assert FIG1_ALPHA[reducer] >= FIG1_ALPHA[pruned]

    def test_all_zero_row_never_pruned(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            r = random_region(rng, n, 0.4)
            t = prune_irrelevant(alpha_tensor(r))
            assert t.values[0] != NEG_INF

    def test_single_boundary_equal_values(self):
        # triangle with boundary {a}: alpha(0) = alpha(1) = 1, so row 1 drops
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        t = alpha_tensor(region_of(g, range(3), boundary=[0]))
        assert t.values == (1, 1)
        assert prune_irrelevant(t).values == (1, NEG_INF)

    def test_idempotent_and_keeps_maximal(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            r = random_region(rng, n, float(rng.uniform(0.2, 0.6)))
            t = alpha_tensor(r)
            once = prune_irrelevant(t)
            assert prune_irrelevant(once).values == once.values
            # a surviving key has no subset key with >= value
            for key, value in enumerate(once.values):
                if value == NEG_INF:
                    continue
                sub = (key - 1) & key
                while True:
                    if sub != key and t.values[sub] >= value:
                        pytest.fail(f"key {key} should have been pruned by {sub}")
                    if sub == 0:
                        break
                    sub = (sub - 1) & key


class TestPruneByEnvironment:
    def test_fig1_with_one_outside_neighbor_of_c(self):
        r = fig1_region(host_extra=[(2, 5)])
        t = prune_irrelevant(alpha_tensor(r))
        pruned = prune_by_environment(t)
        # 000 absorbed by 001: alpha(000) + |N(c) outside| = 2 <= alpha(001)
        assert pruned.values[boundary_key("000")] == NEG_INF
        # exhaustive pairing also absorbs 001 and 010 into 111, whose branch
        # dominates them once c (or b) gains nothing outside
        assert pruned.values[boundary_key("111")] != NEG_INF
        survivors = {k for k, v in enumerate(pruned.values) if v != NEG_INF}
        assert survivors == {boundary_key("111")}
        # soundness on this concrete host: branching on the survivors alone
        # still reaches the true optimum
        best = max(
            t.values[k] + _environment_alpha(r, k) for k in survivors
        )
        assert best == oracle_mis(r.host)

    def test_rich_environment_is_noop(self):
        # three private outside pendants per boundary vertex: every pairwise
        # difference set outweighs the alpha gaps, so nothing is absorbed
        extra = [(b, 5 + 3 * b + i) for b in (0, 1, 2) for i in range(3)]
        r = fig1_region(host_extra=extra)
        t = prune_irrelevant(alpha_tensor(r))
        assert prune_by_environment(t).values == t.values

    def test_standalone_host_collapses_to_max_row(self):
        # with no environment at all the boundary is vacuous, and exhaustive
        # pairing keeps only a maximum-value row
        t = prune_irrelevant(alpha_tensor(domination_region()))
        pruned = prune_by_environment(t)
        survivors = [k for k, v in enumerate(pruned.values) if v != NEG_INF]
        assert survivors == [7]

    def test_zero_difference_prunes_smaller_value(self):
        # u and v share their only outside neighbor, so every pair of
        # boundary configurations has an empty difference set; the strictly
        # larger entry absorbs the rest
        g = Graph(5, [(0, 4), (1, 4)])
        r = region_of(g, [0, 1, 2, 3])
        t = prune_irrelevant(alpha_tensor(r))
        assert [v for v in t.values] == [2, 3, 3, 4]
        pruned = prune_by_environment(t)
        assert pruned.values == (NEG_INF, NEG_INF, NEG_INF, 4)

    @pytest.mark.parametrize("limit", [ENV_EXACT_LIMIT, 3])  # 3: wider sets use their count
    @given(hosted_regions())
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_oracle(self, limit, region):
        # the bounds decide without enumerating, so they must keep every
        # verdict of the routine that computes each difference's alpha
        t = prune_irrelevant(alpha_tensor(region))
        with mock.patch.object(table, "ENV_EXACT_LIMIT", limit):
            got = prune_by_environment(t).values
        assert got == oracle_prune_by_environment(t, limit)


def _environment_alpha(region, key):
    host = region.host
    chosen = 0
    for j, v in enumerate(sorted(
            v for v in range(host.n) if (region.boundary >> v) & 1)):
        if (key >> j) & 1:
            chosen |= 1 << v
    left = host.vertices & ~region.vertices & ~host.neighbors_mask(chosen)
    verts = [v for v in range(host.n) if (left >> v) & 1]
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for i, v in enumerate(verts):
        for w in bits(host.adj_mask[v] & left):
            adj[i] |= 1 << pos[w]
    return max_independent(len(verts), adj)[0]


class TestBoundaryGrouped:
    def test_fig1_rows(self):
        table = boundary_grouped(prune_irrelevant(alpha_tensor(fig1_region())))
        got = {key: row for key, row in zip(table.row_keys, table.rows)}
        want = {
            boundary_key(s): tuple(sorted(string_to_config(c) for c in configs))
            for s, configs in FIG1_ROWS.items()
        }
        assert got == want
        assert table.row_keys == tuple(sorted(table.row_keys))

    def test_domination_rows(self):
        table = boundary_grouped(prune_irrelevant(alpha_tensor(domination_region())))
        got = {key: row for key, row in zip(table.row_keys, table.rows)}
        want = {
            boundary_key(s): tuple(sorted(string_to_config(c) for c in configs))
            for s, (_, configs) in DOMINATION_ROWS.items()
        }
        assert got == want

    def test_single_isolated_vertex(self):
        g = Graph(1, [])
        table = boundary_grouped(prune_irrelevant(alpha_tensor(region_of(g, [0]))))
        assert table.rows == ((1,),)
        assert table.row_alpha == (1,)

    def test_rows_are_independent_and_max(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            r = random_region(rng, n, float(rng.uniform(0.2, 0.5)))
            table = boundary_grouped(prune_irrelevant(alpha_tensor(r)))
            for alpha, row in zip(table.row_alpha, table.rows):
                for cfg in row:
                    assert cfg.bit_count() == alpha
                    host_set = r.to_host_mask(cfg)
                    assert r.host.is_independent(host_set)
