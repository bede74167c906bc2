import numpy as np
import pytest

from optbranch import engine
from optbranch.engine import (
    SolveConfig, components, mis_branch, reduce_fixpoint, select_subgraph, verify_witness,
)
from optbranch.errors import InputError, InternalError
from optbranch.graph import Graph
from optbranch.optimize import SolverKind

from oracles import oracle_mis
from paper_cases import tutte_graph


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


class TestReduceFixpoint:
    def test_path_three(self):
        red = reduce_fixpoint(path(3))
        assert red.graph.n == 0 and red.offset == 2
        assert red.resolve(set()) == {0, 2}

    def test_cycle_five_resolves_by_folding(self):
        g = cycle(5)
        red = reduce_fixpoint(g)
        assert red.graph.n == 0 and red.offset == 2
        witness = red.resolve(set())
        assert g.is_independent(witness) and len(witness) == 2

    def test_three_regular_untouched(self):
        g = petersen()
        red = reduce_fixpoint(g)
        assert red.graph == g and red.offset == 0

    def test_witness_sound_on_random_sparse_graphs(self):
        rng = np.random.default_rng(83)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(2, 14)), 0.18)
            red = reduce_fixpoint(g)
            if red.graph.n == 0:
                witness = red.resolve(set())
                assert g.is_independent(witness)
                assert len(witness) == red.offset == oracle_mis(g)


class TestSelectSubgraph:
    def test_whole_small_component_selected(self):
        g = cycle(4)
        region = select_subgraph(g, SolveConfig())
        assert region.boundary == 0
        assert region.vertices == g.full_mask()

    def test_petersen_diameter_two(self):
        region = select_subgraph(petersen(), SolveConfig())
        assert region.vertices == petersen().full_mask()
        assert region.boundary == 0

    def test_region_respects_enumeration_limit(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 40, 0.25)
        cfg = SolveConfig(enumeration_limit=12)
        region = select_subgraph(g, cfg)
        assert region.width <= 12

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            select_subgraph(Graph(0, []), SolveConfig())


def test_components_split():
    g = Graph(5, [(0, 1), (2, 3)])
    assert components(g) == [0b00011, 0b01100, 0b10000]


class TestMisBranch:
    def test_empty_graph_on_seven_vertices(self):
        rep = mis_branch(Graph(7, []))
        assert rep.mis_size == 7 and rep.branch_count == 0
        assert rep.witness == frozenset(range(7))

    def test_tutte_graph(self):
        rep = mis_branch(tutte_graph())
        assert rep.mis_size == 19
        assert verify_witness(tutte_graph(), rep.witness)

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(89)
        for _ in range(60):
            n = int(rng.integers(2, 17))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.5)))
            want = oracle_mis(g)
            rep = mis_branch(g, SolveConfig(seed=3))
            assert rep.mis_size == want
            assert verify_witness(g, rep.witness)
            assert len(rep.witness) == rep.mis_size

    def test_component_additivity(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            g1 = random_graph(rng, int(rng.integers(2, 10)), 0.4)
            g2 = random_graph(rng, int(rng.integers(2, 10)), 0.4)
            shift = [(u + g1.n, v + g1.n) for u, v in g2.edges()]
            union = Graph(g1.n + g2.n, list(g1.edges()) + shift)
            a = mis_branch(g1)
            b = mis_branch(g2)
            c = mis_branch(union)
            assert c.mis_size == a.mis_size + b.mis_size
            assert c.branch_count == a.branch_count + b.branch_count

    def test_deterministic_reports(self):
        rng = np.random.default_rng(101)
        g = random_graph(rng, 24, 0.2)
        cfg = SolveConfig(seed=11)
        assert mis_branch(g, cfg) == mis_branch(g, cfg)
        lp_cfg = SolveConfig(solver_kind=SolverKind.LP_RELAXED, seed=11)
        assert mis_branch(g, lp_cfg) == mis_branch(g, lp_cfg)

    def test_rule_stats_recorded(self):
        rep = mis_branch(tutte_graph())
        assert sum(rep.rule_stats.values()) >= 1
        for (size, gamma) in rep.rule_stats:
            assert size >= 1 and gamma >= 1.0

    def test_env_pruning_flag_keeps_correctness(self):
        rng = np.random.default_rng(103)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(4, 15)), 0.3)
            want = oracle_mis(g)
            for flag in (True, False):
                rep = mis_branch(g, SolveConfig(env_pruning=flag))
                assert rep.mis_size == want

    def test_bad_config_rejected(self):
        with pytest.raises(InputError):
            SolveConfig(selection_radius=0)


class TestVerifyWitness:
    def test_edge_inside_set_fails(self):
        g = path(4)
        assert not verify_witness(g, [0, 1])

    def test_empty_set_passes(self):
        assert verify_witness(path(4), [])

    def test_engine_witnesses_pass(self):
        rng = np.random.default_rng(107)
        g = random_graph(rng, 15, 0.3)
        rep = mis_branch(g)
        assert verify_witness(g, rep.witness)


class TestWitnessCertificate:
    """``mis_branch`` certifies its witness; corrupt the top-level resolve."""

    @staticmethod
    def corrupt_resolve(monkeypatch, top, corrupt):
        real = engine.reduce_fixpoint

        def reduce(graph):
            red = real(graph)
            if graph is top:
                resolve = red.resolve
                red.resolve = lambda kernel_witness: corrupt(resolve(kernel_witness))
            return red

        monkeypatch.setattr(engine, "reduce_fixpoint", reduce)

    def test_dependent_witness_raises(self, monkeypatch):
        g = cycle(5)
        # swap the largest witness vertex for a neighbour of the smallest:
        # same size, an edge inside

        def swap(witness):
            v = min(witness)
            u = next(u for u in g.adj[v] if u not in witness)
            return (witness - {max(witness)}) | {u}

        self.corrupt_resolve(monkeypatch, g, swap)
        with pytest.raises(InternalError, match="not an independent set"):
            mis_branch(g)

    def test_short_witness_raises(self, monkeypatch):
        g = tutte_graph()
        self.corrupt_resolve(monkeypatch, g, lambda witness: witness - {min(witness)})
        with pytest.raises(InternalError, match="mis_size"):
            mis_branch(g)

    def test_vertex_outside_graph_raises(self, monkeypatch):
        g = path(4)
        self.corrupt_resolve(monkeypatch, g, lambda witness: (witness - {min(witness)}) | {g.n})
        with pytest.raises(InternalError, match="outside the graph"):
            mis_branch(g)
