import logging

import numpy as np
import pytest

from optbranch import engine
from optbranch.bench import BenchSpec, run_bench
from optbranch.engine import (
    SolveConfig, components, mis_branch, reduce_fixpoint, select_subgraph,
)
from optbranch.errors import InputError, InternalError
from optbranch.generators import erdos_renyi, kings_subgraph, three_regular
from optbranch.graph import Graph, bits, induced_delete, neighbors_k
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
        assert red.graph.vertices == 0 and red.offset == 2
        assert red.resolve(set()) == {0, 2}

    def test_cycle_five_resolves_by_folding(self):
        g = cycle(5)
        red = reduce_fixpoint(g)
        assert red.graph.vertices == 0 and red.offset == 2
        witness = red.resolve(set())
        assert g.is_independent(witness) and len(witness) == 2

    def test_three_regular_untouched(self):
        g = petersen()
        red = reduce_fixpoint(g)
        assert red.graph == g and red.offset == 0

    def test_min_degree_three_is_its_own_kernel(self):
        g = petersen()
        red = reduce_fixpoint(g)
        assert red.graph is g and red.changed == 0
        assert red.takes == [] and red.folds == [] and red.offset == 0

    def test_kernel_matches_graph_from_edges(self):
        # same ids: the kernel's rows are those of Graph(kernel.n, its edges)
        # on its live ids, in ascending id order
        rng = np.random.default_rng(61)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(4, 30)), float(rng.uniform(0.08, 0.3)))
            kernel = reduce_fixpoint(g).graph
            want = Graph(kernel.n, list(kernel.edges()))
            assert list(kernel.adj_mask) == list(bits(kernel.vertices))
            assert kernel.adj_mask == {v: want.adj_mask[v] for v in bits(kernel.vertices)}
            assert kernel.m == want.m

    def test_changed_marks_rewritten_vertices(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(4, 30)), float(rng.uniform(0.08, 0.3)))
            red = reduce_fixpoint(g)
            assert red.changed & ~red.graph.vertices == 0
            for v, row in red.graph.adj_mask.items():
                if not (red.changed >> v) & 1:
                    # an unmarked survivor has exactly its input row
                    assert v < g.n and row == g.adj_mask[v]

    def test_fold_ids_start_at_input_n(self):
        rng = np.random.default_rng(73)
        folded = 0
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(4, 30)), float(rng.uniform(0.08, 0.3)))
            red = reduce_fixpoint(g)
            fold_ids = [z for z, _v, _u, _w in red.folds]
            assert fold_ids == list(range(g.n, red.graph.n))
            assert red.offset == len(red.takes) + len(red.folds)
            # a live id below the input's n is a survivor, every other a fold
            assert all(v < g.n or v in fold_ids for v in red.graph.adj_mask)
            folded += len(red.folds)
        assert folded >= 10

    def test_reduces_a_derived_graph_over_its_ids(self):
        # a path 1-2-3-4 left after deleting 0 and 5 from a path on 6
        g = induced_delete(Graph(6, [(i, i + 1) for i in range(5)]), [0, 5])
        red = reduce_fixpoint(g)
        assert red.graph.vertices == 0 and red.offset == 2
        assert red.resolve(()) == {1, 3}

    def test_witness_sound_on_random_sparse_graphs(self):
        rng = np.random.default_rng(83)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(2, 14)), 0.18)
            red = reduce_fixpoint(g)
            if red.graph.vertices == 0:
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


class TestCarriedKeys:
    """The engine carries region keys from parent to child; at every node
    they must equal a from-scratch scan, and so must the chosen region."""

    @staticmethod
    def check_every_node(monkeypatch, graphs, configs):
        real = engine.select_subgraph
        reused = []

        def checking(g, cfg, keys=None, changed=0):
            stale = neighbors_k(g, changed, cfg.selection_radius, closed=True) if changed else 0
            region = real(g, cfg, keys, changed)
            assert real(g, cfg) == region
            fresh = [None] * g.n
            real(g, cfg, fresh, g.vertices)
            # keys are indexed by id; only the live ids' entries are read
            assert len(keys) == g.n
            assert [keys[v] for v in g.adj_mask] == [fresh[v] for v in g.adj_mask]
            # live ids whose carried key the engine kept (dead ids never count)
            reused.append((g.vertices & ~stale).bit_count())
            return region

        monkeypatch.setattr(engine, "select_subgraph", checking)
        for cfg in configs:
            for g in graphs:
                mis_branch(g, cfg)
        return reused

    def test_random_graphs(self, monkeypatch):
        rng = np.random.default_rng(71)
        graphs = [random_graph(rng, n, 5.0 / n) for n in (30, 34, 38)]
        configs = [SolveConfig(selection_radius=r, enumeration_limit=k)
                   for r in (1, 2, 3) for k in (3, 4, 7, 12, 26)]
        reused = self.check_every_node(monkeypatch, graphs, configs)
        # some nodes keep carried keys, so the reuse path runs
        assert len(reused) >= 150 and sum(map(bool, reused)) >= 20

    def test_kings_graphs(self, monkeypatch):
        graphs = [kings_subgraph(n, 0.8, seed) for n, seed in ((60, 3), (90, 4))]
        configs = [SolveConfig(selection_radius=r, enumeration_limit=k)
                   for r in (1, 2, 3) for k in (3, 7, 12, 26)]
        reused = self.check_every_node(monkeypatch, graphs, configs)
        assert len(reused) >= 500 and sum(map(bool, reused)) >= 250


def test_components_split():
    g = Graph(5, [(0, 1), (2, 3)])
    assert components(g) == [0b00011, 0b01100, 0b10000]


PIN_GRAPHS = {
    "3regular": three_regular,
    "kings": lambda n, seed: kings_subgraph(n, 0.8, seed),
    "er": lambda n, seed: erdos_renyi(n, 8.0, seed),
}
PIN_CONFIGS = {
    "default": SolveConfig(),
    "lp": SolveConfig(solver_kind=SolverKind.LP_RELAXED),
    "r1k7": SolveConfig(selection_radius=1, enumeration_limit=7),
}
SEARCH_PINS = [
    (('3regular', 40, 1, 'default'), (18, 4, 2, 2, 0x824cb6ac87)),
    (('3regular', 60, 3, 'default'), (26, 16, 10, 4, 0xea3a226e409ba12)),
    (('kings', 60, 6, 'default'), (19, 0, 5, 5, 0xaa02a80b014a059)),
    (('kings', 90, 2, 'default'), (29, 0, 7, 7, 0x254a100ad0062a0ca510a31)),
    (('er', 30, 3, 'default'), (10, 5, 2, 2, 0x44e4891)),
    (('3regular', 40, 1, 'lp'), (18, 4, 2, 2, 0x824cb6ac87)),
    (('3regular', 60, 3, 'lp'), (26, 17, 11, 4, 0x958c1f1ab2a2451)),
    (('kings', 60, 6, 'lp'), (19, 0, 5, 5, 0xaa02a80b014a059)),
    (('kings', 90, 2, 'lp'), (29, 0, 7, 7, 0x254a100ad0062a0ca510a31)),
    (('er', 30, 3, 'lp'), (10, 5, 2, 2, 0x44e4891)),
    (('3regular', 40, 1, 'r1k7'), (18, 14, 6, 3, 0x824cb6ac87)),
    (('3regular', 60, 3, 'r1k7'), (26, 34, 18, 5, 0x2831f6af001b872)),
    (('kings', 60, 6, 'r1k7'), (19, 16, 23, 8, 0xaa02a80b00aa059)),
    (('kings', 90, 2, 'r1k7'), (29, 128, 178, 16, 0x1442950850862a0ca510a31)),
    (('er', 30, 3, 'r1k7'), (10, 20, 11, 7, 0x44e4891)),
]


class TestMisBranch:
    def test_empty_graph_on_seven_vertices(self):
        rep = mis_branch(Graph(7, []))
        assert rep.mis_size == 7 and rep.branch_count == 0
        assert rep.witness == frozenset(range(7))

    def test_tutte_graph(self):
        rep = mis_branch(tutte_graph())
        assert rep.mis_size == 19
        assert tutte_graph().is_independent(rep.witness)

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(89)
        for _ in range(60):
            n = int(rng.integers(2, 17))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.5)))
            want = oracle_mis(g)
            rep = mis_branch(g, SolveConfig(seed=3))
            assert rep.mis_size == want
            assert g.is_independent(rep.witness)
            assert len(rep.witness) == rep.mis_size

    def test_derived_graph_keeps_its_ids(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(6, 17)), float(rng.uniform(0.15, 0.5)))
            sub = induced_delete(g, [v for v in range(g.n) if rng.random() < 0.3])
            if not sub.vertices:
                continue
            rep = mis_branch(sub)
            assert rep.mis_size == oracle_mis(sub)
            assert rep.witness <= set(sub.adj_mask) and sub.is_independent(rep.witness)

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

    def test_node_count_is_synthesized_rules(self, monkeypatch):
        real = engine.optimal_rule
        rules = []

        def counting(*args, **kwargs):
            rules.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "optimal_rule", counting)
        for g in (tutte_graph(), kings_subgraph(120, 0.8, 5), petersen(), cycle(7)):
            rules.clear()
            rep = mis_branch(g)
            assert rep.node_count == len(rules) == sum(rep.rule_stats.values())

    def test_kings_bench_pinned(self):
        # per-trial (n, mis, branches) of
        # `optbranch bench --gen kings --sizes 200:400:100 --trials 4 --seed 7`,
        # recorded before region keys were carried between nodes
        report = run_bench(BenchSpec("kings", (200, 300, 400), 4, 7))
        assert [(r.n, r.mis, r.branches) for r in report.rows] == [
            (200, 62, 6), (200, 60, 0), (200, 63, 0), (200, 63, 0),
            (300, 94, 2), (300, 94, 0), (300, 97, 0), (300, 94, 6),
            (400, 127, 6), (400, 125, 0), (400, 126, 0), (400, 125, 22),
        ]

    def test_search_pinned(self):
        # (mis_size, branch_count, node_count, max_depth, witness as a mask),
        # recorded when every derived graph was still renumbered to 0..n-1;
        # kings/90/2/default re-recorded when the gamma loop stopped at its
        # first one-clause rule
        for (kind, n, seed, cfg_name), want in SEARCH_PINS:
            g = PIN_GRAPHS[kind](n, seed)
            rep = mis_branch(g, PIN_CONFIGS[cfg_name])
            got = (rep.mis_size, rep.branch_count, rep.node_count, rep.max_depth,
                   sum(1 << v for v in rep.witness))
            assert got == want, (kind, n, seed, cfg_name)

    def test_bad_config_rejected(self):
        with pytest.raises(InputError):
            SolveConfig(selection_radius=0)


class TestLogging:
    def test_debug_line_per_node_and_info_summary(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="optbranch.engine"):
            rep = mis_branch(tutte_graph())
        records = [r for r in caplog.records if r.name == "optbranch.engine"]
        debug = [r.getMessage() for r in records if r.levelno == logging.DEBUG]
        info = [r.getMessage() for r in records if r.levelno == logging.INFO]
        assert len(debug) == rep.node_count >= 1
        for line in debug:
            for field_name in ("depth=", "n=", "width=", "rows=", "k=", "gamma="):
                assert field_name in line
        assert len(info) == 1
        assert f"mis_size={rep.mis_size}" in info[0]
        assert f"branches={rep.branch_count}" in info[0]
        assert f"nodes={rep.node_count}" in info[0]

    def test_silent_when_disabled(self, caplog):
        with caplog.at_level(logging.WARNING, logger="optbranch.engine"):
            mis_branch(tutte_graph())
        assert not [r for r in caplog.records if r.name == "optbranch.engine"]


class TestVerifyWitness:
    def test_edge_inside_set_fails(self):
        g = path(4)
        assert not g.is_independent([0, 1])

    def test_empty_set_passes(self):
        assert path(4).is_independent([])

    def test_engine_witnesses_pass(self):
        rng = np.random.default_rng(107)
        g = random_graph(rng, 15, 0.3)
        rep = mis_branch(g)
        assert g.is_independent(rep.witness)


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
            u = next(u for u in bits(g.adj_mask[v]) if u not in witness)
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
