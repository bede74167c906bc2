import inspect
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optbranch import _kernels, engine
from optbranch.bench import BenchSpec, run_bench
from optbranch.engine import (
    SolveConfig, components, mis_branch, reduce_fixpoint, select_subgraph,
)
from optbranch.errors import InputError, InternalError
from optbranch.generators import erdos_renyi, kings_subgraph, three_regular
from optbranch.graph import Graph, Measure, bits, induced_delete
from optbranch.optimize import SolverKind

from oracles import edges, oracle_mis, oracle_mis_set
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


def complete_bipartite(n, extra=()):
    """K_{n,n} on sides 0..n-1 and n..2n-1, plus the ``extra`` edges."""
    return Graph(2 * n, [(u, n + v) for u in range(n) for v in range(n)] + list(extra))


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
        # no vertex of degree <= 2 and, triangle-free, no dominated vertex
        g = petersen()
        red = reduce_fixpoint(g)
        assert red.graph is g
        assert red.takes == red.folds == red.dominated == [] and red.offset == 0

    def test_dominator_deleted_at_minimum_degree_three(self):
        # a wheel (hub 5 over the 5-cycle 0..4) beside a Petersen graph on
        # 6..15: every rim vertex has degree 3 and N[rim] inside N[hub], so
        # the hub goes, the 5-cycle folds away, and the Petersen graph stays
        wheel = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
        shifted = [(u + 6, v + 6) for u, v in edges(petersen())]
        g = Graph(16, wheel + shifted)
        red = reduce_fixpoint(g)
        assert red.dominated == [5] and red.offset == 2
        assert red.graph.adj_mask == {v + 6: row << 6 for v, row in petersen().adj_mask.items()}
        witness = red.resolve(oracle_mis_set(red.graph))
        assert g.is_independent(witness) and len(witness) == oracle_mis(g) == 6

    def test_kernel_is_reduced_and_keeps_alpha(self):
        rng = np.random.default_rng(127)
        dominated = kernels = 0
        for _ in range(150):
            g = random_graph(rng, int(rng.integers(4, 24)), float(rng.uniform(0.1, 0.6)))
            red = reduce_fixpoint(g)
            kernel = red.graph
            adj = kernel.adj_mask
            assert min(map(int.bit_count, adj.values()), default=3) >= 3
            for u, row in adj.items():
                for v in bits(row):
                    assert (row | 1 << u) & ~(adj[v] | 1 << v), (u, v)
            alpha = oracle_mis(g)
            assert red.offset + oracle_mis(kernel) == alpha
            witness = red.resolve(oracle_mis_set(kernel))
            assert g.is_independent(witness) and len(witness) == alpha
            dominated += len(red.dominated)
            kernels += bool(kernel.vertices)
        # the rule fires, and some kernels are left to branch on
        assert dominated >= 50 and kernels >= 30

    def test_kernel_matches_graph_from_edges(self):
        # same ids: the kernel's rows are those of Graph(kernel.n, its edges)
        # on its live ids, in ascending id order
        rng = np.random.default_rng(61)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(4, 30)), float(rng.uniform(0.08, 0.3)))
            kernel = reduce_fixpoint(g).graph
            want = Graph(kernel.n, list(edges(kernel)))
            assert list(kernel.adj_mask) == list(bits(kernel.vertices))
            assert kernel.adj_mask == {v: want.adj_mask[v] for v in bits(kernel.vertices)}
            assert kernel.m == want.m

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
        region = select_subgraph(g)
        assert region.boundary == 0
        assert region.vertices == g.vertices

    def test_petersen_diameter_two(self):
        region = select_subgraph(petersen())
        assert region.vertices == petersen().vertices
        assert region.boundary == 0

    def test_region_respects_enumeration_limit(self, monkeypatch):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 40, 0.25)
        monkeypatch.setattr(_kernels, "ENUMERATION_LIMIT", 12)
        region = select_subgraph(g)
        assert region.width <= 12

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            select_subgraph(Graph(0, []))

    def test_wide_boundary_falls_back_to_the_highest_degree_vertex(self):
        # K_{16,16}: N[v] has a boundary of 16, at the limit, so it stays
        region = select_subgraph(complete_bipartite(16))
        assert region.vertices.bit_count() == 17
        assert region.boundary.bit_count() == _kernels.BOUNDARY_LIMIT
        # K_{17,17} plus the edge 20-21: every region that fits the width
        # limit has a boundary of 17; 20 and 21 have the highest degree
        g = complete_bipartite(17, extra=[(20, 21)])
        region = select_subgraph(g)
        assert region.vertices == 1 << 20
        assert region.boundary == 1 << 20


def test_components_split():
    g = Graph(5, [(0, 1), (2, 3)])
    assert components(g) == [0b00011, 0b01100, 0b10000]


# per-trial (n, trial, seed, mis, branches) of
# `optbranch bench --gen 3regular --sizes 60:120:20 --trials 10 --seed 24601`,
# 3098 branches in all; ties between equally cheap covers at equal gamma
# move the search, and each exact gamma round after the first keeps the
# previous round's rule on a tie
REGULAR3_BASELINE = [
    # n = 60
    (60, 0, 980138122640924038, 27, 10),
    (60, 1, 4198118169126084708, 27, 10),
    (60, 2, 8401941262419151253, 26, 16),
    (60, 3, 6226614030951895004, 26, 9),
    (60, 4, 4981124035132016572, 27, 11),
    (60, 5, 8766114373573971343, 26, 12),
    (60, 6, 1404321578544990838, 26, 13),
    (60, 7, 2145910718265487924, 26, 12),
    (60, 8, 6385269564862293148, 26, 10),
    (60, 9, 892621782555075679, 27, 14),
    # n = 80
    (80, 0, 3429462523703087072, 35, 15),
    (80, 1, 6113286570522914132, 36, 40),
    (80, 2, 1178889263730378652, 35, 35),
    (80, 3, 300741557356921730, 35, 35),
    (80, 4, 8653809208773685014, 36, 25),
    (80, 5, 6991220114689105762, 35, 35),
    (80, 6, 7496674584360617105, 35, 34),
    (80, 7, 792609362739330463, 36, 24),
    (80, 8, 4802483758242562614, 35, 37),
    (80, 9, 5370235002382626224, 36, 38),
    # n = 100
    (100, 0, 7685953152467875127, 43, 60),
    (100, 1, 2054428159783042046, 45, 81),
    (100, 2, 7413506258184712423, 44, 77),
    (100, 3, 4252887675856162066, 44, 72),
    (100, 4, 4247803363577073837, 45, 60),
    (100, 5, 305016486773627293, 45, 74),
    (100, 6, 1707912726543156858, 44, 77),
    (100, 7, 5922196070959043268, 44, 50),
    (100, 8, 985156398762766286, 45, 64),
    (100, 9, 3737014025543053911, 44, 57),
    # n = 120
    (120, 0, 6339658618967733684, 53, 240),
    (120, 1, 8127544149945251569, 53, 195),
    (120, 2, 1348003301809464220, 53, 201),
    (120, 3, 3357493747030030696, 54, 181),
    (120, 4, 375511865943191604, 53, 232),
    (120, 5, 1710984361914907359, 53, 129),
    (120, 6, 3239287082736550280, 53, 164),
    (120, 7, 975831849603590831, 53, 261),
    (120, 8, 1850550480465027515, 54, 146),
    (120, 9, 7994089155926985315, 53, 242),
]


PIN_GRAPHS = {
    "3regular": three_regular,
    "kings": lambda n, seed: kings_subgraph(n, 0.8, seed),
    "er": lambda n, seed: erdos_renyi(n, 8.0, seed),
}
PIN_CONFIGS = {
    "default": SolveConfig(),
    "lp": SolveConfig(solver_kind=SolverKind.LP_RELAXED),
    # with regions of radius at most 1 and at most 7 vertices
    "r1k7": SolveConfig(),
}
SEARCH_PINS = [
    (('3regular', 40, 1, 'default'), (18, 4, 2, 2, 0x824cb6ac87)),
    (('3regular', 60, 3, 'default'), (26, 14, 8, 4, 0xea3a226e409ba12)),
    (('kings', 60, 6, 'default'), (19, 0, 0, 0, 0xaa02a80b00aa059)),
    (('kings', 90, 2, 'default'), (29, 0, 0, 0, 0x46a810c50864a0ca510a31)),
    (('er', 30, 3, 'default'), (10, 0, 1, 1, 0x44e4891)),
    (('kings', 250, 1, 'default'), (78, 3, 8, 5, 0x2d520015548808a2a8200946a8400a55c2014258520502a170a041735001557)),
    (('kings', 500, 2, 'default'), (151, 6, 8, 6, 0x695d404002a1aba1400081aad2c00201aac5400201563380140e918a80222aa32a00a40554314002911a04110aa91a004816a5544000056b55a0000aaaaa9)),
    (('3regular', 40, 1, 'lp'), (18, 4, 2, 2, 0x824cb6ac87)),
    (('3regular', 60, 3, 'lp'), (26, 18, 9, 5, 0x2831f6af001b872)),
    (('kings', 60, 6, 'lp'), (19, 0, 0, 0, 0xaa02a80b00aa059)),
    (('kings', 90, 2, 'lp'), (29, 0, 0, 0, 0x46a810c50864a0ca510a31)),
    (('er', 30, 3, 'lp'), (10, 0, 1, 1, 0x44e4891)),
    (('kings', 250, 1, 'lp'), (78, 3, 8, 5, 0x2d520015548808a2a8200946a8400a55c2014258520502a170a041735001557)),
    (('kings', 500, 2, 'lp'), (151, 6, 8, 6, 0x695d404002a1aba1400081aad2c00201aac5400201563380140e918a80222aa32a00a40554314002911a04110aa91a004816a5544000056b55a0000aaaaa9)),
    (('3regular', 40, 1, 'r1k7'), (18, 14, 6, 3, 0x824cb6ac87)),
    (('3regular', 60, 3, 'r1k7'), (26, 24, 10, 4, 0x2831f6af001b872)),
    (('kings', 60, 6, 'r1k7'), (19, 0, 0, 0, 0xaa02a80b00aa059)),
    (('kings', 90, 2, 'r1k7'), (29, 0, 0, 0, 0x46a810c50864a0ca510a31)),
    (('er', 30, 3, 'r1k7'), (10, 10, 5, 5, 0x44e4891)),
    (('kings', 250, 1, 'r1k7'), (78, 40, 22, 10, 0x2d520015548808a2a8200d46a0401a5582054250520a0143714041735001557)),
    (('kings', 500, 2, 'r1k7'), (151, 696, 383, 25, 0x955d48000229abb0400041aad8c00001aacaa00201563380140e918a80222aa32a00a40554314002915a04100aa91a004816a5544000056b55a0000aaaaa9)),
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
            rep = mis_branch(g)
            assert rep.mis_size == want
            assert g.is_independent(rep.witness)
            assert len(rep.witness) == rep.mis_size

    def test_deep_search_keeps_the_recursion_limit(self):
        # C_3 x C_400: row r is the triangle 3r, 3r+1, 3r+2, and vertex 3r+c
        # is joined to 3(r+1)+c; the search runs 198 levels deep, which a
        # recursive search could not do under a limit only 100 frames above
        # the caller
        rows = 400
        triangles = [(3 * r + a, 3 * r + b) for r in range(rows)
                     for a, b in ((0, 1), (0, 2), (1, 2))]
        columns = [(3 * r + c, 3 * ((r + 1) % rows) + c) for r in range(rows) for c in range(3)]
        g = Graph(3 * rows, triangles + columns)
        before = sys.getrecursionlimit()
        limit = len(inspect.stack(0)) + 100
        sys.setrecursionlimit(limit)
        try:
            rep = mis_branch(g)
            after = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(before)
        assert rep.mis_size == 400 and rep.max_depth > 100
        assert g.is_independent(rep.witness)
        assert after == limit

    def test_whole_component_region_past_two_to_the_22(self):
        # K_{3,22}: minimum degree 3 and no dominated vertex, so the search
        # looks up the whole connected component, whose 2^3 + 2^22 - 1
        # independent configurations stay under the kernels' listing cap
        g = Graph(25, [(a, b) for a in range(3) for b in range(3, 25)])
        assert reduce_fixpoint(g).graph is g
        rep = mis_branch(g)
        assert rep.mis_size == oracle_mis(g) == 22 and rep.branch_count == 0
        assert g.is_independent(rep.witness)

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
            shift = [(u + g1.n, v + g1.n) for u, v in edges(g2)]
            union = Graph(g1.n + g2.n, list(edges(g1)) + shift)
            a = mis_branch(g1)
            b = mis_branch(g2)
            c = mis_branch(union)
            assert c.mis_size == a.mis_size + b.mis_size
            assert c.branch_count == a.branch_count + b.branch_count

    def test_complete_bipartite_in_bounded_memory(self):
        # every region of K_{25,25} that fits the width limit has a boundary
        # of 25, whose tables would take gigabytes; K_{30,30}'s N[v] is too
        # wide.  The peak is read in a fresh interpreter, from VmHWM: Linux
        # carries ru_maxrss across exec, so a child's ru_maxrss starts at the
        # test runner's own peak
        script = """if True:
            import json
            from optbranch import Graph, mis_branch
            out = []
            for n in (25, 30):
                g = Graph(2 * n, [(u, n + v) for u in range(n) for v in range(n)])
                rep = mis_branch(g)
                out.append([n, rep.mis_size, sorted(rep.witness)])
            with open("/proc/self/status") as status:
                hwm = next(line for line in status if line.startswith("VmHWM:"))
            print(json.dumps({"solves": out, "peak_mb": int(hwm.split()[1]) / 1024}))
        """
        env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120, check=True)
        got = json.loads(run.stdout)
        for n, mis_size, witness in got["solves"]:
            assert mis_size == n
            assert complete_bipartite(n).is_independent(witness) and len(witness) == n
        assert got["peak_mb"] < 128, got["peak_mb"]

    def test_deterministic_reports(self):
        rng = np.random.default_rng(101)
        g = random_graph(rng, 24, 0.2)
        assert mis_branch(g) == mis_branch(g)
        lp_cfg = SolveConfig(solver_kind=SolverKind.LP_RELAXED)
        assert mis_branch(g, lp_cfg) == mis_branch(g, lp_cfg)

    @given(st.integers(1, 18), st.floats(0.1, 0.6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_env_pruning_flag_keeps_correctness(self, n, p, seed):
        g = random_graph(np.random.default_rng(seed), n, p)
        want = oracle_mis(g)
        for flag in (True, False):
            for kind in SolverKind:
                for measure in Measure:
                    rep = mis_branch(g, SolveConfig(measure=measure, solver_kind=kind,
                                                    env_pruning=flag))
                    assert rep.mis_size == want, (flag, kind, measure)
                    assert g.is_independent(rep.witness)
                    assert len(rep.witness) == want

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
            assert rep.node_count == len(rules)

    def test_kings_bench_pinned(self):
        # per-trial (n, mis, branches) of
        # `optbranch bench --gen kings --sizes 200:400:100 --trials 4 --seed 7`,
        # re-recorded when reduce_fixpoint began deleting dominating vertices
        report = run_bench(BenchSpec("kings", (200, 300, 400), 4, 7))
        assert [(r.n, r.mis, r.branches) for r in report.rows] == [
            (200, 62, 0), (200, 60, 0), (200, 63, 0), (200, 63, 0),
            (300, 94, 2), (300, 94, 0), (300, 97, 0), (300, 94, 0),
            (400, 127, 0), (400, 125, 0), (400, 126, 0), (400, 125, 8),
        ]

    def test_regular3_baseline_pinned(self):
        report = run_bench(BenchSpec("3regular", (60, 80, 100, 120), 10, 24601))
        got = [(r.n, r.trial, r.seed, r.mis, r.branches) for r in report.rows]
        assert got == REGULAR3_BASELINE
        assert sum(r.branches for r in report.rows) == 3098

    def test_search_pinned(self, monkeypatch):
        # (mis_size, branch_count, node_count, max_depth, witness as a mask),
        # re-recorded when reduce_fixpoint began deleting dominating vertices;
        # kings 250 and 500, which still branch under domination, added later;
        # 3regular 60's lp row re-recorded when the LP rounding stopped
        # taking a seed
        for (kind, n, seed, cfg_name), want in SEARCH_PINS:
            g = PIN_GRAPHS[kind](n, seed)
            with monkeypatch.context() as patch:
                if cfg_name == "r1k7":
                    patch.setattr(engine, "SELECTION_RADIUS", 1)
                    patch.setattr(_kernels, "ENUMERATION_LIMIT", 7)
                rep = mis_branch(g, PIN_CONFIGS[cfg_name])
            got = (rep.mis_size, rep.branch_count, rep.node_count, rep.max_depth,
                   sum(1 << v for v in rep.witness))
            assert got == want, (kind, n, seed, cfg_name)


class TestLogging:
    def test_debug_line_per_node_and_info_summary(self, caplog, monkeypatch):
        real = engine.reduce_fixpoint
        done = {"takes": 0, "folds": 0, "dominated": 0}

        def counting(graph):
            red = real(graph)
            for kind in done:
                done[kind] += len(getattr(red, kind))
            return red

        monkeypatch.setattr(engine, "reduce_fixpoint", counting)
        with caplog.at_level(logging.DEBUG, logger="optbranch.engine"):
            rep = mis_branch(tutte_graph())
        records = [r for r in caplog.records if r.name == "optbranch.engine"]
        debug = [r.getMessage() for r in records if r.levelno == logging.DEBUG]
        info = [r.getMessage() for r in records if r.levelno == logging.INFO]
        assert len(debug) == rep.node_count >= 1
        for line in debug:
            for field_name in ("depth=", "n=", "width=", "rows=", "k=", "gamma=", "rounds="):
                assert field_name in line
            # every exact synthesis ends on at least one covering round
            assert int(line.rpartition(" rounds=")[2]) >= 1
        assert len(info) == 1
        assert f"mis_size={rep.mis_size}" in info[0]
        assert f"branches={rep.branch_count}" in info[0]
        assert f"nodes={rep.node_count}" in info[0]
        # reductions by kind, summed over the search; the Tutte graph has all three
        assert min(done.values()) >= 1
        for kind, count in done.items():
            assert f" {kind}={count} " in info[0]

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
