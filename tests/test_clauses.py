import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from optbranch import engine
from optbranch.clauses import (
    CandidateClause, Clause, DNF, _closure, build_candidates, delta_rho,
    intersection, render_clause, render_dnf, single_cover,
)
from optbranch.engine import SolveConfig, mis_branch
from optbranch.generators import kings_subgraph, three_regular
from optbranch.graph import Graph, Measure, induced_delete, region_of
from optbranch.table import (
    BranchingTable, alpha_tensor, boundary_grouped, prune_by_environment, prune_irrelevant,
)

from oracles import covers, is_valid_rule, oracle_candidates, oracle_closure, oracle_delta_rho
from paper_cases import (
    FIG1_CANDIDATES, FIG1_ROWS, bottleneck_region, domination_region, fig1_region,
    ph2_region, string_to_config,
)


def clause_from_text(text, width):
    mask = values = 0
    for lit in text.split(" ∧ "):
        lit = lit.strip()
        neg = lit.startswith("¬")
        pos = ord(lit[-1]) - ord("a")
        mask |= 1 << pos
        if not neg:
            values |= 1 << pos
    return Clause(width, mask, values)


def fig1_table():
    return boundary_grouped(prune_irrelevant(alpha_tensor(fig1_region())))


def table_of(region, env_pruning):
    tensor = prune_irrelevant(alpha_tensor(region))
    if env_pruning:
        tensor = prune_by_environment(tensor)
    return boundary_grouped(tensor)


def candidate_clauses(table):
    return [Clause(table.width, mask, values) for mask, values, _ in _closure(table)]


def drops(clauses, region, m):
    return delta_rho([c.mask for c in clauses], [c.values for c in clauses], region, m)


def clauses_strategy(width=5):
    def build(mask, raw):
        return Clause(width, mask, raw & mask)
    return st.builds(build, st.integers(1, (1 << width) - 1), st.integers(0, (1 << width) - 1))


class TestSingleCover:
    def test_lone_one(self):
        c = single_cover(string_to_config("00001"), 5)
        assert render_clause(c) == "¬a ∧ ¬b ∧ ¬c ∧ ¬d ∧ e"

    def test_all_zero_width_one(self):
        assert render_clause(single_cover(0, 1)) == "¬a"

    def test_leading_ones(self):
        c = single_cover(string_to_config("11100"), 5)
        assert render_clause(c) == "a ∧ b ∧ c ∧ ¬d ∧ ¬e"


class TestIntersection:
    def test_paper_example(self):
        a = clause_from_text("¬a ∧ b ∧ c", 4)
        b = clause_from_text("¬a ∧ b ∧ ¬c ∧ d", 4)
        assert render_clause(intersection(a, b)) == "¬a ∧ b"

    def test_idempotent(self):
        c = clause_from_text("¬a ∧ b", 3)
        assert intersection(c, c) == c

    def test_contradiction_is_empty(self):
        a = Clause(1, 1, 1)
        b = Clause(1, 1, 0)
        assert intersection(a, b) is None

    @given(clauses_strategy(), clauses_strategy())
    @settings(max_examples=100, deadline=None)
    def test_commutative_and_weakening(self, a, b):
        ab = intersection(a, b)
        assert ab == intersection(b, a)
        if ab is not None:
            for cfg in range(32):
                if cfg & a.mask == a.values or cfg & b.mask == b.values:
                    assert cfg & ab.mask == ab.values

    @given(clauses_strategy(), clauses_strategy(), clauses_strategy())
    @settings(max_examples=100, deadline=None)
    def test_associative_where_defined(self, a, b, c):
        left = intersection(a, b)
        right = intersection(b, c)
        if left is not None and right is not None:
            assert intersection(left, c) == intersection(a, right)


class TestCovers:
    def test_c7_covers_first_row(self):
        c = clause_from_text("¬a ∧ ¬c ∧ d ∧ ¬e", 5)
        row = tuple(string_to_config(s) for s in FIG1_ROWS["000"])
        assert covers(c, row)

    def test_single_cover_covers_own_row(self):
        cfg = string_to_config("01010")
        assert covers(single_cover(cfg, 5), (cfg,))

    def test_not_g_on_ph2_rows(self):
        from paper_cases import PH2_ROWS
        c = clause_from_text("¬g", 8)
        covered = [
            s for s, (_, config) in PH2_ROWS.items()
            if covers(c, (string_to_config(config),))
        ]
        assert covered == ["010100", "001001", "110101", "101101"]


class TestCandidateClauses:
    def test_fig1_matches_published_candidates(self):
        table = fig1_table()
        region = fig1_region()
        got = {
            (render_clause(c.clause), c.coverage, c.delta_rho)
            for c in build_candidates(table, region, Measure.VERTEX_COUNT)
        }
        key_to_row = {key: i for i, key in enumerate(table.row_keys)}
        want = set()
        for text, rows, drho in FIG1_CANDIDATES:
            cov = 0
            for s in rows:
                cov |= 1 << key_to_row[string_to_config(s)]
            want.add((text, cov, drho))
        assert got == want

    def test_single_config_table(self):
        table = BranchingTable(3, ((5,),), (2,), (0,))
        cands = candidate_clauses(table)
        assert cands == [single_cover(5, 3)]

    def test_matches_selection_oracle_on_small_tables(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            g = Graph(n, edges)
            r = region_of(g, range(n), boundary=[v for v in range(n) if v % 3 == 0])
            table = boundary_grouped(prune_irrelevant(alpha_tensor(r)))
            got = {(c.mask, c.values) for c in candidate_clauses(table)}
            assert got == oracle_candidates(table)

    def test_every_candidate_covers_a_row(self):
        table = fig1_table()
        for c in candidate_clauses(table):
            assert any(covers(c, row) for row in table.rows)

    def test_generation_order_deterministic(self):
        table = fig1_table()
        first = candidate_clauses(table)
        second = candidate_clauses(table)
        assert first == second


class TestDeltaRho:
    def test_c7_vertex_count(self):
        c = clause_from_text("¬a ∧ ¬c ∧ d ∧ ¬e", 5)
        assert drops([c], fig1_region(), Measure.VERTEX_COUNT) == [4]

    def test_full_width_removes_region(self):
        g = Graph(5, [])
        r = region_of(g, range(5), boundary=[0])
        c = single_cover(0b00110, 5)
        assert drops([c], r, Measure.VERTEX_COUNT) == [5]

    def test_ph2_c9_effective_degree(self):
        c = clause_from_text("¬a ∧ b ∧ ¬c ∧ ¬f", 8)
        assert drops([c], ph2_region(), Measure.EFFECTIVE_DEGREE) == [10]

    def test_degenerate_effective_degree_is_dropped(self):
        # removing the end of a path changes no degree past two
        g = Graph(3, [(0, 1), (1, 2)])
        r = region_of(g, [0], boundary=[0])
        assert drops([Clause(1, 1, 0)], r, Measure.EFFECTIVE_DEGREE) == [0]
        table = BranchingTable(1, ((0,),), (0,), (0,))
        assert build_candidates(table, r, Measure.EFFECTIVE_DEGREE) == []
        assert build_candidates(table, r, Measure.VERTEX_COUNT) == [
            CandidateClause(Clause(1, 1, 0), 1, 1)]

    @given(clauses_strategy())
    @settings(max_examples=60, deadline=None)
    def test_vertex_count_at_least_literals(self, c):
        r = fig1_region()
        assert drops([c], r, Measure.VERTEX_COUNT)[0] >= c.mask.bit_count()


class TestArraysMatchOracles:
    """The array closure and δρ against the one-clause-at-a-time oracles, on
    seeded random regions of hosts whose ids are sparse (some deleted)."""

    def test_random_regions(self):
        rng = np.random.default_rng(2026)
        degenerate = checked = 0
        for trial in range(60):
            n = int(rng.integers(6, 17))
            p = float(rng.uniform(0.15, 0.5))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = Graph(n, edges)
            dead = [v for v in range(n) if rng.random() < 0.2]
            host = induced_delete(g, dead) if len(dead) < n - 2 else g
            live = list(host.adj_mask)
            size = int(rng.integers(1, min(9, len(live)) + 1))
            vertices = sorted(rng.choice(live, size, replace=False).tolist())
            r = region_of(host, vertices)
            for env_pruning in {False, r.vertices != host.full_mask()}:
                table = table_of(r, env_pruning)
                entries = _closure(table)
                assert entries == oracle_closure(table)
                width = table.width
                extra = [(int(mk), int(v) & int(mk)) for mk, v in zip(
                    rng.integers(1, 1 << width, 20), rng.integers(0, 1 << width, 20))]
                clauses = [Clause(width, mk, v) for mk, v, _ in entries]
                clauses += [Clause(width, mk, v) for mk, v in extra]
                for m in Measure:
                    want = [oracle_delta_rho(c, r, m) for c in clauses]
                    assert drops(clauses, r, m) == want
                    degenerate += sum(d <= 0 for d in want)
                    checked += len(want)
                    assert build_candidates(table, r, m) == [
                        CandidateClause(Clause(width, mk, v), cov, d)
                        for (mk, v, cov), d in zip(entries, want)
                        if d > 0
                    ]
        assert checked > 2000 and degenerate > 50


def candidate_digest(cands):
    rows = [(c.clause.mask, c.clause.values, c.coverage, c.delta_rho) for c in cands]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# sha256 of repr([(mask, values, coverage, δρ), ...]) in candidate order,
# recorded with the one-clause-at-a-time closure and δρ
REGION_PINS = {
    "fig1": (14, "7e473bddb529c8ef7dccaf9f9e74522e494586208e9b68c812f12d6d3a61312f"),
    "ph2": (17, "b2741a39fc692b7347d672656c504aac0db9c543fb1d398b5b43774f9a5ab6c0"),
    "bottleneck": (15782, "32a7a82e4dce05fed8272a23fd325f969de541d302501b35986cdb10315f3934"),
}

# sha256 of repr([(candidate rows as above, chosen indices), ...]) over every
# synthesis of one mis_branch solve, with its syntheses, candidates and
# branches; recorded as REGION_PINS, except the 3reg60/0/vc and kings400
# entries, re-recorded when the gamma loop stopped at its first one-clause rule
SEARCH_PINS = {
    ("3reg60", 0, "vc"): (7, 464, 11, "479db407de13daf6f50b3e80af5c2ab805f51dc392ed2a38e6ff64da398a7a7a"),
    ("3reg60", 0, "ed"): (9, 508, 11, "554d4f1bad8f787c79618211c44a0003218cd02fcb8beb3a100be10f62b3f247"),
    ("3reg60", 1, "vc"): (8, 308, 12, "26961dff0b96533ef52fd200f564e0db7575f446ab8b0169d94f77995159a4b6"),
    ("3reg60", 1, "ed"): (10, 478, 17, "ac326b05873eb65189050371f7c08cb45a6a16ac2f417207f394476bf2579913"),
    ("3reg60", 2, "vc"): (7, 163, 14, "8a605bc789b1c81caf73d5469585234ffc1efc5ec0724e5f5b427b5cb2cc26b6"),
    ("3reg60", 2, "ed"): (6, 176, 11, "1900e06affbe5620a666e1507706392f1ddae0c3194f822dcf041d5f458f478e"),
    ("3reg60", 3, "vc"): (10, 397, 16, "09a86db2d2e43e45b443d58d89b0fa1a13ab6ef34461bd1f1983018595e6bd69"),
    ("3reg60", 3, "ed"): (10, 414, 16, "500be085a2b1b2b4d9d423d9f232d83cfc0597fcde2a5c486d2954c9de2f66ce"),
    ("3reg60", 4, "vc"): (8, 325, 12, "5c79fd14053de546b6c421ab935e8541f35307216723b02ff8295d8d7c74b75a"),
    ("3reg60", 4, "ed"): (9, 307, 10, "835eead2f991d44815de1c3ce436da2135eb13fe64fc89dffbca31974e9df7c0"),
    ("3reg60", 5, "vc"): (8, 469, 15, "8034cf68aff2c565fca1fdae21dc5f30e9a9d5b7dbf40ebd2693b058f47d8b18"),
    ("3reg60", 5, "ed"): (12, 770, 18, "b930ccdc8c2d15773154a4b43576145e8ab57ced037bbf198c18eaff06e16f71"),
    ("kings400", 4, "vc"): (101, 2398, 8, "c5170cebfcbddd4d55d94c2b83b37905eb3ac92347c5ca521fc472dd9386a8f1"),
    ("kings400", 4, "ed"): (151, 3337, 27, "1ef7cba587c9b5243fd5854b36bc65ba933dcbe19e7c8a5a3c308d36f1367ea6"),
}

PIN_GRAPHS = {
    "3reg60": lambda seed: three_regular(60, seed),
    "kings400": lambda seed: kings_subgraph(400, 0.8, seed),
}


class TestCandidatePins:
    def test_paper_regions(self):
        cases = {
            "fig1": (fig1_region(), Measure.VERTEX_COUNT),
            "ph2": (ph2_region(), Measure.EFFECTIVE_DEGREE),
            "bottleneck": (bottleneck_region(), Measure.EFFECTIVE_DEGREE),
        }
        for name, (region, m) in cases.items():
            env_pruning = region.vertices != region.host.full_mask()
            cands = build_candidates(table_of(region, env_pruning), region, m)
            assert (len(cands), candidate_digest(cands)) == REGION_PINS[name], name

    def test_every_synthesis_of_a_search(self, monkeypatch):
        for (kind, seed, measure), want in SEARCH_PINS.items():
            seen = []
            synthesize = engine.optimal_rule

            def record(*args, **kwargs):
                table, cands, result = synthesize(*args, **kwargs)
                rows = [(c.clause.mask, c.clause.values, c.coverage, c.delta_rho) for c in cands]
                seen.append((rows, result.chosen_indices))
                return table, cands, result

            monkeypatch.setattr(engine, "optimal_rule", record)
            rep = mis_branch(PIN_GRAPHS[kind](seed), SolveConfig(measure=Measure(measure)))
            monkeypatch.undo()
            got = (len(seen), sum(len(rows) for rows, _ in seen), rep.branch_count,
                   hashlib.sha256(repr(seen).encode()).hexdigest())
            assert got == want, (kind, seed, measure)


class TestIsValidRule:
    def test_fig1_optimal_rule_is_valid(self):
        table = fig1_table()
        rule = DNF(tuple(
            clause_from_text(t, 5)
            for t in ("¬a ∧ ¬b ∧ c ∧ ¬d ∧ e", "a ∧ b ∧ c ∧ ¬d ∧ ¬e", "¬a ∧ ¬c ∧ d ∧ ¬e")
        ))
        assert is_valid_rule(rule, table)

    def test_partial_rule_is_invalid(self):
        table = fig1_table()
        rule = DNF((clause_from_text("a ∧ b ∧ c ∧ ¬d ∧ ¬e", 5),))
        assert not is_valid_rule(rule, table)

    def test_not_w_valid_on_domination(self):
        table = boundary_grouped(prune_irrelevant(alpha_tensor(domination_region())))
        assert is_valid_rule(DNF((Clause(5, 1, 0),)), table)


def test_render_dnf():
    d = DNF((Clause(2, 0b01, 0b01), Clause(2, 0b10, 0b00)))
    assert render_dnf(d) == "(a) ∨ (¬b)"
