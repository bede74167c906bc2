import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optbranch import InfeasibleError, InputError, optimize
from optbranch.clauses import CandidateClause, Clause, build_candidates, render_clause
from optbranch.graph import Graph, Measure, region_of
from optbranch.optimize import SolverKind, find_gamma, minimize_gamma, optimal_rule
from optbranch.table import alpha_tensor, boundary_grouped, prune_irrelevant

from oracles import minimize_gamma_bisection
from paper_cases import (
    FIG1_GAMMA, FIG1_OPTIMAL_RULE, domination_region, fig1_region,
)


def fig1_candidates():
    r = fig1_region()
    table = boundary_grouped(prune_irrelevant(alpha_tensor(r)))
    return table, build_candidates(table, r, Measure.VERTEX_COUNT)


def random_candidates(rng, n_max=10):
    """Candidate lists from the real pipeline on random small regions."""
    while True:
        n = int(rng.integers(3, n_max))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        g = Graph(n, edges)
        r = region_of(g, range(n), boundary=[v for v in range(n) if v % 2 == 0])
        table = boundary_grouped(prune_irrelevant(alpha_tensor(r)))
        cands = build_candidates(table, r, Measure.VERTEX_COUNT)
        if cands:
            return table, cands


class TestFindGamma:
    def test_two_unit_entries(self):
        assert find_gamma([1, 1]) == 2.0

    def test_paper_vectors(self):
        assert abs(find_gamma([4, 10]) - 1.1120) < 1e-4
        assert abs(find_gamma([5, 5, 4]) - 1.2672) < 1e-4
        assert abs(find_gamma([16, 16, 16]) - 1.0711) < 1e-4

    def test_single_entry_is_one(self):
        assert find_gamma([7]) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            find_gamma([])
        with pytest.raises(InputError):
            find_gamma([0, 2])

    @given(st.lists(st.integers(1, 40), min_size=2, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_residual_below_tolerance(self, vector):
        g = find_gamma(vector)
        assert g >= 1.0
        assert abs(sum(g ** -v for v in vector) - 1.0) < 1e-12


class TestMinimizeGamma:
    def test_fig1_optimal_rule(self):
        table, cands = fig1_candidates()
        res = minimize_gamma(cands, len(table))
        assert {render_clause(c) for c in res.rule.clauses} == FIG1_OPTIMAL_RULE
        assert tuple(sorted(res.branching_vector)) == (4, 5, 5)
        assert abs(res.gamma - FIG1_GAMMA) < 1e-10

    def test_domination_single_clause(self):
        r = domination_region()
        table = boundary_grouped(prune_irrelevant(alpha_tensor(r)))
        cands = build_candidates(table, r, Measure.VERTEX_COUNT)
        res = minimize_gamma(cands, len(table))
        assert len(res.rule) == 1
        assert res.gamma == 1.0
        assert render_clause(res.rule.clauses[0]) == "¬a"  # region-local name of w

    def test_gamma_equation_invariant(self):
        table, cands = fig1_candidates()
        res = minimize_gamma(cands, len(table))
        total = sum(res.gamma ** -v for v in res.branching_vector)
        assert abs(total - 1.0) < 1e-10

    def test_uncoverable_universe_raises(self):
        cands = [CandidateClause(Clause(2, 0b11, 0b00), 0b01, 2)]
        with pytest.raises(InfeasibleError):
            minimize_gamma(cands, 2)

    def test_stops_at_first_single_clause(self, monkeypatch):
        # at gamma 2 the cover is the full clause of drho 5 alone; a second
        # round at gamma 1 would weigh every clause 1 and take index 0 instead
        cands = [
            CandidateClause(Clause(2, 0b01, 0b00), 0b11, 2),
            CandidateClause(Clause(2, 0b11, 0b00), 0b11, 5),
            CandidateClause(Clause(2, 0b11, 0b01), 0b01, 5),
            CandidateClause(Clause(2, 0b11, 0b10), 0b10, 5),
        ]
        calls = []
        solve_exact = optimize.solve_exact

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_exact(*args, **kwargs)

        monkeypatch.setattr(optimize, "solve_exact", counted)
        res = minimize_gamma(cands, 2)
        assert res.chosen_indices == (1,)
        assert res.branching_vector == (5,)
        assert res.gamma_trail == (1.0,)
        assert len(calls) == len(res.gamma_trail)

    def test_trail_strictly_decreasing(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            table, cands = random_candidates(rng)
            res = minimize_gamma(cands, len(table))
            trail = res.gamma_trail
            assert len(trail) <= 20
            for a, b in zip(trail, trail[1:]):
                assert b <= a + 1e-12

    def test_exhaustive_optimality_small_candidate_sets(self):
        # tables whose candidate lists stay tiny: compare against trying
        # every valid clause subset directly
        rng = np.random.default_rng(67)
        checked = 0
        while checked < 12:
            table, cands = random_candidates(rng, n_max=6)
            if len(cands) > 6:
                continue
            checked += 1
            res = minimize_gamma(cands, len(table))
            full = (1 << len(table)) - 1
            best = math.inf
            for k in range(1, len(cands) + 1):
                for combo in itertools.combinations(range(len(cands)), k):
                    cov = 0
                    for i in combo:
                        cov |= cands[i].coverage
                    if cov == full:
                        best = min(best, find_gamma([cands[i].delta_rho for i in combo]))
            assert res.gamma <= best + 1e-9

    def test_exact_beats_naive_rule(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            table, cands = random_candidates(rng)
            res = minimize_gamma(cands, len(table))
            # one longest clause per row is always a valid rule
            naive = []
            for i in range(len(table)):
                best = max(
                    (c for c in cands if (c.coverage >> i) & 1),
                    key=lambda c: c.delta_rho,
                )
                naive.append(best.delta_rho)
            assert res.gamma <= find_gamma(naive) + 1e-9

    def test_lp_never_beats_exact(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            table, cands = random_candidates(rng)
            exact = minimize_gamma(cands, len(table), SolverKind.EXACT)
            relaxed = minimize_gamma(cands, len(table), SolverKind.LP_RELAXED, seed=9)
            assert relaxed.gamma >= exact.gamma - 1e-9


class TestBisection:
    def test_fig1_agrees(self):
        table, cands = fig1_candidates()
        assert abs(minimize_gamma_bisection(cands, len(table)) - FIG1_GAMMA) < 1e-4

    def test_single_full_cover_collapses_to_one(self):
        cands = [CandidateClause(Clause(2, 0b01, 0b00), 0b11, 3)]
        assert minimize_gamma_bisection(cands, 2) == 1.0

    def test_agrees_with_fixed_point_on_random_tables(self):
        rng = np.random.default_rng(79)
        for _ in range(25):
            table, cands = random_candidates(rng)
            fixed = minimize_gamma(cands, len(table))
            bis = minimize_gamma_bisection(cands, len(table))
            assert abs(fixed.gamma - bis) <= 1e-5


def test_optimal_rule_pipeline_matches_parts():
    table, cands, res = optimal_rule(fig1_region(), Measure.VERTEX_COUNT)
    assert len(table) == 4 and len(cands) == 14
    assert {render_clause(c) for c in res.rule.clauses} == FIG1_OPTIMAL_RULE
