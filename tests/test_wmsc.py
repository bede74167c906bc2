import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.optimize

from optbranch import InfeasibleError, InputError, InternalError, optimize, setcover
from optbranch.clauses import Candidates
from optbranch.optimize import SolverKind, minimize_gamma
from optbranch.setcover import (
    SMALL_SET_LIMIT, CoverProblem, WmscInstance, WmscSolution, solve_exact, solve_lp,
)

from oracles import is_cover, oracle_set_cover, oracle_set_cover_dp
from paper_cases import FIG1_CANDIDATES, FIG1_GAMMA


def table2_instance(gamma=FIG1_GAMMA):
    """The worked example's candidate list, in its published order."""
    row_index = {"000": 0, "010": 1, "001": 2, "111": 3}
    sets = []
    weights = []
    for _text, rows, drho in FIG1_CANDIDATES:
        cov = 0
        for s in rows:
            cov |= 1 << row_index[s]
        sets.append(cov)
        weights.append(gamma ** -drho)
    return WmscInstance(4, tuple(sets), tuple(weights))


def random_instance(rng, max_sets=15):
    k = int(rng.integers(3, max_sets + 1))
    universe = int(rng.integers(2, 9))
    full = (1 << universe) - 1
    sets = [int(rng.integers(1, full + 1)) for _ in range(k - 1)]
    missing = full & ~np.bitwise_or.reduce(np.array(sets + [0], dtype=np.int64))
    sets.append(int(missing) if missing else int(rng.integers(1, full + 1)))
    weights = tuple(float(w) for w in rng.uniform(0.05, 1.0, size=k))
    return WmscInstance(universe, tuple(sets), weights)


def wide_instance(rng, gamma, drho_lo, drho_hi):
    """At least 110 distinct sets over 10-15 elements, weighted gamma^-drho.

    Collapsing identical coverages leaves every set, so the instance stays
    above ``SMALL_SET_LIMIT`` and exercises the wide path of ``solve_exact``.
    """
    universe = int(rng.integers(10, 16))
    k = int(rng.integers(110, 201))
    sets = set()
    while len(sets) < k:
        sets.add(int(rng.integers(1, 1 << universe)))
    drho = rng.integers(drho_lo, drho_hi + 1, size=k)
    weights = tuple(float(gamma) ** -float(d) for d in drho)
    return WmscInstance(universe, tuple(sorted(sets)), weights)


def padded_instance(rng, core, universe=10, pads=110):
    """Unit-weight ``core`` sets, padded past ``SMALL_SET_LIMIT`` distinct sets.

    Every element the core leaves out gets a unit singleton, and ``pads``
    distinct random sets weigh their size plus one half: dearer per element
    than any core set or singleton, so no optimum, fractional or integral,
    holds one.
    """
    core_elements = 0
    for cov in core:
        core_elements |= cov
    sets = list(core) + [1 << e for e in range(universe) if not (core_elements >> e) & 1]
    weights = [1.0] * len(sets)
    seen = set(sets)
    target = len(sets) + pads
    while len(seen) < target:
        cov = int(rng.integers(1, 1 << universe))
        if cov not in seen:
            seen.add(cov)
            sets.append(cov)
            weights.append(cov.bit_count() + 0.5)
    return WmscInstance(universe, tuple(sets), tuple(weights))


# odd cycle: LP optimum 1.5 at x = 1/2 each, integer optimum 2
ODD_CYCLE = (0b011, 0b110, 0b101)
# greedy takes {0,1,2,3} first (1/4 per element) and then still needs the
# other two sets, which alone cover all six elements: the LP is integral
GREEDY_TRAP = (0b001111, 0b010011, 0b101100)
# both sets are needed, so greedy is optimal and the LP is tight; padded, the
# shared element 2 has the fewest covering sets, so the dual ascent raises it
# first and stops one short of the optimum
OVERLAP = (0b0111, 0b1100)


def record_exits(monkeypatch):
    """Spy on ``milp`` and ``_mip_cover``; returns the list of exits taken.

    (c) when a MIP ran, (a) when only the LP ran and the incumbent came
    back, (b) when only the LP ran and its cover replaced the incumbent.
    """
    real_milp = scipy.optimize.milp
    real_mip_cover = setcover._mip_cover
    integral_calls = []
    exits = []

    def milp(c, *, integrality, **kwargs):
        integral_calls.append(bool(np.any(integrality)))
        return real_milp(c, integrality=integrality, **kwargs)

    def mip_cover(covs, weights, universe_size, incumbent, **kwargs):
        integral_calls.clear()
        chosen = real_mip_cover(covs, weights, universe_size, incumbent, **kwargs)
        if any(integral_calls):
            exits.append("c")
        elif integral_calls:
            exits.append("a" if chosen == list(incumbent[1]) else "b")
        return chosen

    monkeypatch.setattr(scipy.optimize, "milp", milp)
    monkeypatch.setattr(setcover, "_mip_cover", mip_cover)
    return exits


def test_empty_universe_has_the_empty_cover():
    inst = WmscInstance(0, (), ())
    assert solve_exact(inst) == WmscSolution((), 0, None)
    assert solve_lp(inst, seed=0) == WmscSolution((), 0, 0.0)


class TestSolveExact:
    def test_table2_selects_published_rule(self):
        sol = solve_exact(table2_instance())
        # 1-based {4, 5, 7} in the published numbering
        assert tuple(i + 1 for i in sol.chosen) == (4, 5, 7)
        assert math.isclose(sol.objective, 1.0, abs_tol=1e-9)
        assert sol.lp_bound is None

    def test_single_covering_set(self):
        inst = WmscInstance(3, (0b111,), (0.7,))
        sol = solve_exact(inst)
        assert sol.chosen == (0,)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            inst = random_instance(rng)
            want, _ = oracle_set_cover(inst.universe_size, inst.sets, inst.weights)
            sol = solve_exact(inst)
            assert is_cover(sol, inst)
            assert abs(sol.objective - want) <= 1e-9

    def test_tiny_weights_match_dp_oracle(self):
        # every other weight scaled by 2^-50: optima far below the heaviest set
        rng = np.random.default_rng(7)
        for _ in range(200):
            inst = random_instance(rng)
            weights = tuple(w * 2.0 ** -50 if i % 2 else w
                            for i, w in enumerate(inst.weights))
            inst = WmscInstance(inst.universe_size, inst.sets, weights)
            want, _ = oracle_set_cover_dp(inst.universe_size, inst.sets, inst.weights)
            sol = solve_exact(inst)
            assert is_cover(sol, inst)
            assert math.isclose(sol.objective, want, rel_tol=1e-9)

    def test_wide_instances_match_dp_oracle(self):
        rng = np.random.default_rng(4096)
        cases = [(1.1, 4, 30)] * 10 + [(2.0, 4, 30)] * 10
        insts = [wide_instance(rng, *case) for case in cases]
        # weights spanning 2^-60..1: the optimum sits far below the heaviest set
        span = wide_instance(rng, 2.0, 0, 60)
        weights = (1.0, 2.0 ** -60) + span.weights[2:]
        insts.append(WmscInstance(span.universe_size, span.sets, weights))
        # nearly equal weights: covers differ by less than HiGHS's absolute gap
        # unless the objective is lifted
        insts += [wide_instance(rng, 1.0 + 2.0 ** -23, 4, 30) for _ in range(10)]
        for inst in insts:
            assert len(set(inst.sets)) >= 110
            want, _ = oracle_set_cover_dp(inst.universe_size, inst.sets, inst.weights)
            sol = solve_exact(inst)
            assert is_cover(sol, inst)
            assert math.isclose(sol.objective, want, rel_tol=1e-9)
            assert solve_exact(inst).chosen == sol.chosen

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            solve_exact(WmscInstance(3, (0b011,), (1.0,)))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng)
        a = solve_exact(inst)
        b = solve_exact(inst)
        assert a == b

    def test_weights_must_be_positive(self):
        with pytest.raises(InputError):
            WmscInstance(2, (0b11,), (0.0,))
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                solve_exact(WmscInstance(2, (1, 2, 3), (1.0, 1.0, bad)))


class TestWidePath:
    """The LP-first exits of ``_mip_cover``, each checked against the DP oracle."""

    def test_each_exit_matches_dp_oracle(self, monkeypatch):
        exits = record_exits(monkeypatch)
        rng = np.random.default_rng(1729)
        cases = [
            (padded_instance(rng, GREEDY_TRAP), "b"),  # integral LP beats the greedy incumbent
            (padded_instance(rng, ODD_CYCLE), "c"),    # fractional LP: the MIP decides
            (padded_instance(rng, OVERLAP), "a"),      # the LP bound certifies the greedy cover
        ]
        for inst, want_exit in cases:
            assert len(set(inst.sets)) > SMALL_SET_LIMIT
            want, _ = oracle_set_cover_dp(inst.universe_size, inst.sets, inst.weights)
            exits.clear()
            sol = solve_exact(inst)
            assert exits == [want_exit]
            assert is_cover(sol, inst)
            assert math.isclose(sol.objective, want, rel_tol=1e-9)

    def test_exits_on_seeded_wide_instances(self, monkeypatch):
        exits = record_exits(monkeypatch)
        rng = np.random.default_rng(4096)
        for _ in range(20):
            inst = wide_instance(rng, 1.1, 4, 30)
            want, _ = oracle_set_cover_dp(inst.universe_size, inst.sets, inst.weights)
            sol = solve_exact(inst)
            assert is_cover(sol, inst)
            assert math.isclose(sol.objective, want, rel_tol=1e-9)
        assert set(exits) == {"a", "b", "c"}

    @pytest.mark.parametrize("failing", ["LP", "MIP"])
    def test_failed_highs_status_raises(self, monkeypatch, failing):
        real_milp = scipy.optimize.milp

        def milp(c, *, integrality, **kwargs):
            res = real_milp(c, integrality=integrality, **kwargs)
            if ("MIP" if np.any(integrality) else "LP") == failing:
                res.status = 1
                res.message = "Time limit reached."
            return res

        monkeypatch.setattr(scipy.optimize, "milp", milp)
        inst = padded_instance(np.random.default_rng(1729), ODD_CYCLE)
        with pytest.raises(InternalError, match=f"set-cover {failing} failed"):
            solve_exact(inst)
        if failing == "LP":
            with pytest.raises(InternalError, match="set-cover LP failed"):
                solve_lp(inst, seed=0)


class TestSolveLp:
    def test_relaxation_sandwich(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            inst = random_instance(rng)
            exact = solve_exact(inst)
            lp = solve_lp(inst, seed=5)
            assert is_cover(lp, inst)
            assert lp.lp_bound <= exact.objective + 1e-9
            assert lp.objective >= exact.objective - 1e-9

    def test_integral_lp_matches_exact(self):
        # disjoint sets force an integral relaxation
        inst = WmscInstance(4, (0b0011, 0b1100), (0.3, 0.4))
        exact = solve_exact(inst)
        lp = solve_lp(inst, seed=0)
        assert lp.chosen == exact.chosen
        assert math.isclose(lp.objective, exact.objective, abs_tol=1e-9)
        assert math.isclose(lp.lp_bound, exact.objective, abs_tol=1e-9)

    def test_table2_rounding_stays_close(self):
        inst = table2_instance()
        exact = solve_exact(inst)
        lp = solve_lp(inst, seed=11)
        assert lp.objective <= 1.10 * exact.objective

    def test_deterministic_per_seed(self):
        inst = table2_instance()
        assert solve_lp(inst, seed=3) == solve_lp(inst, seed=3)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            solve_lp(WmscInstance(3, (0b011,), (1.0,)), seed=0)

    def test_lp_bound_below_optimum_at_tiny_weights(self):
        rng = np.random.default_rng(2024)
        # wide, weights 2^-drho with drho 0..60
        insts = [wide_instance(rng, 2.0, 0, 60) for _ in range(5)]
        # small, every other weight scaled by 2^-50
        for _ in range(200):
            inst = random_instance(rng)
            weights = tuple(w * 2.0 ** -50 if i % 2 else w
                            for i, w in enumerate(inst.weights))
            insts.append(WmscInstance(inst.universe_size, inst.sets, weights))
        for inst in insts:
            want, _ = oracle_set_cover_dp(inst.universe_size, inst.sets, inst.weights)
            lp = solve_lp(inst, seed=1)
            assert is_cover(lp, inst)
            assert lp.lp_bound <= want * (1.0 + 1e-9)
            assert lp.objective >= want * (1.0 - 1e-9)


# (instance, seed, chosen, objective, lp_bound) of solve_lp: the rounding's
# random stream, visiting order and tie rules decide the relaxed search, so
# a refactor of the rounding must repeat each exactly
LP_PINS = [
    ("random0", 0, (0, 1), 0.622914240374826, 0.622914240374826),
    ("random1", 1, (1, 2, 3), 1.8081090702615992, 1.8081090702615992),
    ("random2", 2, (2,), 0.08457882236567227, 0.08457882236567227),
    ("random3", 3, (3, 4, 6), 1.1452995237906065, 1.1452995237906065),
    ("random4", 4, (0,), 0.057479246833981985, 0.057479246833981985),
    ("random5", 5, (5, 9), 0.7018586670949188, 0.6767185864883214),
    ("random6", 6, (5, 6), 0.5298635895249844, 0.4399660021043409),
    ("random7", 7, (1, 4), 1.3282887362748501, 1.3282887362748501),
    ("wide0", 100, (59, 123), 2.6020852139652106e-18, 2.6020852139652106e-18),
    ("wide1", 101, (169, 190), 2.6020852139652106e-18, 2.6020852139652106e-18),
    ("wide2", 102, (71, 103), 1.734723475976807e-18, 1.734723475976807e-18),
    ("wide_near1_0", 200, (66, 124), 0.6697959533607684, 0.4911836991312301),
    ("wide_near1_1", 201, (131, 138), 0.6697959533607684, 0.5090449245541836),
    ("wide_near1_2", 202, (12, 177), 0.6697959533607684, 0.5251200274348423),
    ("table2-0", 0, (3, 4, 6), 1.0000000000000002, 1.0000000000000002),
    ("table2-11", 11, (3, 4, 6), 1.0000000000000002, 1.0000000000000002),
]


def _pinned_instances():
    rng = np.random.default_rng(4242)
    insts = {f"random{k}": random_instance(rng) for k in range(8)}
    rng = np.random.default_rng(77)
    insts.update({f"wide{k}": wide_instance(rng, 2.0, 0, 60) for k in range(3)})
    insts.update({f"wide_near1_{k}": wide_instance(rng, 1.2, 1, 6) for k in range(3)})
    insts["table2-0"] = insts["table2-11"] = table2_instance()
    return insts


def test_solve_lp_pinned():
    insts = _pinned_instances()
    for name, seed, chosen, objective, lp_bound in LP_PINS:
        sol = solve_lp(insts[name], seed)
        assert sol.chosen == chosen, name
        assert sol.objective == objective, name
        assert math.isclose(sol.lp_bound, lp_bound, rel_tol=1e-12), name


def test_solve_lp_draws_once_when_relaxation_is_integral(monkeypatch):
    real = np.random.default_rng
    draws = []

    def counting(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(setcover.np.random, "default_rng", counting)
    # disjoint sets: the relaxation is integral, so every trial would agree
    integral = WmscInstance(4, (0b0011, 0b1100, 0b0110), (0.3, 0.4, 0.9))
    assert solve_lp(integral, seed=7).chosen == (0, 1)
    assert len(draws) == 1
    # a triangle of pairs: x = 1/2 on every set, so every trial runs
    draws.clear()
    fractional = WmscInstance(3, (0b011, 0b110, 0b101), (1.0, 1.0, 1.0))
    solve_lp(fractional, seed=7)
    assert len(draws) == setcover.LP_TRIALS


def test_solve_lp_is_irredundant():
    rng = np.random.default_rng(91)
    insts = [random_instance(rng, max_sets=30) for _ in range(150)]
    insts += [wide_instance(rng, 1.1, 1, 8) for _ in range(6)]
    for seed, inst in enumerate(insts):
        chosen = solve_lp(inst, seed).chosen
        for drop in chosen:
            rest = 0
            for i in chosen:
                if i != drop:
                    rest |= inst.sets[i]
            assert rest != inst.full_mask(), (seed, drop)


def test_enumeration_oracle_exact_at_tiny_weights():
    # the first instance of this stream has optimum 6.49e-16: an absolute
    # acceptance tolerance of 1e-15 in the oracle settles on 7.10e-16
    rng = np.random.default_rng(7)
    for _ in range(10):
        inst = random_instance(rng)
        weights = tuple(w * 2.0 ** -50 if i % 2 else w for i, w in enumerate(inst.weights))
        got, _ = oracle_set_cover(inst.universe_size, inst.sets, weights)
        want, _ = oracle_set_cover_dp(inst.universe_size, inst.sets, weights)
        assert math.isclose(got, want, rel_tol=1e-9)


def test_solution_covers_helper():
    inst = WmscInstance(2, (0b01, 0b10), (1.0, 1.0))
    assert is_cover(WmscSolution((0, 1), 2.0), inst)
    assert not is_cover(WmscSolution((0,), 1.0), inst)


@st.composite
def rule_covers(draw):
    """(universe, coverage, δρ) of one rule's candidates: coverages drawn
    from a small pool, so they repeat, and δρ from a narrow range, so they
    tie; a singleton is added for each row the draws leave uncovered."""
    universe = draw(st.integers(1, 8))
    full = (1 << universe) - 1
    pool = draw(st.lists(st.integers(1, full), min_size=1, max_size=16))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 8)),
                          min_size=1, max_size=40))
    covered = 0
    for cov, _ in picks:
        covered |= cov
    picks += [(1 << e, draw(st.integers(1, 8)))
              for e in range(universe) if not (covered >> e) & 1]
    coverage, drops = zip(*picks)
    return universe, coverage, drops


def record_rounds(name):
    """Wrap ``optimize.<name>`` to record each round's (args, solution)."""
    real = getattr(optimize, name)
    rounds = []

    def spy(inst, *args, **kwargs):
        sol = real(inst, *args, **kwargs)
        rounds.append((args, kwargs, sol))
        return sol

    return mock.patch.object(optimize, name, spy), rounds


class TestCoverProblem:
    """One problem per rule gives, at every γ of the rule's trail, the
    cover that a standalone instance over all candidates gives."""

    @pytest.mark.parametrize("limit", [SMALL_SET_LIMIT, 0])  # 0: every search goes to HiGHS
    @given(rule_covers())
    @settings(max_examples=80, deadline=None)
    def test_exact_rounds_match_one_shot(self, limit, case):
        universe, coverage, drops = case
        cands = Candidates(1, (1,) * len(drops), (0,) * len(drops), coverage, drops)
        patch, rounds = record_rounds("solve_exact")
        with mock.patch.object(setcover, "SMALL_SET_LIMIT", limit), patch:
            res = minimize_gamma(cands, universe)
            gammas = (2.0,) + res.gamma_trail[:-1]
            assert len(rounds) == len(gammas)
            for gamma, (_args, _kwargs, sol) in zip(gammas, rounds):
                weights = tuple(gamma ** -float(d) for d in drops)
                assert sol == solve_exact(WmscInstance(universe, coverage, weights))

    @given(rule_covers())
    @settings(max_examples=40, deadline=None)
    def test_lp_rounds_match_one_shot(self, case):
        universe, coverage, drops = case
        cands = Candidates(1, (1,) * len(drops), (0,) * len(drops), coverage, drops)
        patch, rounds = record_rounds("solve_lp")
        with patch:
            res = minimize_gamma(cands, universe, SolverKind.LP_RELAXED, seed=7)
            gammas = (2.0,) + res.gamma_trail[:-1]
            assert len(rounds) == len(gammas)
            for gamma, (_args, kwargs, sol) in zip(gammas, rounds):
                weights = tuple(gamma ** -float(d) for d in drops)
                assert sol == solve_lp(WmscInstance(universe, coverage, weights), kwargs["seed"])

    def test_largest_drop_represents_each_coverage(self):
        problem = CoverProblem(2, (0b01, 0b11, 0b01, 0b11, 0b10), (-3, -2, -5, -2, -1))
        assert problem.indices == [1, 2, 4]
        assert problem.sets == (0b11, 0b01, 0b10)
        assert problem.covering == [[0, 1], [0, 2]]
        assert problem.elements == [[0, 1], [0], [1]]
