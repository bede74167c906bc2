import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scipy.optimize

from optbranch import InfeasibleError, InputError, InternalError, optimize, setcover
from optbranch.clauses import Candidates
from optbranch.optimize import GAMMA_TOL, SolverKind, find_gamma, minimize_gamma
from optbranch.setcover import (
    SMALL_SET_LIMIT, CoverProblem, WmscInstance, WmscSolution, solve_exact, solve_lp,
)

from oracles import (
    is_cover, minimize_gamma_bisection, oracle_minimize_gamma_from_two, oracle_set_cover,
    oracle_set_cover_dp,
)
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
# the greedy trap on elements 0-5 beside the odd cycle on 6-8: the greedy
# cover weighs 6, the LP 4.5 and the optimum 5, so the MIP improves on the
# greedy incumbent
TRAP_AND_CYCLE = GREEDY_TRAP + tuple(cov << 6 for cov in ODD_CYCLE)
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
    assert solve_lp(inst) == WmscSolution((), 0, 0.0)


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

    def test_accepted_rounding_skips_the_mip(self, monkeypatch):
        """On a fractional LP a predicate that refuses the swap cover and
        accepts the rounding gets the rounding and no MIP runs; one that
        refuses both gets the MIP's optimum."""
        inst = padded_instance(np.random.default_rng(1729), ODD_CYCLE)
        real_milp = scipy.optimize.milp
        mips = []
        seen = []

        def milp(c, *, integrality, **kwargs):
            mips.append(bool(np.any(integrality)))
            return real_milp(c, integrality=integrality, **kwargs)

        def accept_second(chosen):
            seen.append(chosen)
            return len(seen) == 2

        monkeypatch.setattr(scipy.optimize, "milp", milp)
        optimum = solve_exact(inst)
        assert mips == [False, True]
        mips.clear()
        rounded = solve_exact(inst, improves=accept_second)
        assert mips == [False]
        assert seen[1] == rounded.chosen
        assert is_cover(rounded, inst)
        assert rounded.lp_bound is None
        # the odd cycle's optimum is 2 and the seven other elements take a
        # unit singleton each
        assert math.isclose(optimum.objective, 9.0, rel_tol=1e-9)
        assert rounded.objective >= optimum.objective
        mips.clear()
        seen.clear()
        refused = solve_exact(inst, improves=lambda chosen: seen.append(chosen) or False)
        assert mips == [False, True]
        assert len(seen) == 2
        assert refused == optimum

    def test_improves_is_asked_only_before_a_mip(self):
        """Certified, branch-and-bound and LP-settled covers consult it once,
        for the swap cover, and a refusal leaves the plain call's cover."""
        rng = np.random.default_rng(1729)
        insts = [table2_instance(), WmscInstance(4, (0b0011, 0b1100), (0.3, 0.4)),
                 padded_instance(rng, GREEDY_TRAP), padded_instance(rng, OVERLAP)]
        insts += [random_instance(np.random.default_rng(k)) for k in range(20)]
        for inst in insts:
            seen = []
            assert solve_exact(inst, improves=lambda c: seen.append(c) or False) == solve_exact(inst)
            assert len(seen) == 1

    def test_highs_runs_without_presolve(self, monkeypatch):
        """Every LP and MIP turns HiGHS's presolve off, and every MIP asks
        for a zero relative gap: the collapsed problem leaves presolve
        nothing to remove, and a presolved MIP restarts its search.  Every
        MIP is bounded by its lifted incumbent and runs without the RENS and
        RINS heuristics; no LP gets those options, as a bound would end its
        dual simplex early."""
        real_milp = scipy.optimize.milp
        real_mip_cover = setcover._mip_cover
        calls = []
        incumbents = []

        def milp(c, *, integrality, options=None, **kwargs):
            calls.append((bool(np.any(integrality)), dict(options or {})))
            return real_milp(c, integrality=integrality, options=options, **kwargs)

        def mip_cover(covs, weights, universe_size, incumbent, **kwargs):
            incumbents.append(incumbent[0])
            return real_mip_cover(covs, weights, universe_size, incumbent, **kwargs)

        monkeypatch.setattr(scipy.optimize, "milp", milp)
        monkeypatch.setattr(setcover, "_mip_cover", mip_cover)
        rng = np.random.default_rng(1729)
        for core in (ODD_CYCLE, TRAP_AND_CYCLE):
            calls.clear()
            incumbents.clear()
            inst = padded_instance(rng, core)
            solve_exact(inst)
            solve_lp(inst)
            assert [mip for mip, _ in calls] == [False, True, False]
            best_obj, = incumbents
            lifted = best_obj * 2.0 ** (setcover.MIP_LIFT_EXP - math.frexp(best_obj)[1])
            assert 2.0 ** (setcover.MIP_LIFT_EXP - 1) <= lifted < 2.0 ** setcover.MIP_LIFT_EXP
            for mip, options in calls:
                if mip:
                    assert options == {"mip_rel_gap": 0.0, "presolve": False,
                                       "objective_bound": lifted,
                                       "mip_heuristic_run_rens": False,
                                       "mip_heuristic_run_rins": False}
                else:
                    assert options == {"presolve": False}

    @pytest.mark.parametrize("failing, status", [("LP", 1), ("MIP", 1), ("LP", 2), ("MIP", 2)],
                             ids=["LP", "MIP", "LP-infeasible", "MIP-infeasible"])
    def test_failed_highs_status_raises(self, monkeypatch, failing, status):
        """Every status but 0 raises, except status 2 (infeasible) on the
        MIP: the kept columns cover the universe, so only the incumbent's
        bound can make it infeasible, and the incumbent stands."""
        real_milp = scipy.optimize.milp

        def milp(c, *, integrality, **kwargs):
            res = real_milp(c, integrality=integrality, **kwargs)
            if ("MIP" if np.any(integrality) else "LP") == failing:
                res.status = status
                res.message = "Time limit reached." if status == 1 else "Infeasible."
                res.x = res.fun = None
            return res

        inst = padded_instance(np.random.default_rng(1729), TRAP_AND_CYCLE)
        optimum = solve_exact(inst)
        monkeypatch.setattr(scipy.optimize, "milp", milp)
        if (failing, status) == ("MIP", 2):
            # the greedy incumbent, not the MIP's lighter cover
            sol = solve_exact(inst)
            assert is_cover(sol, inst)
            assert math.isclose(optimum.objective, 5.0, rel_tol=1e-9)
            assert math.isclose(sol.objective, 6.0, rel_tol=1e-9)
            return
        with pytest.raises(InternalError, match=f"set-cover {failing} failed"):
            solve_exact(inst)
        if failing == "LP":
            with pytest.raises(InternalError, match="set-cover LP failed"):
                solve_lp(inst)

    def test_instances_reaching_the_mip_match_dp_oracle(self, monkeypatch):
        """Padded random cores and wide instances whose LP is fractional run
        the bounded MIP, and each gets the DP optimum: a MIP that finds no
        cover below the incumbent's bound leaves the incumbent.  Weights
        1.0000001^-drho put covers within a hair of each other, so a bound
        even slightly below the incumbent would lose an optimum."""
        exits = record_exits(monkeypatch)
        rng = np.random.default_rng(31337)
        mips = 0
        for k in range(60):
            if k % 3 == 0:
                core = [int(rng.integers(1, 1 << 10)) for _ in range(int(rng.integers(4, 9)))]
                inst = padded_instance(rng, tuple(core))
            else:
                inst = wide_instance(rng, 1.1 if k % 3 == 1 else 1.0 + 2.0 ** -23, 4, 30)
            exits.clear()
            sol = solve_exact(inst)
            want, _ = oracle_set_cover_dp(inst.universe_size, inst.sets, inst.weights)
            assert is_cover(sol, inst)
            assert math.isclose(sol.objective, want, rel_tol=1e-9), k
            mips += exits == ["c"]
        assert mips >= 30

    def test_no_warning_escapes_a_mip(self, monkeypatch):
        """The options milp passes through verbatim raise no warning outside
        ``_mip_cover``, and HiGHS accepts every one of them (it would reject
        one with an ``OptimizeWarning``, and drop it)."""
        exits = record_exits(monkeypatch)
        inst = padded_instance(np.random.default_rng(1729), TRAP_AND_CYCLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_exact(inst)
        assert exits == ["c"]
        assert math.isclose(sol.objective, 5.0, rel_tol=1e-9)


class TestSolveLp:
    def test_relaxation_sandwich(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            inst = random_instance(rng)
            exact = solve_exact(inst)
            lp = solve_lp(inst)
            assert is_cover(lp, inst)
            assert lp.lp_bound <= exact.objective + 1e-9
            assert lp.objective >= exact.objective - 1e-9

    def test_integral_lp_matches_exact(self):
        # disjoint sets force an integral relaxation
        inst = WmscInstance(4, (0b0011, 0b1100), (0.3, 0.4))
        exact = solve_exact(inst)
        lp = solve_lp(inst)
        assert lp.chosen == exact.chosen
        assert math.isclose(lp.objective, exact.objective, abs_tol=1e-9)
        assert math.isclose(lp.lp_bound, exact.objective, abs_tol=1e-9)

    def test_table2_rounding_stays_close(self):
        inst = table2_instance()
        exact = solve_exact(inst)
        lp = solve_lp(inst)
        assert lp.objective <= 1.10 * exact.objective

    def test_deterministic_per_instance(self):
        inst = table2_instance()
        assert solve_lp(inst) == solve_lp(inst) == solve_lp(table2_instance())

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            solve_lp(WmscInstance(3, (0b011,), (1.0,)))

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
            lp = solve_lp(inst)
            assert is_cover(lp, inst)
            assert lp.lp_bound <= want * (1.0 + 1e-9)
            assert lp.objective >= want * (1.0 - 1e-9)


# (instance, chosen, objective, lp_bound) of solve_lp: the rounding's
# random stream, visiting order and tie rules decide the relaxed search, so
# a refactor of the rounding must repeat each exactly
LP_PINS = [
    ("random0", (0, 1), 0.622914240374826, 0.622914240374826),
    ("random1", (1, 2, 3), 1.8081090702615992, 1.8081090702615992),
    ("random2", (2,), 0.08457882236567227, 0.08457882236567227),
    ("random3", (3, 4, 6), 1.1452995237906065, 1.1452995237906065),
    ("random4", (0,), 0.057479246833981985, 0.057479246833981985),
    ("random5", (5, 9), 0.7018586670949188, 0.6767185864883214),
    ("random6", (5, 6), 0.5298635895249844, 0.4399660021043409),
    ("random7", (1, 4), 1.3282887362748501, 1.3282887362748501),
    ("wide0", (59, 123), 2.6020852139652106e-18, 2.6020852139652106e-18),
    ("wide1", (169, 190), 2.6020852139652106e-18, 2.6020852139652106e-18),
    ("wide2", (71, 103), 1.734723475976807e-18, 1.734723475976807e-18),
    ("wide_near1_0", (66, 124), 0.6697959533607684, 0.4911836991312301),
    ("wide_near1_1", (33, 138), 0.6697959533607684, 0.5090449245541836),
    ("wide_near1_2", (48, 121), 0.6697959533607684, 0.5251200274348423),
    ("table2", (3, 4, 6), 1.0000000000000002, 1.0000000000000002),
]


def _pinned_instances():
    rng = np.random.default_rng(4242)
    insts = {f"random{k}": random_instance(rng) for k in range(8)}
    rng = np.random.default_rng(77)
    insts.update({f"wide{k}": wide_instance(rng, 2.0, 0, 60) for k in range(3)})
    insts.update({f"wide_near1_{k}": wide_instance(rng, 1.2, 1, 6) for k in range(3)})
    insts["table2"] = table2_instance()
    return insts


def test_solve_lp_pinned():
    insts = _pinned_instances()
    for name, chosen, objective, lp_bound in LP_PINS:
        sol = solve_lp(insts[name])
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
    assert solve_lp(integral).chosen == (0, 1)
    assert len(draws) == 1
    # a triangle of pairs: x = 1/2 on every set, so every trial runs
    draws.clear()
    fractional = WmscInstance(3, (0b011, 0b110, 0b101), (1.0, 1.0, 1.0))
    solve_lp(fractional)
    assert len(draws) == setcover.LP_TRIALS


def test_solve_lp_is_irredundant():
    rng = np.random.default_rng(91)
    insts = [random_instance(rng, max_sets=30) for _ in range(150)]
    insts += [wide_instance(rng, 1.1, 1, 8) for _ in range(6)]
    for k, inst in enumerate(insts):
        chosen = solve_lp(inst).chosen
        for drop in chosen:
            rest = 0
            for i in chosen:
                if i != drop:
                    rest |= inst.sets[i]
            assert rest != inst.full_mask(), (k, drop)


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


# a rule whose greedy-and-swap cover at its optimal γ is not optimal: a loop
# that stopped on that unproven cover would end at γ 1.2321, not 1.1673
SWAP_NOT_OPTIMAL = (7, (44, 44, 44, 83, 18, 72, 72, 18, 9, 55, 55),
                    (2, 8, 2, 1, 3, 5, 5, 7, 5, 3, 4))


def record_rounds(name):
    """Wrap ``optimize.<name>`` to record each round's (args, solution)."""
    real = getattr(optimize, name)
    rounds = []

    def spy(inst, *args, **kwargs):
        sol = real(inst, *args, **kwargs)
        rounds.append((args, kwargs, sol))
        return sol

    return mock.patch.object(optimize, name, spy), rounds


def check_exact_rounds(cands, universe):
    """Run the exact γ loop and check every round; returns the result and
    each round's exit: "swap" or "rounding" when ``solve_exact`` returned a
    cover the loop's predicate accepted, "proven" otherwise.

    A proven round equals the standalone ``solve_exact`` over all
    candidates at its γ; an accepted one is the last cover the predicate
    was asked about, a rule of two or more clauses whose root is below γ by
    more than ``GAMMA_TOL``.  The last round is proven.
    """
    coverage, drops = cands.coverage, cands.delta_rho
    real = optimize.solve_exact
    rounds = []

    def spy(inst, improves):
        asked = []

        def recorded(chosen):
            asked.append((chosen, improves(chosen)))
            return asked[-1][1]

        sol = real(inst, recorded)
        rounds.append((sol, asked))
        return sol

    with mock.patch.object(optimize, "solve_exact", spy):
        res = minimize_gamma(cands, universe)
    gammas = (2.0,) + res.gamma_trail[:-1]
    assert len(rounds) == len(gammas)
    exits = []
    for gamma, (sol, asked) in zip(gammas, rounds):
        verdicts = [verdict for _chosen, verdict in asked]
        if True in verdicts:
            exits.append("swap" if verdicts[0] else "rounding")
            assert asked[-1] == (sol.chosen, True) and verdicts.count(True) == 1
            assert is_cover(sol, WmscInstance(universe, coverage, (1.0,) * len(drops)))
            vector = [drops[i] for i in sol.chosen]
            assert len(vector) >= 2 and find_gamma(vector) < gamma - GAMMA_TOL
        else:
            exits.append("proven")
            weights = tuple(gamma ** -float(d) for d in drops)
            assert sol == solve_exact(WmscInstance(universe, coverage, weights))
    assert exits[-1] == "proven"
    return res, exits


class TestCoverProblem:
    """One problem per rule gives, at every γ of the rule's trail, the
    cover that a standalone instance over all candidates gives."""

    @pytest.mark.parametrize("limit", [SMALL_SET_LIMIT, 0])  # 0: every search goes to HiGHS
    @given(rule_covers())
    @example(SWAP_NOT_OPTIMAL)
    @settings(max_examples=80, deadline=None)
    def test_exact_rounds_match_one_shot(self, limit, case):
        universe, coverage, drops = case
        cands = Candidates(1, (1,) * len(drops), (0,) * len(drops), coverage, drops)
        with mock.patch.object(setcover, "SMALL_SET_LIMIT", limit):
            check_exact_rounds(cands, universe)

    @pytest.mark.parametrize("seed", [40, 297])
    def test_rounded_round_keeps_the_rule(self, seed):
        """Seeded rules whose rounds on HiGHS take all three exits end on the
        rule and γ of the loop whose every round is proven."""
        rng = np.random.default_rng(seed)
        universe = int(rng.integers(6, 13))
        coverage = [int(rng.integers(1, 1 << universe)) for _ in range(int(rng.integers(20, 80)))]
        coverage += [1 << e for e in range(universe)]
        drops = tuple(int(rng.integers(1, 9)) for _ in coverage)
        cands = Candidates(1, (1,) * len(drops), (0,) * len(drops), tuple(coverage), drops)
        real = optimize.solve_exact
        with mock.patch.object(setcover, "SMALL_SET_LIMIT", 0):
            with mock.patch.object(optimize, "solve_exact", lambda inst, improves: real(inst)):
                want = minimize_gamma(cands, universe)
            got, exits = check_exact_rounds(cands, universe)
        assert set(exits) == {"swap", "rounding", "proven"}
        assert got.chosen_indices == want.chosen_indices
        assert got.gamma == want.gamma
        assert abs(got.gamma - minimize_gamma_bisection(cands, universe)) <= 1e-5

    @given(rule_covers())
    @settings(max_examples=40, deadline=None)
    def test_lp_rounds_match_one_shot(self, case):
        universe, coverage, drops = case
        cands = Candidates(1, (1,) * len(drops), (0,) * len(drops), coverage, drops)
        patch, rounds = record_rounds("solve_lp")
        with patch:
            res = minimize_gamma(cands, universe, SolverKind.LP_RELAXED)
            gammas = (2.0,) + res.gamma_trail[:-1]
            assert len(rounds) == len(gammas)
            for gamma, (_args, _kwargs, sol) in zip(gammas, rounds):
                weights = tuple(gamma ** -float(d) for d in drops)
                assert sol == solve_lp(WmscInstance(universe, coverage, weights))

    def test_largest_drop_represents_each_coverage(self):
        problem = CoverProblem(2, (0b01, 0b11, 0b01, 0b11, 0b10), (-3, -2, -5, -2, -1))
        assert problem.indices == [1, 2, 4]
        assert problem.sets == (0b11, 0b01, 0b10)
        assert problem.covering == [[0, 1], [0, 2]]
        assert problem.elements == [[0, 1], [0], [1]]


class TestSwapMoves:
    """``_swap_moves`` trades one or two chosen sets for one lighter set."""

    @given(st.integers(0, 2**32 - 1))
    # the cover comes back unchanged in another order, whose plain float sum
    # differs from the start's by 2 ulps
    @example(787555263)
    @settings(max_examples=150, deadline=None)
    def test_cover_never_heavier_and_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        problem = CoverProblem(inst.universe_size, inst.sets, inst.weights)
        weights = [inst.weights[i] for i in problem.indices]
        # a random cover: about half the sets, then one set per element left
        start = [j for j in range(len(problem.sets)) if rng.random() < 0.5]
        for members in problem.covering:
            if not set(members) & set(start):
                start.append(int(rng.choice(members)))
        got = setcover._swap_moves(problem, weights, start)
        covered = 0
        for j in got:
            covered |= problem.sets[j]
        assert covered == problem.full
        assert got == sorted(set(got))
        assert math.fsum(weights[j] for j in got) <= math.fsum(weights[j] for j in start)
        assert setcover._swap_moves(problem, weights, start) == got
        assert setcover._swap_moves(problem, weights, got) == got

    def test_one_set_replaces_one(self):
        # in the cover {0, 1} only set 0 covers elements 0 and 1; sets 2 and
        # 3 cover both for less, at equal weight, so the lower index goes in
        weights = (1.0, 0.3, 0.4, 0.4)
        problem = CoverProblem(4, (0b0011, 0b1100, 0b0111, 0b1011), weights)
        assert setcover._swap_moves(problem, weights, [0, 1]) == [1, 2]

    def test_one_set_replaces_two(self):
        weights = (0.5, 0.5, 0.8)
        problem = CoverProblem(4, (0b0011, 0b1100, 0b1111), weights)
        assert setcover._swap_moves(problem, weights, [0, 1]) == [2]

    def test_redundant_set_is_dropped(self):
        weights = (0.5, 0.5, 0.2)
        problem = CoverProblem(3, (0b011, 0b110, 0b100), weights)
        assert setcover._swap_moves(problem, weights, [0, 1, 2]) == [0, 2]


class TestDescentStart:
    """The exact rounds from γ = 2, each taking the greedy-and-swap cover
    when it lowers γ, reach the γ of the loop of proven rounds, and no more
    of them get past the swap stage than that loop has rounds."""

    @given(rule_covers())
    @example(SWAP_NOT_OPTIMAL)
    @settings(max_examples=120, deadline=None)
    def test_same_gamma_as_the_loop_from_two(self, case):
        universe, coverage, drops = case
        cands = Candidates(1, (1,) * len(drops), (0,) * len(drops), coverage, drops)
        patch, rounds = record_rounds("solve_exact")
        ascents = []
        real_ascent = setcover._dual_ascent
        ascent = mock.patch.object(setcover, "_dual_ascent",
                                   lambda *args: ascents.append(args) or real_ascent(*args))
        with patch, ascent:
            res = minimize_gamma(cands, universe)
        gamma, oracle_rounds = oracle_minimize_gamma_from_two(cands, universe)
        assert abs(res.gamma - gamma) <= 1e-12
        # every γ after 2 is the root of a real rule, so never below the optimum
        assert min(res.gamma_trail) >= res.gamma - 1e-12
        assert len(rounds) == len(res.gamma_trail)
        assert len(ascents) <= oracle_rounds
        assert abs(res.gamma - minimize_gamma_bisection(cands, universe)) <= 1e-5
