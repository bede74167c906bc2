import math

import numpy as np
import pytest

from optbranch import InfeasibleError, InputError
from optbranch.setcover import WmscInstance, WmscSolution, solve_exact, solve_lp

from oracles import oracle_set_cover, oracle_set_cover_dp
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


class TestSolveExact:
    def test_table2_selects_published_rule(self):
        sol = solve_exact(table2_instance())
        # 1-based {4, 5, 7} in the published numbering
        assert tuple(i + 1 for i in sol.chosen) == (4, 5, 7)
        assert math.isclose(sol.objective, 1.0, abs_tol=1e-9)
        assert sol.exact

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
            assert sol.covers(inst)
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
            assert sol.covers(inst)
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
            assert sol.covers(inst)
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

    def test_hint_never_worsens(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            inst = random_instance(rng)
            base = solve_exact(inst)
            hinted = solve_exact(inst, hint=base.chosen)
            assert abs(hinted.objective - base.objective) <= 1e-12


class TestSolveLp:
    def test_relaxation_sandwich(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            inst = random_instance(rng)
            exact = solve_exact(inst)
            lp = solve_lp(inst, seed=5)
            assert lp.covers(inst)
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
    assert WmscSolution((0, 1), 2.0, True).covers(inst)
    assert not WmscSolution((0,), 1.0, True).covers(inst)
