"""Weighted minimum set cover: exact search and LP rounding.

Universe elements are row indices 0..universe_size-1 and every set is a
bitmask over them.  ``solve_exact`` is a proven-optimal search built around
a greedy incumbent (weight per newly covered element, include-first): sets
with identical coverage collapse to their cheapest representative and a
dual-ascent certificate settles easy instances outright.  Small instances
then run an element-disjunction branch-and-bound whose nodes are cut with
the stronger of the dual bound and the greedy fractional completion bound.
Wide instances (thousands of sets, as rule synthesis produces on large
regions) go to HiGHS instead, over only the sets lighter than the incumbent
and with weights lifted by an exact power of two so that HiGHS's absolute
gap is negligible.  HiGHS first solves the LP relaxation, a lower bound on
every cover.  When that bound reaches the incumbent, the incumbent is
optimal; when the LP solution is integral, it is an optimal cover itself;
only a fractional relaxation runs the mixed-integer program.  Throughout,
only a strictly cheaper cover replaces the incumbent, so every path breaks
ties the same way: the greedy cover wins whenever it is optimal.  Each call
stands alone; no cover carries over from an earlier one.  ``solve_lp``
solves the same HiGHS relaxation and rounds it with seeded inclusion trials,
each completed by the same greedy cover and stripped of redundant sets by
per-element cover counts.

Weights are rescaled by an exact power of two that puts the optimum
between 0.5 and the universe size, so that absolute tolerances are
relative to the optimum even when gamma^-drho spans many orders of
magnitude; reported objectives are always in the caller's scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError, InternalError
from .graph import bit_matrix, bits

PRUNE_TOL = 1e-12

SMALL_SET_LIMIT = 96

MIP_LIFT_EXP = 20

MIP_ABS_GAP = 1e-6

LP_INTEGRAL_TOL = 1e-9

LP_TRIALS = 32


@dataclass(frozen=True)
class WmscInstance:
    universe_size: int
    sets: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.sets) != len(self.weights):
            raise InputError("sets and weights must have equal length")
        if any(w <= 0 for w in self.weights):
            raise InputError("set weights must be positive")
        full = (1 << self.universe_size) - 1
        if any(cov & ~full for cov in self.sets):
            raise InputError("set covers an element outside the universe")

    def full_mask(self) -> int:
        return (1 << self.universe_size) - 1

    def check_feasible(self) -> None:
        union = 0
        for cov in self.sets:
            union |= cov
        if union != self.full_mask():
            raise InfeasibleError("sets do not cover the universe")


@dataclass(frozen=True)
class WmscSolution:
    chosen: tuple[int, ...]
    objective: float
    exact: bool
    lp_bound: float | None = None

    def covers(self, inst: WmscInstance) -> bool:
        got = 0
        for i in self.chosen:
            got |= inst.sets[i]
        return got == inst.full_mask()


def _collapse(inst: WmscInstance):
    """Cheapest representative per distinct coverage, ordered by index."""
    reps: dict[int, tuple[float, int]] = {}
    for idx, (cov, w) in enumerate(zip(inst.sets, inst.weights)):
        cur = reps.get(cov)
        if cur is None or (w, idx) < cur:
            reps[cov] = (w, idx)
    order = sorted((idx, cov, w) for cov, (w, idx) in reps.items())
    covs = [cov for _, cov, _ in order]
    weights = [w for _, _, w in order]
    indices = [idx for idx, _, _ in order]
    return covs, weights, indices


def _greedy_cover(covs, weights, full):
    """Greedy cover by weight per newly covered element, smallest index first."""
    uncov = full
    chosen = []
    total = 0.0
    while uncov:
        best = -1
        best_ratio = math.inf
        for i, cov in enumerate(covs):
            new = cov & uncov
            if not new:
                continue
            ratio = weights[i] / new.bit_count()
            if ratio < best_ratio - PRUNE_TOL:
                best_ratio = ratio
                best = i
        if best < 0:
            raise InfeasibleError("sets do not cover the universe")
        chosen.append(best)
        total += weights[best]
        uncov &= ~covs[best]
    return chosen, total


def _covering_lists(covs, universe_size):
    covering = [[] for _ in range(universe_size)]
    for i, cov in enumerate(covs):
        for e in bits(cov):
            covering[e].append(i)
    return covering


def _dual_ascent(covs, weights, universe_size, covering):
    """Feasible duals: raise y_e, scarcest elements first, inside set slacks."""
    slack = list(weights)
    y = [0.0] * universe_size
    for e in sorted(range(universe_size), key=lambda e: (len(covering[e]), e)):
        if not covering[e]:
            raise InfeasibleError("an element has no covering set")
        lift = min(slack[i] for i in covering[e])
        if lift > 0.0:
            y[e] = lift
            for i in covering[e]:
                slack[i] -= lift
    return y


def _bnb_python(covs, weights, universe_size, y, incumbent):
    """Element-disjunction search; children ordered by ratio then index.

    ``incumbent`` is (objective, chosen-list); only strictly better covers
    replace it, so the greedy solution wins all exact ties.  Returns the
    chosen set indices of the best cover found.
    """
    best_obj, best_sol = incumbent
    best_sol = list(best_sol)
    full = (1 << universe_size) - 1

    def descend(uncov, weight, avail, chosen):
        nonlocal best_obj, best_sol
        if uncov == 0:
            if weight < best_obj - PRUNE_TOL:
                best_obj = weight
                best_sol = list(chosen)
            return
        ydual = weight
        for e in bits(uncov):
            ydual += y[e]
        if ydual >= best_obj - PRUNE_TOL:
            return
        avail = [i for i in avail if covs[i] & uncov]
        count = {}
        frac = {}
        for i in avail:
            new = covs[i] & uncov
            ratio = weights[i] / new.bit_count()
            for e in bits(new):
                count[e] = count.get(e, 0) + 1
                if ratio < frac.get(e, math.inf):
                    frac[e] = ratio
        bound = weight
        branch_e = -1
        branch_count = math.inf
        for e in bits(uncov):
            if e not in count:
                return
            bound += frac[e]
            if count[e] < branch_count:
                branch_count = count[e]
                branch_e = e
        if bound >= best_obj - PRUNE_TOL:
            return
        children = sorted(
            (i for i in avail if (covs[i] >> branch_e) & 1),
            key=lambda i: (weights[i] / (covs[i] & uncov).bit_count(), i),
        )
        remaining = avail
        for child in children:
            remaining = [i for i in remaining if i != child]
            chosen.append(child)
            descend(uncov & ~covs[child], weight + weights[child], remaining, chosen)
            chosen.pop()

    descend(full, 0.0, list(range(len(covs))), [])
    return best_sol


def _cover_relaxation(matrix, cost):
    """LP relaxation min cost.x, matrix x >= 1, 0 <= x <= 1, solved by HiGHS.

    ``milp`` with no integer columns is scipy's cheapest route to the HiGHS
    LP solver.  Returns ``(x, objective)``.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    res = milp(cost, integrality=np.zeros(len(cost)), bounds=Bounds(0.0, 1.0),
               constraints=LinearConstraint(matrix, lb=1.0))
    if res.status != 0:
        raise InternalError(f"set-cover LP failed: {res.message}")
    return res.x, res.fun


def _mip_cover(covs, weights, universe_size, incumbent):
    """Exact cover over the sets lighter than the incumbent, LP first.

    A cover strictly cheaper than the incumbent holds no set that alone
    weighs as much, so those columns are dropped before any solve; when the
    rest cannot cover the universe the incumbent is optimal as it stands.
    HiGHS stops a MIP at an absolute gap of ``MIP_ABS_GAP`` (``milp`` exposes
    only the relative gap, which is set to zero) and treats costs of 1e20 or
    more as infinite, so the kept weights are lifted by an exact power of two
    that puts the incumbent in [2^19, 2^20), where that gap is about 1e-12 of
    the objective and every cost is finite.  Only a cover cheaper than the
    incumbent by more than the gap replaces it, so ties go to the incumbent.

    The LP relaxation is solved first; every cover costs at least its
    optimum, which settles most instances without branching:

    (a) the LP optimum is within the gap of the incumbent: no cover is
        cheaper by more than the gap, so the incumbent stands;
    (b) the LP solution is integral: it is itself an optimal cover, and
        replaces the incumbent under the rule above;
    (c) otherwise one HiGHS MIP over the same columns finds the optimum.

    Returns the chosen set indices.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    best_obj, best_sol = incumbent
    keep = [j for j, w in enumerate(weights) if w < best_obj]
    union = 0
    for j in keep:
        union |= covs[j]
    full = (1 << universe_size) - 1
    if union != full:
        return list(best_sol)

    lift = 2.0 ** (MIP_LIFT_EXP - math.frexp(best_obj)[1])
    matrix = bit_matrix([covs[j] for j in keep], universe_size).T
    cost = np.array([weights[j] for j in keep]) * lift
    cutoff = best_obj * lift - MIP_ABS_GAP
    x, lp_obj = _cover_relaxation(matrix, cost)
    if lp_obj >= cutoff:
        return list(best_sol)
    if np.any(np.minimum(x, 1.0 - x) > LP_INTEGRAL_TOL):
        res = milp(cost, integrality=np.ones(len(keep)), bounds=Bounds(0.0, 1.0),
                   constraints=LinearConstraint(matrix, lb=1.0),
                   options={"mip_rel_gap": 0.0})
        if res.status != 0:
            raise InternalError(f"set-cover MIP failed: {res.message}")
        x = res.x
    chosen = [keep[int(j)] for j in np.nonzero(x > 0.5)[0]]
    got = 0
    for j in chosen:
        got |= covs[j]
    if got != full:
        raise InternalError("HiGHS returned a non-cover")
    if sum(weights[j] for j in chosen) * lift < cutoff:
        return chosen
    return list(best_sol)


def _anchor_scale(weights, covering):
    """Exact power of two that puts ``low`` in [0.5, 1).

    ``low`` is the largest over elements of the cheapest set covering it:
    every cover pays at least ``low``, and the cheapest sets of all elements
    together cover for at most universe * low, so absolute tolerances after
    this rescale stay relative to the optimum at any weight scale.  Returns
    ``(scale, low)``.
    """
    low = max((min(weights[i] for i in sets) for sets in covering), default=1.0)
    return 2.0 ** -math.frexp(low)[1], low


def solve_exact(inst: WmscInstance) -> WmscSolution:
    """Minimum-weight cover; deterministic, exact within the stated tolerances.

    Sets with equal coverage collapse to their cheapest representative.  The
    greedy cover is the incumbent and is returned outright when the dual
    ascent certifies it.  Otherwise up to ``SMALL_SET_LIMIT`` distinct sets
    run the Python branch-and-bound, and wider instances go to HiGHS over
    the sets lighter than the incumbent, with weights lifted by an exact
    power of two: the LP relaxation first, and the MIP only when the
    relaxation is fractional (see ``_mip_cover``).  Only a strictly cheaper
    cover replaces the incumbent, so of several tied optima the greedy cover
    wins whenever it is one of them: the one tie rule of every path.
    """
    inst.check_feasible()
    universe = inst.universe_size
    covs, weights, indices = _collapse(inst)
    covering = _covering_lists(covs, universe)
    scale, _low = _anchor_scale(weights, covering)
    work_w = [w * scale for w in weights]
    full = (1 << universe) - 1

    greedy_sol, greedy_obj = _greedy_cover(covs, work_w, full)
    y = _dual_ascent(covs, work_w, universe, covering)
    incumbent = (greedy_obj, greedy_sol)
    if greedy_obj <= sum(y) + PRUNE_TOL:
        chosen = greedy_sol
    elif len(covs) <= SMALL_SET_LIMIT:
        chosen = _bnb_python(covs, work_w, universe, y, incumbent)
    else:
        chosen = _mip_cover(covs, work_w, universe, incumbent)

    picked = tuple(sorted(indices[i] for i in chosen))
    objective = sum(inst.weights[i] for i in picked)
    return WmscSolution(picked, objective, exact=True)


def _drop_redundant(sets, weights, picked, universe_size):
    """Drop picked sets, heaviest first, while the rest still cover.

    ``picked`` covers the universe, so a set is redundant exactly when every
    element it covers is covered at least twice.  Returns the kept indices
    in ascending order.
    """
    count = [0] * universe_size
    for i in picked:
        for e in bits(sets[i]):
            count[e] += 1
    kept = set(picked)
    for i in sorted(picked, key=lambda i: (-weights[i], -i)):
        if all(count[e] >= 2 for e in bits(sets[i])):
            kept.remove(i)
            for e in bits(sets[i]):
                count[e] -= 1
    return sorted(kept)


def solve_lp(inst: WmscInstance, seed: int) -> WmscSolution:
    """LP relaxation plus the best of ``LP_TRIALS`` seeded rounding attempts
    (one when the relaxation is integral, as every attempt would agree).

    The relaxation is HiGHS's, on weights rescaled as in ``solve_exact``,
    over the same cheapest representative per coverage.  Representatives
    heavier than universe * low are left out too: the cheapest sets of all
    elements cover for no more, so the optimum is unchanged, and every cost
    stays below the universe size.  Each trial picks every set whose uniform
    draw falls below its fractional value, completes the pick with
    ``solve_exact``'s greedy cover of the elements left uncovered, and drops
    redundant picks, heaviest first.  The returned objective is an upper
    bound and ``lp_bound`` the LP lower bound.
    """
    inst.check_feasible()
    universe = inst.universe_size
    covs, weights, indices = _collapse(inst)
    scale, low = _anchor_scale(weights, _covering_lists(covs, universe))
    scaled = [w * scale for w in inst.weights]
    keep = [indices[i] for i, w in enumerate(weights) if w <= universe * low]
    x = np.zeros(len(inst.sets))
    x[keep], lp_obj = _cover_relaxation(
        bit_matrix([inst.sets[i] for i in keep], universe).T,
        np.array([scaled[i] for i in keep]),
    )
    full = inst.full_mask()
    best_picked = None
    best_obj = math.inf
    # a draw lies in [0, 1), so when no x is strictly between 0 and 1 every
    # trial picks the same sets, and the first of equal trials wins
    trials = LP_TRIALS if ((x > 0) & (x < 1)).any() else 1
    for trial in range(trials):
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, trial])
        picked = (rng.random(len(inst.sets)) < x).nonzero()[0].tolist()
        covered = 0
        for i in picked:
            covered |= inst.sets[i]
        repair, _ = _greedy_cover(inst.sets, scaled, full & ~covered)
        picked = _drop_redundant(inst.sets, scaled, picked + repair, universe)
        obj = sum(scaled[i] for i in picked)
        if obj < best_obj - PRUNE_TOL:
            best_obj = obj
            best_picked = tuple(picked)
    return WmscSolution(best_picked, sum(inst.weights[i] for i in best_picked),
                        exact=False, lp_bound=lp_obj / scale)
