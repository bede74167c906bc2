"""Weighted minimum set cover: exact search and LP rounding.

Universe elements are row indices 0..universe_size-1 and every set is a
bitmask over them.  A ``CoverProblem`` holds what does not depend on the
weights: the cheapest representative of each distinct coverage, the
elements of every set, the sets covering each element and the HiGHS 0/1
matrix.  It serves every instance whose weights rank the sets alike, as the
γ rounds of one rule's synthesis do (weights γ^-δρ at γ > 1); a standalone
``WmscInstance`` gets a problem of its own.  So the structure carries over
between the instances of one problem; a cover carries over only when the
caller passes one in.

``solve_exact`` is a proven-optimal search built around an incumbent: the
greedy cover (weight per newly covered element, include-first), or a cover
the caller passes in when it is no heavier (the γ loop passes its previous
round's rule), and a dual-ascent certificate settles easy instances
outright.  Small instances then run an element-disjunction branch-and-bound
whose nodes are cut with the stronger of the dual bound and the greedy
fractional completion bound.
Wide instances (thousands of sets, as rule synthesis produces on large
regions) go to HiGHS instead, over only the sets lighter than the incumbent
and with weights lifted by an exact power of two so that HiGHS's absolute
gap is negligible.  HiGHS first solves the LP relaxation, a lower bound on
every cover.  When that bound reaches the incumbent, the incumbent is
optimal; when the LP solution is integral, it is an optimal cover itself.
A fractional relaxation's row duals then fix every set that, by its reduced
cost, lies in no cover lighter than the incumbent (a bound that holds for
any nonnegative duals, so HiGHS's tolerances cannot make it unsound).  At
most ``SMALL_SET_LIMIT`` sets left free go to the branch-and-bound, with
the fixed sets closed; more run HiGHS's mixed-integer program over the free
sets.  HiGHS runs the LP and the MIP without presolve: ``CoverProblem`` has
already collapsed the sets to one per coverage, which leaves presolve
nothing to remove, and with presolve on, the MIP restarts its search after
fixing columns at the root.  The MIP alone is bounded by the incumbent's
weight, so HiGHS prunes every node that cannot beat it, and runs without the
RENS, RINS and root reduced-cost sub-MIP heuristics, which look for a cover
as light as the incumbent it already has; a MIP that the bound leaves
infeasible keeps the incumbent.  Throughout,
only a strictly cheaper cover replaces the incumbent, so every path breaks
ties the same way: the incumbent wins whenever it is optimal.  A caller
that can use any cover lighter than a bound (the γ loop, whose rule lowers
γ when it weighs less than 1) may pass that bound.  The greedy cover
improved by swap moves (``_swap_moves``: one or two chosen sets traded for
one lighter set) is then met first, and a fractional relaxation is rounded
before the MIP; the first that weighs less than the bound by more than
``PRUNE_TOL`` of it is returned with no proof of optimality.
``solve_lp`` solves the same HiGHS relaxation and rounds it with a fixed
stream of randomized inclusion trials, each completed by the same greedy
cover and stripped of redundant sets by per-element cover counts
(``_complete``), as is the rounding of ``solve_exact``.

Weights are rescaled by an exact power of two that puts the optimum
between 0.5 and the universe size, so that absolute tolerances are
relative to the optimum even when gamma^-drho spans many orders of
magnitude; reported objectives are always in the caller's scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError, InternalError
from .graph import bit_matrix

PRUNE_TOL = 1e-12

SMALL_SET_LIMIT = 96

MIP_LIFT_EXP = 20

MIP_ABS_GAP = 1e-6

LP_INTEGRAL_TOL = 1e-9

# milp's status for an infeasible problem
MIP_INFEASIBLE = 2

LP_TRIALS = 32


@dataclass(frozen=True)
class WmscInstance:
    universe_size: int
    sets: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.universe_size < 0:
            raise InputError("universe size must be non-negative")
        if len(self.sets) != len(self.weights):
            raise InputError("sets and weights must have equal length")
        if not all(0 < w < math.inf for w in self.weights):
            raise InputError("set weights must be positive and finite")
        full = (1 << self.universe_size) - 1
        if any(cov & ~full for cov in self.sets):
            raise InputError("set covers an element outside the universe")


@dataclass(frozen=True)
class WmscSolution:
    """A cover's set indices and weight; ``lp_bound`` (the LP optimum) is set
    only on ``solve_lp``'s covers, which may not be optimal."""

    chosen: tuple[int, ...]
    objective: float
    lp_bound: float | None = None


class CoverProblem:
    """The weight-independent part of covering instances over the same sets.

    ``costs`` rank the sets as the weights of every instance will: each
    instance weighs set i by f(costs[i]) for one increasing f.  So every
    instance has the same cheapest set per coverage, the one of least cost
    with the lowest index on ties, and the same anchor set (see
    ``_anchor_scale``).  The problem keeps only those representatives, in
    index order, and for them:

    - ``elements[j]``, the elements of set j in ascending order;
    - ``covering[e]``, the sets covering element e in ascending order, and
      ``dual_order``, the elements by (number of covering sets, element);
    - ``matrix``, the 0/1 element-by-set matrix that HiGHS is given.

    An instance (``at``) weighs the representatives only; every solution
    names sets by their index in ``sets`` as given, and ``representative[i]``
    is the representative of given set i.
    """

    def __init__(self, universe_size: int, sets, costs):
        reps: dict[int, int] = {}
        for idx, cov in enumerate(sets):
            cur = reps.get(cov)
            if cur is None or costs[idx] < costs[cur]:
                reps[cov] = idx
        self.universe_size = universe_size
        self.full = (1 << universe_size) - 1
        self.indices = sorted(reps.values())
        self.sets = tuple(sets[i] for i in self.indices)
        position = {cov: j for j, cov in enumerate(self.sets)}
        self.representative = [position[cov] for cov in sets]
        self.matrix = bit_matrix(self.sets, universe_size).T
        per_set = np.count_nonzero(self.matrix, axis=0).tolist()
        per_element = np.count_nonzero(self.matrix, axis=1).tolist()
        if 0 in per_element:
            raise InfeasibleError("sets do not cover the universe")
        self.elements = _split(np.nonzero(self.matrix.T)[1].tolist(), per_set)
        self.covering = _split(np.nonzero(self.matrix)[1].tolist(), per_element)
        self.dual_order = sorted(range(universe_size), key=lambda e: (per_element[e], e))
        rank = [costs[i] for i in self.indices].__getitem__
        self.anchor = max((min(members, key=rank) for members in self.covering), key=rank,
                          default=None)

    def at(self, weights: tuple[float, ...]) -> PreparedInstance:
        """The instance that weighs representative j by ``weights[j]``."""
        return PreparedInstance(self, weights)

    def represent(self, given) -> list[int]:
        """The representatives of the given set indices ``given``, ascending.

        Each representative covers what its given set covers, and is never
        heavier.  Raises ``InputError`` unless they cover the universe.
        """
        chosen = set()
        covered = 0
        for i in given:
            if not 0 <= i < len(self.representative):
                raise InputError(f"set index {i} out of range")
            chosen.add(self.representative[i])
            covered |= self.sets[self.representative[i]]
        if covered != self.full:
            raise InputError("the incumbent does not cover the universe")
        return sorted(chosen)

    def solution(self, chosen, weights, lp_bound=None) -> WmscSolution:
        """The cover of representatives ``chosen``, named by given index."""
        chosen = sorted(chosen)
        return WmscSolution(tuple(self.indices[j] for j in chosen),
                            sum(weights[j] for j in chosen), lp_bound)


@dataclass(frozen=True)
class PreparedInstance:
    """One instance of a ``CoverProblem``: a weight per representative, in
    the order of ``problem.sets``.  Its ``universe_size`` and ``sets`` are
    the problem's."""

    problem: CoverProblem
    weights: tuple[float, ...]

    @property
    def universe_size(self) -> int:
        return self.problem.universe_size

    @property
    def sets(self) -> tuple[int, ...]:
        return self.problem.sets


def _split(flat: list, counts) -> list[list]:
    """``flat`` cut into consecutive runs of the given lengths."""
    runs = []
    start = 0
    for count in counts:
        runs.append(flat[start:start + count])
        start += count
    return runs


def _prepared(inst: WmscInstance | PreparedInstance) -> PreparedInstance:
    """A standalone instance as the one instance of its own problem."""
    if isinstance(inst, PreparedInstance):
        return inst
    problem = CoverProblem(inst.universe_size, inst.sets, inst.weights)
    return problem.at(tuple(inst.weights[i] for i in problem.indices))


def _greedy_cover(covs, weights, full):
    """Greedy cover by weight per newly covered element, smallest index first."""
    uncov = full
    chosen = []
    total = 0.0
    # the sets that still cover an uncovered element, in index order
    live = range(len(covs))
    while uncov:
        best = -1
        cutoff = math.inf
        still = []
        for i in live:
            new = covs[i] & uncov
            if new:
                still.append(i)
                ratio = weights[i] / new.bit_count()
                if ratio < cutoff:
                    cutoff = ratio - PRUNE_TOL
                    best = i
        if best < 0:
            raise InfeasibleError("sets do not cover the universe")
        chosen.append(best)
        total += weights[best]
        uncov &= ~covs[best]
        live = still
    return chosen, total


def _swap_moves(problem: CoverProblem, weights, chosen):
    """Improve the cover ``chosen`` by replacing one or two sets at a time.

    A move takes out one chosen set or two, and puts in the lightest set
    that covers every element only they cover, lowest index on ties, or no
    set when they cover no element alone.  That set holds the lowest needed
    element, so only that element's covering list is scanned, lightest
    first and only while a set would save weight.  Each pass applies the
    move that saves the most weight, and passes repeat while a move saves
    more than ``PRUNE_TOL``; of equal savings the move met first wins,
    scanning each chosen a in ascending order alone and then with each later
    b.  Returns the chosen set indices in ascending order; the cover is
    never heavier than the given one.
    """
    covs, covering = problem.sets, problem.covering
    chosen = sorted(chosen)
    lightest: dict[int, list[int]] = {}  # covering[e] by weight, stable
    while True:
        # elements covered by at least one, two and three chosen sets
        ones = twos = threes = 0
        for i in chosen:
            threes |= twos & covs[i]
            twos |= ones & covs[i]
            ones |= covs[i]
        once, twice = ones & ~twos, twos & ~threes
        alone = [covs[a] & once for a in chosen]
        best_save, best_move = PRUNE_TOL, None
        for x, a in enumerate(chosen):
            for y in range(x, len(chosen)):
                if y == x:
                    b, need, budget = None, alone[x], weights[a]
                else:
                    b = chosen[y]
                    need = alone[x] | alone[y] | covs[a] & covs[b] & twice
                    budget = weights[a] + weights[b]
                cutoff = budget - best_save
                if not need:
                    if cutoff > 0.0:
                        best_save, best_move = budget, (a, b, None)
                    continue
                e = (need & -need).bit_length() - 1
                order = lightest.get(e)
                if order is None:
                    order = lightest[e] = sorted(covering[e], key=weights.__getitem__)
                for s in order:
                    if weights[s] >= cutoff:
                        break
                    if covs[s] & need == need:
                        best_save, best_move = budget - weights[s], (a, b, s)
                        break
        if best_move is None:
            return chosen
        a, b, put = best_move
        kept = set(chosen) - {a, b}
        if put is not None:
            kept.add(put)
        chosen = sorted(kept)


def _dual_ascent(problem: CoverProblem, weights):
    """Feasible duals: raise y_e, scarcest elements first, inside set slacks."""
    slack = list(weights)
    y = [0.0] * problem.universe_size
    for e in problem.dual_order:
        sets = problem.covering[e]
        lift = min(map(slack.__getitem__, sets))
        if lift > 0.0:
            y[e] = lift
            for i in sets:
                slack[i] -= lift
    return y


def _bnb_python(problem: CoverProblem, weights, y, incumbent, closed=0):
    """Element-disjunction search; children ordered by ratio then index.

    A node lists its uncovered elements in ascending order.  It is cut when
    either of two lower bounds on its subtree comes within ``PRUNE_TOL`` of
    the incumbent: the dual bound (its weight plus the duals of those
    elements), tested before the node is entered, and the fractional bound
    (its weight plus, per element, the cheapest ratio weight / newly covered
    elements among the sets still open to it).  It branches on the element
    with the fewest open sets, lowest first; a child's set and its earlier
    siblings are closed to the child's subtree.  ``closed`` is the bitmask
    of sets closed to the whole search: the caller must know that no cover
    strictly better than the incumbent holds one of them.  ``y`` must be
    feasible duals (``_dual_ascent``'s), as its cut trusts them exactly.
    ``incumbent`` is (objective, chosen-list); only strictly better covers
    replace it, so it wins all exact ties.  Returns the chosen set indices
    of the best cover found.
    """
    covs, covering = problem.sets, problem.covering
    best_obj, best_sol = incumbent
    best_sol = list(best_sol)
    chosen = []

    def dual_cut(weight, left):
        for e in left:
            weight += y[e]
        return weight >= best_obj - PRUNE_TOL

    def descend(uncov, left, weight, closed):
        nonlocal best_obj, best_sol
        cutoff = best_obj - PRUNE_TOL
        bound = weight
        branch_e = -1
        branch_count = math.inf
        for e in left:
            ratios = [weights[i] / (covs[i] & uncov).bit_count()
                      for i in covering[e] if not closed >> i & 1]
            if not ratios:
                return
            # the terms are nonnegative, so a partial sum at the cutoff
            # already cuts the node
            bound += min(ratios)
            if bound >= cutoff:
                return
            if len(ratios) < branch_count:
                branch_count = len(ratios)
                branch_e = e
        children = sorted((weights[i] / (covs[i] & uncov).bit_count(), i)
                          for i in covering[branch_e] if not closed >> i & 1)
        for _ratio, child in children:
            closed |= 1 << child
            rest = uncov & ~covs[child]
            child_weight = weight + weights[child]
            if not rest:
                if child_weight < best_obj - PRUNE_TOL:
                    best_obj = child_weight
                    best_sol = chosen + [child]
                continue
            child_left = [e for e in left if rest >> e & 1]
            if dual_cut(child_weight, child_left):
                continue
            chosen.append(child)
            descend(rest, child_left, child_weight, closed)
            chosen.pop()

    root = list(range(problem.universe_size))
    if not dual_cut(0.0, root):
        descend(problem.full, root, 0.0, closed)
    return best_sol


def _cover_relaxation(matrix, cost):
    """LP relaxation min cost.x, matrix x >= 1, 0 <= x <= 1, solved by HiGHS.

    ``linprog``'s HiGHS route is scipy's public one that returns the row
    duals.  Presolve is off: the columns are already one per coverage, so it
    removes nothing and only costs time.  Returns ``(x, objective, y)``,
    where ``y`` >= 0 are the duals of the covering rows (``linprog`` states
    them as ``-matrix x <= -1``, whose marginals are their negation), clipped
    at 0 against HiGHS's tolerances.  Only ``_mip_cover`` reads ``y``.
    """
    from scipy.optimize import linprog

    res = linprog(cost, A_ub=-matrix.astype(float), b_ub=np.full(len(matrix), -1.0),
                  bounds=(0.0, 1.0), method="highs", options={"presolve": False})
    if res.status != 0:
        raise InternalError(f"set-cover LP failed: {res.message}")
    return res.x, res.fun, np.maximum(-res.ineqlin.marginals, 0.0)


def _unfixed(matrix, cost, y, bound):
    """The columns that reduced-cost fixing by duals ``y`` leaves free.

    Any ``y`` >= 0 will do, dual-feasible or not.  With reduced costs
    d = cost - y.matrix, every cover x (0/1, matrix x >= 1) weighs
    cost.x = y.(matrix x) + d.x >= sum(y) + d.x, and a cover holding column j
    has d.x >= max(d_j, 0) + sum(min(d, 0)) over all columns.  So no cover
    holding j weighs less than floor + max(d_j, 0), with floor = sum(y) +
    sum(min(d, 0)); j is fixed at 0 when that is at least ``bound``.  Returns
    a boolean mask, True for the columns left free.
    """
    # einsum, not a float BLAS product: BLAS would start its own threads
    d = cost - np.einsum("e,ej->j", y, matrix)
    floor = y.sum() + np.minimum(d, 0.0).sum()
    return floor + np.maximum(d, 0.0) < bound


def _mip_cover(covs, weights, universe_size, incumbent, *, matrix, search, rounding=None):
    """Exact cover over the sets lighter than the incumbent, LP first.

    ``matrix`` is the 0/1 element-by-set matrix of ``covs``.  ``search``
    runs the Python branch-and-bound (``_bnb_python``) from the incumbent
    with the sets of a given bitmask closed, and returns its chosen sets.

    A cover strictly cheaper than the incumbent holds no set that alone
    weighs as much, so those columns are dropped before any solve; when the
    rest cannot cover the universe the incumbent is optimal as it stands.
    HiGHS stops a MIP at an absolute gap of ``MIP_ABS_GAP`` (``milp`` exposes
    only the relative gap, which is set to zero) and treats costs of 1e20 or
    more as infinite, so the kept weights are lifted by an exact power of two
    that puts the incumbent in [2^19, 2^20), where that gap is about 1e-12 of
    the objective and every cost is finite.  Only a cover cheaper than the
    incumbent by more than the gap (below the cutoff) replaces it, so ties go
    to the incumbent.

    The LP relaxation is solved first; every cover costs at least its
    optimum, which settles most instances without branching:

    (a) the LP optimum is within the gap of the incumbent: no cover is
        cheaper by more than the gap, so the incumbent stands;
    (b) the LP solution is integral: it is itself an optimal cover, and
        replaces the incumbent under the rule above;
    otherwise, when ``rounding`` is given, it gets the kept sets with
    x > 0.5 and returns a cover built from them that the caller accepts, or
    None; an accepted cover is returned as it is, with no proof of
    optimality.  Without ``rounding``, or when it returns None, the LP's row
    duals fix columns by their reduced costs (``_unfixed``): a column is
    fixed when no cover holding it weighs less than the lifted incumbent,
    and the lifted incumbent is above the cutoff, so no fixed column lies in
    a cover that the MIP or the branch-and-bound would accept.  The bound
    holds for any duals >= 0, so HiGHS's tolerances cannot make it unsound.
    Then:

    (d) the free columns leave an element uncovered: no cover is lighter
        than the incumbent, which stands.  By weak duality this needs an
        LP optimum that HiGHS reported below the true one by more than the
        gap (duals raised on that element would prove the bound), so it
        guards against HiGHS's tolerances;
    (e) at most ``SMALL_SET_LIMIT`` columns are free: ``search`` finds the
        optimum with every other set closed;
    (c) otherwise one HiGHS MIP over the free columns finds the optimum.  It
        runs without presolve, which cannot shrink these columns but, when
        on, restarts the search once root reduced-cost fixing has fixed
        most of them, and repeats the root cuts and heuristics.  HiGHS's
        ``objective_bound`` is the lifted incumbent, so it prunes every
        node that cannot beat the cover the MIP's answer would have to
        beat.  Its RENS, RINS and root reduced-cost sub-MIP heuristics are
        off: they look for good covers, the incumbent is one, and on the
        bottleneck's proving MIP they took much of the solve to find one.
        ``milp`` passes these four options to HiGHS verbatim and warns that
        it does; that one warning is silenced.  The LP gets none of them,
        as a bound would end its dual simplex early.  Status 2 (infeasible)
        from the MIP means no cover lies below the bound, since the free
        columns cover the universe, so the incumbent stands; a returned
        cover that is not below the cutoff (HiGHS may return one as optimal
        under the bound) leaves it too, by the rule above.  Every other
        failed status raises.

    Returns the chosen set indices.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    best_obj, best_sol = incumbent
    weight = np.array(weights)
    keep = np.flatnonzero(weight < best_obj)
    matrix = matrix[:, keep]
    if not matrix.any(axis=1).all():
        return list(best_sol)

    lift = 2.0 ** (MIP_LIFT_EXP - math.frexp(best_obj)[1])
    cost = weight[keep] * lift
    cutoff = best_obj * lift - MIP_ABS_GAP
    x, lp_obj, y = _cover_relaxation(matrix, cost)
    if lp_obj >= cutoff:
        return list(best_sol)
    if np.any(np.minimum(x, 1.0 - x) > LP_INTEGRAL_TOL):
        if rounding is not None:
            rounded = rounding(keep[x > 0.5].tolist())
            if rounded is not None:
                return rounded
        free = _unfixed(matrix, cost, y, best_obj * lift)
        keep, matrix, cost = keep[free], matrix[:, free], cost[free]
        if not matrix.any(axis=1).all():
            return list(best_sol)
        if len(keep) <= SMALL_SET_LIMIT:
            closed = (1 << len(covs)) - 1
            for j in keep.tolist():
                closed ^= 1 << j
            return search(closed)
        with warnings.catch_warnings():
            # milp passes the options it does not know to HiGHS verbatim, and
            # says so with this warning
            warnings.filterwarnings("ignore", "Unrecognized options detected",
                                    RuntimeWarning)
            res = milp(cost, integrality=np.ones(len(keep)), bounds=Bounds(0.0, 1.0),
                       constraints=LinearConstraint(matrix, lb=1.0),
                       options={"mip_rel_gap": 0.0, "presolve": False,
                                "objective_bound": best_obj * lift,
                                "mip_heuristic_run_rens": False,
                                "mip_heuristic_run_rins": False,
                                "mip_heuristic_run_root_reduced_cost": False})
        if res.status == MIP_INFEASIBLE:
            return list(best_sol)
        if res.status != 0:
            raise InternalError(f"set-cover MIP failed: {res.message}")
        x = res.x
    chosen = keep[x > 0.5].tolist()
    got = 0
    for j in chosen:
        got |= covs[j]
    if got != (1 << universe_size) - 1:
        raise InternalError("HiGHS returned a non-cover")
    if sum(weights[j] for j in chosen) * lift < cutoff:
        return chosen
    return list(best_sol)


def _anchor_scale(problem: CoverProblem, weights):
    """Exact power of two that puts ``low`` in [0.5, 1).

    ``low`` is the largest over elements of the cheapest set covering it,
    the weight of the problem's anchor set: every cover pays at least
    ``low``, and the cheapest sets of all elements together cover for at
    most universe * low, so absolute tolerances after this rescale stay
    relative to the optimum at any weight scale.  Returns ``(scale, low)``.
    """
    low = 1.0 if problem.anchor is None else weights[problem.anchor]
    return 2.0 ** -math.frexp(low)[1], low


def solve_exact(inst: WmscInstance | PreparedInstance, *, incumbent=None,
                below=None) -> WmscSolution:
    """Minimum-weight cover; deterministic, exact within the stated tolerances.

    Sets with equal coverage collapse to their cheapest representative, once
    per ``CoverProblem``.  The incumbent is the greedy cover or, when given
    and no heavier than it within ``PRUNE_TOL``, ``incumbent``: a cover
    named by given set indices, each standing for its representative.  The
    incumbent is returned outright when the dual ascent certifies it.
    Otherwise up to ``SMALL_SET_LIMIT`` distinct sets run the Python
    branch-and-bound, and wider instances go to HiGHS over the sets lighter
    than the incumbent, with weights lifted by an exact power of two: the LP
    relaxation first.  A fractional relaxation's duals fix the sets that lie
    in no cover lighter than the incumbent; the sets left free go to the
    branch-and-bound, cut by the dual ascent's duals, when there are at most
    ``SMALL_SET_LIMIT`` of them, and else to the MIP, bounded by the
    incumbent (see ``_mip_cover``).
    Only a strictly cheaper cover replaces the incumbent, so of several tied
    optima the incumbent wins whenever it is one of them: the one tie rule
    of every path.  An ``incumbent`` that names an index out of range or
    does not cover raises ``InputError``.

    ``below``, when given, is a weight in the caller's units, and the first
    cover met before a proof that weighs less than ``below`` by more than
    ``PRUNE_TOL`` of it is returned with no proof of optimality.  Two covers
    are met, each improved by ``_swap_moves`` first: the greedy cover,
    before the dual ascent, and, before a fractional relaxation runs the
    MIP, its rounding (every set with x > 0.5, completed by the greedy cover
    of what they leave uncovered and stripped of redundant sets by
    ``_complete``).  A swap cover that is too heavy leaves the incumbent as
    it was, so the tie rule holds.  Every other path, and every call
    without ``below``, returns a proven optimum.
    """
    prepared = _prepared(inst)
    problem, weights = prepared.problem, prepared.weights
    given = None if incumbent is None else problem.represent(incumbent)
    scale, _low = _anchor_scale(problem, weights)
    work_w = [w * scale for w in weights]

    def lighter(chosen):
        """``chosen`` improved by swap moves, if it is then light enough."""
        chosen = _swap_moves(problem, work_w, chosen)
        return chosen if sum(weights[j] for j in chosen) < below * (1.0 - PRUNE_TOL) else None

    best_sol, best_obj = _greedy_cover(problem.sets, work_w, problem.full)
    if below is not None:
        swapped = lighter(best_sol)
        if swapped is not None:
            return problem.solution(swapped, weights)
    if given is not None:
        given_obj = sum(work_w[j] for j in given)
        if given_obj <= best_obj + PRUNE_TOL:
            best_sol, best_obj = given, given_obj
    y = _dual_ascent(problem, work_w)
    if best_obj <= sum(y) + PRUNE_TOL:
        return problem.solution(best_sol, weights)
    best = (best_obj, best_sol)
    if len(problem.sets) <= SMALL_SET_LIMIT:
        return problem.solution(_bnb_python(problem, work_w, y, best), weights)
    chosen = _mip_cover(problem.sets, work_w, problem.universe_size, best,
                        matrix=problem.matrix,
                        search=lambda closed: _bnb_python(problem, work_w, y, best, closed),
                        rounding=None if below is None else
                        lambda picked: lighter(_complete(problem, work_w, picked)))
    return problem.solution(chosen, weights)


def _drop_redundant(elements, weights, picked, universe_size):
    """Drop picked sets, heaviest first, while the rest still cover.

    ``elements[i]`` lists the elements of set i.  ``picked`` covers the
    universe, so a set is redundant exactly when every element it covers is
    covered at least twice.  Returns the kept indices in ascending order.
    """
    count = [0] * universe_size
    for i in picked:
        for e in elements[i]:
            count[e] += 1
    kept = set(picked)
    for i in sorted(picked, key=lambda i: (-weights[i], -i)):
        if all(count[e] >= 2 for e in elements[i]):
            kept.remove(i)
            for e in elements[i]:
                count[e] -= 1
    return sorted(kept)


def _complete(problem: CoverProblem, weights, picked):
    """``picked`` completed into a cover by the greedy cover of the elements
    it leaves uncovered, then stripped of redundant sets, heaviest first.
    Returns the chosen indices in ascending order."""
    covered = 0
    for j in picked:
        covered |= problem.sets[j]
    repair, _ = _greedy_cover(problem.sets, weights, problem.full & ~covered)
    return _drop_redundant(problem.elements, weights, picked + repair, problem.universe_size)


def solve_lp(inst: WmscInstance | PreparedInstance) -> WmscSolution:
    """LP relaxation plus the best of ``LP_TRIALS`` randomized rounding
    attempts (one when the relaxation is integral, as every attempt would
    agree).

    The relaxation is HiGHS's, on weights rescaled as in ``solve_exact``,
    over the same cheapest representative per coverage.  Representatives
    heavier than universe * low are left out too: the cheapest sets of all
    elements cover for no more, so the optimum is unchanged, and every cost
    stays below the universe size.  Trial t draws one uniform number per
    representative from ``np.random.default_rng(t)``, picks every
    representative whose draw falls below its fractional value, completes
    the pick with ``solve_exact``'s greedy cover of the elements left
    uncovered, and drops redundant picks, heaviest first.  So one instance
    always gets the same cover.  The returned objective is an upper bound
    and ``lp_bound`` the LP lower bound.
    """
    prepared = _prepared(inst)
    problem, weights = prepared.problem, prepared.weights
    universe = problem.universe_size
    if not universe:
        return problem.solution((), weights, lp_bound=0.0)
    sets = problem.sets
    scale, low = _anchor_scale(problem, weights)
    scaled = [w * scale for w in weights]
    keep = [j for j, w in enumerate(weights) if w <= universe * low]
    x = np.zeros(len(sets))
    x[keep], lp_obj, _y = _cover_relaxation(problem.matrix[:, keep],
                                            np.array([scaled[j] for j in keep]))
    best_picked = None
    best_obj = math.inf
    # a draw lies in [0, 1), so when no x is strictly between 0 and 1 every
    # trial picks the same sets, and the first of equal trials wins
    trials = LP_TRIALS if ((x > 0) & (x < 1)).any() else 1
    for trial in range(trials):
        draws = np.random.default_rng(trial).random(len(sets))
        picked = _complete(problem, scaled, (draws < x).nonzero()[0].tolist())
        obj = sum(scaled[j] for j in picked)
        if obj < best_obj - PRUNE_TOL:
            best_obj = obj
            best_picked = picked
    return problem.solution(best_picked, weights, lp_bound=lp_obj / scale)
