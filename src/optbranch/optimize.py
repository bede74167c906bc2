"""Minimize the branching factor over valid DNF rules via set-cover runs.

The branching factor gamma of a rule with reductions (d_1..d_k) is the root
of sum(gamma^-d_i) = 1.  Candidate clauses are selected through a fixed point
alternation (a Dinkelbach iteration): solve the covering instance whose
weights are gamma^-d_i, then re-solve gamma from the chosen vector, until
gamma stops decreasing or the chosen rule is a single clause (gamma 1, which
no rule beats).  With the exact cover solver the iteration reaches the
global optimum from any gamma that is the root of a real rule, so the exact
rounds start where a cheap greedy-and-swap descent from gamma = 2 stops;
the relaxed rounds start at gamma = 2.  An exact round before the last may
return an LP rounding that lowers gamma in place of a proven optimum.  The
tests cross-check the optimum with a bisection on "does a cover of weight
at most one exist".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .clauses import DNF, Candidates, build_candidates
from .errors import InfeasibleError, InputError, InternalError
from .graph import Measure, Region
from .setcover import CoverProblem, greedy_swap_cover, solve_exact, solve_lp
from .table import BranchingTable, alpha_tensor, boundary_grouped, prune_by_environment, prune_irrelevant

GAMMA_TOL = 1e-12

MAX_ROUNDS = 64


class SolverKind(Enum):
    EXACT = "exact"
    LP_RELAXED = "lp"


@dataclass(frozen=True)
class OptimalBranchingResult:
    rule: DNF
    chosen_indices: tuple[int, ...]
    branching_vector: tuple[int, ...]
    gamma: float
    gamma_trail: tuple[float, ...] = ()


def find_gamma(vector) -> float:
    """Unique gamma >= 1 with sum(gamma^-v) = 1; exactly 1 for single entries.

    Newton's iteration from gamma = 1, stopped at the first iterate that does
    not increase.  f(gamma) = sum(gamma^-v) - 1 is convex and decreasing with
    f(1) = k - 1 > 0 for k >= 2 entries, so the iterates rise monotonically
    to the root.
    """
    vec = list(vector)
    if not vec:
        raise InputError("branching vector must be nonempty")
    if not all(0 < v < math.inf for v in vec):
        raise InputError("branching vector entries must be positive and finite")
    if len(vec) == 1:
        return 1.0
    gamma = 1.0
    while True:
        f = sum(gamma ** -v for v in vec) - 1.0
        fprime = sum(-v * gamma ** (-v - 1.0) for v in vec)
        next_gamma = gamma - f / fprime
        if next_gamma <= gamma:
            return gamma
        gamma = next_gamma


def _descent(problem: CoverProblem, drops, exponents) -> float:
    """The gamma the exact rounds start from: a greedy-and-swap descent.

    From gamma = 2, each step covers at the current gamma with
    ``greedy_swap_cover`` and moves to the root of that rule, its vector in
    ascending candidate order, while the root falls by more than
    ``GAMMA_TOL``.  A rule of one clause ends the descent where it is, so
    every round runs at gamma > 1.  Every gamma after the first is the root
    of a real rule, so it is at least the optimum.
    """
    gamma = 2.0
    for _ in range(MAX_ROUNDS):
        sol = greedy_swap_cover(problem.at(tuple(gamma ** e for e in exponents)))
        vector = tuple(drops[i] for i in sol.chosen)
        if len(vector) == 1:
            break
        root = find_gamma(vector)
        if root >= gamma - GAMMA_TOL:
            break
        gamma = root
    return gamma


def _lowers(drops, gamma):
    """The test a round's LP rounding must pass to replace its MIP: a rule
    of two or more clauses, its vector in the loop's order, whose root is
    below ``gamma`` by more than ``GAMMA_TOL``."""
    def test(chosen) -> bool:
        vector = [drops[i] for i in chosen]
        return len(vector) >= 2 and find_gamma(vector) < gamma - GAMMA_TOL
    return test


def minimize_gamma(
    candidates: Candidates,
    universe_size: int,
    solver: SolverKind = SolverKind.EXACT,
    seed: int = 0,
) -> OptimalBranchingResult:
    """Fixed-point iteration of Alg-style rule selection.

    Each round solves the covering instance at the current gamma and re-roots
    gamma from the chosen branching vector; rounds strictly decrease gamma
    until the fixed point, which the exact solver reaches at the provably
    minimal gamma.  The loop also stops at the first rule of one clause: its
    gamma is 1, which no rule beats, so that round's clause is returned.

    The exact rounds start where ``_descent`` stops, the relaxed rounds at
    gamma = 2.  The descent's gamma is 2, or the root of a real rule, which
    the exact solver's first round matches or beats.  Either way the exact
    answer is still ``solve_exact``'s cover at the root of the last
    improving rule; the descent only saves rounds.  ``gamma_trail`` lists
    the roots of the covering rounds only, not the descent's steps.

    Only the last exact round must be optimal: any earlier one needs only a
    rule whose root is lower.  So each exact round passes ``solve_exact``
    the test of ``_lowers``, and a round whose HiGHS relaxation is
    fractional returns the LP rounding instead of running the MIP whenever
    that rounding lowers gamma.  The loop then moves to its root as after
    any improving round.  A rounding never ends the loop (that raises
    ``InternalError``), so the last round, and with it the answer, is
    always a proven optimum.

    Every round runs at gamma > 1, where the weight gamma^-drho falls as
    drho grows, so one ``CoverProblem`` built before the first round serves
    them all: each coverage collapses to its candidate of largest drho,
    lowest index on ties, and the covering lists and HiGHS matrix are built
    once.  A round computes only its weights and its cover; no cover carries
    over, and ties between equally cheap covers follow ``solve_exact``'s one
    rule: the greedy cover wins.  The relaxed solver may wobble, so its best
    round wins.  Candidates that cannot cover every row raise
    ``InfeasibleError`` when the problem is built.
    """
    if not candidates:
        raise InfeasibleError("no candidate clauses")
    drops = candidates.delta_rho
    problem = CoverProblem(universe_size, candidates.coverage, [-d for d in drops])
    exponents = [-float(drops[i]) for i in problem.indices]
    gamma_old = _descent(problem, drops, exponents) if solver is SolverKind.EXACT else 2.0
    trail: list[float] = []
    best = None
    for round_no in range(MAX_ROUNDS):
        inst = problem.at(tuple(gamma_old ** e for e in exponents))
        if solver is SolverKind.EXACT:
            improves = _lowers(drops, gamma_old)
            sol = solve_exact(inst, improves=improves)
            if sol.lp_bound is not None and not improves(sol.chosen):
                raise InternalError("an LP rounding that does not lower gamma ended a round")
        else:
            sol = solve_lp(inst, seed=(seed ^ (round_no * 0x9E3779B9)) & 0xFFFFFFFFFFFFFFFF)
        vector = tuple(drops[i] for i in sol.chosen)
        gamma_new = find_gamma(vector)
        trail.append(gamma_new)
        # the exact solver ends on its fixed point; the relaxed one keeps its best round
        if solver is SolverKind.EXACT or best is None or gamma_new < best[0]:
            best = (gamma_new, sol.chosen, vector)
        if len(vector) == 1 or gamma_new >= gamma_old - GAMMA_TOL:
            gamma, chosen, vector = best
            return OptimalBranchingResult(
                rule=DNF(tuple(candidates.clause(i) for i in chosen)),
                chosen_indices=chosen,
                branching_vector=vector,
                gamma=gamma,
                gamma_trail=tuple(trail),
            )
        gamma_old = gamma_new
    raise InternalError("gamma fixed point did not converge within 64 rounds")


def optimal_rule(
    region: Region,
    m: Measure,
    solver: SolverKind = SolverKind.EXACT,
    env_pruning: bool | None = None,
    seed: int = 0,
) -> tuple[BranchingTable, Candidates, OptimalBranchingResult]:
    """Full rule-synthesis pipeline for one region.

    Enumerates the alpha tensor, prunes it, groups the survivors, generates
    candidate clauses with their measure reductions, and minimizes gamma over
    valid rules.  Environment pruning defaults to on exactly when the region
    sits in a strictly larger host; a region covering its whole host is
    treated as having a declared, hypothetical boundary, where host-side
    pruning would be unsound.
    """
    if env_pruning is None:
        env_pruning = region.vertices != region.host.vertices
    tensor = prune_irrelevant(alpha_tensor(region))
    if env_pruning:
        tensor = prune_by_environment(tensor)
    table = boundary_grouped(tensor)
    cands = build_candidates(table, region, m)
    result = minimize_gamma(cands, len(table), solver, seed)
    return table, cands, result
