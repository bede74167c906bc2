"""Minimize the branching factor over valid DNF rules via set-cover runs.

The branching factor gamma of a rule with reductions (d_1..d_k) is the root
of sum(gamma^-d_i) = 1.  Candidate clauses are selected through a fixed point
alternation (a Dinkelbach iteration) from gamma = 2: solve the covering
instance whose weights are gamma^-d_i, then re-solve gamma from the chosen
vector, until gamma stops decreasing or the chosen rule is a single clause
(gamma 1, which no rule beats).  A rule lowers gamma exactly when it weighs
less than 1, so one weight bound steers the loop.  With the exact cover
solver the iteration reaches the global optimum, and only its last round
must be a proven optimum.  So an exact round asks ``solve_exact`` for any
cover lighter than 1, and the loop stops on the first round whose cover is
not, which is then always a proven optimum, or is a single clause.  Each
round after the first starts from the previous round's rule, which weighs 1
at its own root, so it has only to find a lighter cover or prove that none
exists; at the fixed point it proves it, and returns that rule.  The tests
cross-check the optimum with a bisection on "does a cover of weight at most
one exist".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .clauses import DNF, Candidates, build_candidates
from .errors import InfeasibleError, InputError, InternalError
from .graph import Measure, Region
from .setcover import PRUNE_TOL, CoverProblem, solve_exact, solve_lp
from .table import BranchingTable, alpha_tensor, boundary_grouped, prune_by_environment, prune_irrelevant

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
    f(1) = k - 1 >= 0 for k entries, so the iterates rise monotonically to
    the root; for k = 1, f(1) = 0 and the first step stays at exactly 1.
    """
    vec = list(vector)
    if not vec:
        raise InputError("branching vector must be nonempty")
    if not all(0 < v < math.inf for v in vec):
        raise InputError("branching vector entries must be positive and finite")
    gamma = 1.0
    while True:
        f = sum(gamma ** -v for v in vec) - 1.0
        fprime = sum(-v * gamma ** (-v - 1.0) for v in vec)
        # a root past the largest float overflows the iterates, or the slope
        # at them underflows to 0
        next_gamma = gamma - f / fprime if fprime else math.inf
        if not next_gamma < math.inf:
            raise InputError(f"the branching factor of {vec} is not a finite float")
        if next_gamma <= gamma:
            return gamma
        gamma = next_gamma


def minimize_gamma(
    candidates: Candidates,
    universe_size: int,
    solver: SolverKind = SolverKind.EXACT,
) -> OptimalBranchingResult:
    """Fixed-point iteration of Alg-style rule selection.

    Each round, from gamma = 2, solves the covering instance at the current
    gamma and re-roots gamma from the chosen branching vector; rounds
    strictly decrease gamma until the fixed point, which the exact solver
    reaches at the provably minimal gamma.  ``gamma_trail`` lists the root
    of every round.

    A cover lowers gamma exactly when it weighs less than 1 at the current
    gamma.  So one bound, 1 less ``PRUNE_TOL``, decides both whether a round
    moves the loop on and, passed to ``solve_exact`` as ``below=1``, which
    unproven covers a round may return: the greedy cover improved by swap
    moves, or the rounding of a fractional HiGHS relaxation.  Every gamma
    after 2 is then the root of a real rule, so the Dinkelbach iteration
    still ends on the optimum.  The loop stops on the first cover that is
    not that light, a proven optimum, or on a rule of one clause: the one
    clause that covers every row weighs less than 1 at any gamma > 1, so
    the loop could only end on it.  Every exact round after the first passes
    the rule of the round before to ``solve_exact`` as its incumbent.  It
    weighs 1 at the current gamma, its root, so a round has only to beat
    it, and the last round, which proves that nothing does, returns that
    rule itself.

    Every round runs at gamma > 1, where the weight gamma^-drho falls as
    drho grows, so one ``CoverProblem`` built before the first round serves
    them all: each coverage collapses to its candidate of largest drho,
    lowest index on ties, and the covering lists and HiGHS matrix are built
    once.  A round computes only its weights, its cover and one root, and
    ties between equally cheap covers follow ``solve_exact``'s one rule: the
    incumbent, the previous rule whenever it is no heavier than the greedy
    cover, wins.  The loop returns its lowest round, the earlier one on
    ties.  For the exact solver that is the rule of its last round, which
    is either the previous rule itself or a cover lighter than it by more
    than the tolerance.  The relaxed solver takes no incumbent and may
    wobble; its rounding draws the same fixed trial stream every round.
    Candidates that cannot cover every row raise ``InfeasibleError`` when
    the problem is built.
    """
    if not candidates:
        raise InfeasibleError("no candidate clauses")
    drops = candidates.delta_rho
    problem = CoverProblem(universe_size, candidates.coverage, [-d for d in drops])
    exponents = [-float(drops[i]) for i in problem.indices]
    gamma_old = 2.0
    trail: list[float] = []
    best = None
    for _ in range(MAX_ROUNDS):
        inst = problem.at(tuple(gamma_old ** e for e in exponents))
        if solver is SolverKind.EXACT:
            sol = solve_exact(inst, incumbent=None if best is None else best[1], below=1.0)
        else:
            sol = solve_lp(inst)
        vector = tuple(drops[i] for i in sol.chosen)
        gamma_new = find_gamma(vector)
        trail.append(gamma_new)
        if best is None or gamma_new < best[0]:
            best = (gamma_new, sol.chosen, vector)
        if len(sol.chosen) < 2 or not sol.objective < 1.0 - PRUNE_TOL:
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
    env_pruning: bool = True,
) -> tuple[BranchingTable, Candidates, OptimalBranchingResult]:
    """Full rule-synthesis pipeline for one region.

    Enumerates the alpha tensor, prunes it, groups the survivors, generates
    candidate clauses with their measure reductions, and minimizes gamma over
    valid rules.  With ``env_pruning``, the table is also pruned against the
    host, but only when the region sits strictly inside it: a region covering
    its whole host has a declared, hypothetical boundary, with no environment
    to prune against, and host-side pruning would be unsound there.
    """
    tensor = prune_irrelevant(alpha_tensor(region))
    if env_pruning and region.vertices != region.host.vertices:
        tensor = prune_by_environment(tensor)
    table = boundary_grouped(tensor)
    # the tensor holds the region's whole enumeration, which nothing reads
    # past the grouping; freed here, its memory is not held while HiGHS runs
    del tensor
    cands = build_candidates(table, region, m)
    result = minimize_gamma(cands, len(table), solver)
    return table, cands, result
