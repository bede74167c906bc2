"""Minimize the branching factor over valid DNF rules via set-cover runs.

The branching factor gamma of a rule with reductions (d_1..d_k) is the root
of sum(gamma^-d_i) = 1.  Candidate clauses are selected through a fixed point
alternation (a Dinkelbach iteration) from gamma = 2: solve the covering
instance whose weights are gamma^-d_i, then re-solve gamma from the chosen
vector, until gamma stops decreasing or the chosen rule is a single clause
(gamma 1, which no rule beats).  With the exact cover solver the iteration
reaches the global optimum, and only its last round must be a proven
optimum: a round before it needs only a rule whose root is lower.  So an
exact round takes the greedy-and-swap cover, or an LP rounding, whenever
that rule lowers gamma, and the loop stops on the first round whose cover
does not, which is then always a proven optimum.  Each round after the first
starts from the previous round's rule, which weighs 1 at its own root, so it
has only to find a lighter cover or prove that none exists; at the fixed
point it proves it, and returns that rule.  The tests cross-check the
optimum with a bisection on "does a cover of weight at most one exist".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .clauses import DNF, Candidates, build_candidates
from .errors import InfeasibleError, InputError, InternalError
from .graph import Measure, Region
from .setcover import CoverProblem, solve_exact, solve_lp
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


def _lowers(root, gamma):
    """The test a round's cover must pass for the loop to go on: a rule of
    two or more clauses whose ``root`` (a function of its chosen indices) is
    below ``gamma`` by more than ``GAMMA_TOL``."""
    return lambda chosen: len(chosen) >= 2 and root(chosen) < gamma - GAMMA_TOL


def minimize_gamma(
    candidates: Candidates,
    universe_size: int,
    solver: SolverKind = SolverKind.EXACT,
) -> OptimalBranchingResult:
    """Fixed-point iteration of Alg-style rule selection.

    Each round, from gamma = 2, solves the covering instance at the current
    gamma and re-roots gamma from the chosen branching vector; rounds
    strictly decrease gamma until the fixed point, which the exact solver
    reaches at the provably minimal gamma.  The loop also stops at the first
    rule of one clause: its gamma is 1, which no rule beats, so that round's
    clause is returned.  ``gamma_trail`` lists the root of every round.

    One test, ``_lowers``, decides both whether a round moves the loop on
    and, passed to ``solve_exact``, which unproven covers a round may
    return: the greedy cover improved by swap moves, or the rounding of a
    fractional HiGHS relaxation, either only when its rule lowers gamma.
    Every gamma after 2 is then the root of a real rule, so the Dinkelbach
    iteration still ends on the optimum; a cover the test refuses is a
    proven optimum, so the last round, and with it the answer, always is.
    Every exact round after the first passes the rule of the round before
    to ``solve_exact`` as its incumbent.  It weighs 1 at the current gamma,
    its root, so a round has only to beat it, and the last round, which
    proves that nothing does, returns that rule itself, whose root the test
    refuses.

    Every round runs at gamma > 1, where the weight gamma^-drho falls as
    drho grows, so one ``CoverProblem`` built before the first round serves
    them all: each coverage collapses to its candidate of largest drho,
    lowest index on ties, and the covering lists and HiGHS matrix are built
    once.  A round computes only its weights and its cover, and ties between
    equally cheap covers follow ``solve_exact``'s one rule: the incumbent,
    the previous rule whenever it is no heavier than the greedy cover, wins.
    The relaxed solver takes no incumbent and may wobble, so its best round
    wins; its rounding draws the same fixed trial stream every round.
    Candidates that cannot cover every row raise ``InfeasibleError`` when
    the problem is built.
    """
    if not candidates:
        raise InfeasibleError("no candidate clauses")
    drops = candidates.delta_rho
    problem = CoverProblem(universe_size, candidates.coverage, [-d for d in drops])
    exponents = [-float(drops[i]) for i in problem.indices]
    # a rule's root, its vector in the loop's order; one cover is often met
    # twice (tested, then re-rooted, or in two rounds), so each is rooted once
    root = functools.cache(lambda chosen: find_gamma([drops[i] for i in chosen]))
    gamma_old = 2.0
    trail: list[float] = []
    best = None
    for _ in range(MAX_ROUNDS):
        inst = problem.at(tuple(gamma_old ** e for e in exponents))
        lowers = _lowers(root, gamma_old)
        if solver is SolverKind.EXACT:
            sol = solve_exact(inst, lowers, incumbent=None if best is None else best[1])
        else:
            sol = solve_lp(inst)
        vector = tuple(drops[i] for i in sol.chosen)
        gamma_new = root(sol.chosen)
        trail.append(gamma_new)
        # the exact solver ends on its fixed point; the relaxed one keeps its best round
        if solver is SolverKind.EXACT or best is None or gamma_new < best[0]:
            best = (gamma_new, sol.chosen, vector)
        if not lowers(sol.chosen):
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
