"""Minimize the branching factor over valid DNF rules via set-cover runs.

The branching factor gamma of a rule with reductions (d_1..d_k) is the root
of sum(gamma^-d_i) = 1.  Candidate clauses are selected through a fixed point
alternation: solve the covering instance whose weights are gamma^-d_i, then
re-solve gamma from the chosen vector, until gamma stops decreasing or the
chosen rule is a single clause (gamma 1, which no rule beats).  With
the exact cover solver the fixed point is the global optimum; the tests
cross-check it with a bisection on "does a cover of weight at most one
exist".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .clauses import DNF, CandidateClause, build_candidates
from .errors import InfeasibleError, InputError, InternalError
from .graph import Measure, Region
from .setcover import WmscInstance, solve_exact, solve_lp
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
    solver_kind: SolverKind
    gamma_trail: tuple[float, ...] = ()


def find_gamma(vector) -> float:
    """Unique gamma >= 1 with sum(gamma^-v) = 1; exactly 1 for single entries."""
    vec = list(vector)
    if not vec:
        raise InputError("branching vector must be nonempty")
    if any(v <= 0 for v in vec):
        raise InputError("branching vector entries must be positive")
    if len(vec) == 1:
        return 1.0

    def f(g):
        return sum(g ** -v for v in vec) - 1.0

    def fprime(g):
        return sum(-v * g ** (-v - 1.0) for v in vec)

    lo, hi = 1.0, len(vec) ** (1.0 / min(vec))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = f(mid)
        if abs(r) < 1e-13:
            lo = hi = mid
            break
        if r > 0.0:
            lo = mid
        else:
            hi = mid
    g = 0.5 * (lo + hi)
    for _ in range(2):
        g = max(1.0 + 1e-16, g - f(g) / fprime(g))
    return g


def minimize_gamma(
    candidates: list[CandidateClause],
    universe_size: int,
    solver: SolverKind = SolverKind.EXACT,
    seed: int = 0,
) -> OptimalBranchingResult:
    """Fixed-point iteration of Alg-style rule selection, starting at gamma=2.

    Each round solves the covering instance at the current gamma and re-roots
    gamma from the chosen branching vector; rounds strictly decrease gamma
    until the fixed point, which the exact solver reaches at the provably
    minimal gamma.  The loop also stops at the first rule of one clause: its
    gamma is 1, which no rule beats, so that round's clause is returned.
    Each round's cover is solved afresh, and ties between equally cheap
    covers follow ``solve_exact``'s one rule: the greedy cover wins.  The
    relaxed solver may wobble, so its best round wins.  Candidates that
    cannot cover every row raise ``InfeasibleError`` from the solver's
    feasibility check.
    """
    if not candidates:
        raise InfeasibleError("no candidate clauses")
    sets = tuple(c.coverage for c in candidates)
    gamma_old = 2.0
    trail: list[float] = []
    best = None
    for round_no in range(MAX_ROUNDS):
        weights = tuple(gamma_old ** -float(c.delta_rho) for c in candidates)
        inst = WmscInstance(universe_size, sets, weights)
        if solver is SolverKind.EXACT:
            sol = solve_exact(inst)
        else:
            sol = solve_lp(inst, seed=(seed ^ (round_no * 0x9E3779B9)) & 0xFFFFFFFFFFFFFFFF)
        vector = tuple(candidates[i].delta_rho for i in sol.chosen)
        gamma_new = find_gamma(vector)
        trail.append(gamma_new)
        # the exact solver ends on its fixed point; the relaxed one keeps its best round
        if solver is SolverKind.EXACT or best is None or gamma_new < best[0]:
            best = (gamma_new, sol.chosen, vector)
        if len(vector) == 1 or gamma_new >= gamma_old - GAMMA_TOL:
            gamma, chosen, vector = best
            return OptimalBranchingResult(
                rule=DNF(tuple(candidates[i].clause for i in chosen)),
                chosen_indices=chosen,
                branching_vector=vector,
                gamma=gamma,
                solver_kind=solver,
                gamma_trail=tuple(trail),
            )
        gamma_old = gamma_new
    raise InternalError("gamma fixed point did not converge within 64 rounds")


def optimal_rule(
    region: Region,
    m: Measure,
    solver: SolverKind = SolverKind.EXACT,
    env_pruning: bool | None = None,
    limit: int = 26,
    seed: int = 0,
) -> tuple[BranchingTable, list[CandidateClause], OptimalBranchingResult]:
    """Full rule-synthesis pipeline for one region.

    Enumerates the alpha tensor, prunes it, groups the survivors, generates
    candidate clauses with their measure reductions, and minimizes gamma over
    valid rules.  Environment pruning defaults to on exactly when the region
    sits in a strictly larger host; a region covering its whole host is
    treated as having a declared, hypothetical boundary, where host-side
    pruning would be unsound.
    """
    if env_pruning is None:
        env_pruning = region.vertices != region.host.full_mask()
    tensor = prune_irrelevant(alpha_tensor(region, limit))
    if env_pruning:
        tensor = prune_by_environment(tensor)
    table = boundary_grouped(tensor)
    cands = build_candidates(table, region, m)
    result = minimize_gamma(cands, len(table), solver, seed)
    return table, cands, result
