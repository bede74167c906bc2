"""Independent brute-force oracles, and the reference definitions the
tests read graphs and covers through.

These deliberately avoid the package's enumeration kernels and solvers so
the tests compare two unrelated routes to the same answer; the gamma
bisection and the gamma loop from 2 are the exceptions, noted on them.
"""

import itertools
import math
from collections import deque

import numpy as np

from optbranch.errors import InfeasibleError, InternalError
from optbranch.graph import Measure, bits
from optbranch.optimize import find_gamma
from optbranch.setcover import WmscInstance, solve_exact


def edges(g):
    """The edges of ``g`` as (u, v) pairs with u < v, in ascending order."""
    for u, row in g.adj_mask.items():
        for v in bits(row >> (u + 1)):
            yield u, u + 1 + v


def degree(g, v):
    return g.adj_mask[v].bit_count()


def measure(g, m):
    """The measure of ``g``: its vertex count, or sum(max(0, d(v) - 2))."""
    if m is Measure.VERTEX_COUNT:
        return len(g.adj_mask)
    return sum(max(0, degree(g, v) - 2) for v in g.adj_mask)


def is_cover(sol, inst):
    """True when the sets ``sol`` chose cover the universe of ``inst``."""
    got = 0
    for i in sol.chosen:
        got |= inst.sets[i]
    return got == (1 << inst.universe_size) - 1


def _alpha(adj):
    """The function from a vertex mask to the independence number of the
    subgraph that the rows ``adj`` induce on it, by memoized branching."""
    memo = {}

    def alpha(mask):
        if mask == 0:
            return 0
        hit = memo.get(mask)
        if hit is not None:
            return hit
        best_v, best_d = -1, -1
        for v in bits(mask):
            d = (adj[v] & mask).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        if best_d <= 0:
            result = mask.bit_count()
        else:
            v = best_v
            result = max(alpha(mask & ~(1 << v)),
                         1 + alpha(mask & ~(adj[v] | (1 << v))))
        memo[mask] = result
        return result

    return alpha


def oracle_mis(g):
    """Independence number of ``g``."""
    return _alpha(g.adj_mask)(g.vertices)


def oracle_mis_set(g):
    """One maximum independent set of ``g``: each vertex, smallest id first,
    is taken whenever the vertices left after it still reach alpha."""
    adj = g.adj_mask
    alpha = _alpha(adj)
    chosen, rest = set(), g.vertices
    while rest:
        v = (rest & -rest).bit_length() - 1
        without = rest & ~(adj[v] | 1 << v)
        if 1 + alpha(without) == alpha(rest):
            chosen.add(v)
            rest = without
        else:
            rest &= ~(1 << v)
    return chosen


def oracle_config_scan(width, adj_masks, boundary_positions):
    """Independent configurations by testing all 2^width subsets in order.

    Returns ascending configurations with their popcounts and packed
    boundary keys, plus the largest popcount per key (-1 where none).
    """
    configs, pops, keys = [], [], []
    alpha = [-1] * (1 << len(boundary_positions))
    for s in range(1 << width):
        if any((s >> v) & 1 and adj_masks[v] & s for v in range(width)):
            continue
        key = sum(1 << j for j, p in enumerate(boundary_positions) if (s >> p) & 1)
        configs.append(s)
        pops.append(s.bit_count())
        keys.append(key)
        alpha[key] = max(alpha[key], pops[-1])
    return configs, pops, keys, alpha


def oracle_alpha_tensor(region):
    """Alpha tensor by direct subset enumeration with itertools."""
    host = region.host
    order = region.local_order
    width = len(order)
    bpos = region.boundary_positions()
    values = {}
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(width), k) for k in range(width + 1)
    ):
        chosen = set(subset)
        ok = True
        for i in chosen:
            for j in chosen:
                if i < j and host.adj_mask[order[i]] >> order[j] & 1:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        key = sum(1 << jj for jj, p in enumerate(bpos) if p in chosen)
        values[key] = max(values.get(key, -1), len(chosen))
    return [values.get(k, -1) for k in range(1 << len(bpos))]


def oracle_candidates(table):
    """All distinct common-literal clauses of one-config-per-row selections."""
    width = table.width
    full = (1 << width) - 1
    out = set()
    nrows = len(table.rows)
    for take in itertools.product([False, True], repeat=nrows):
        picked_rows = [i for i in range(nrows) if take[i]]
        if not picked_rows:
            continue
        for configs in itertools.product(*(table.rows[i] for i in picked_rows)):
            mask = full
            values = configs[0]
            for cfg in configs[1:]:
                mask &= ~(values ^ cfg)
                values &= mask
            if mask:
                out.add((mask, values & mask))
    return out


def oracle_closure(table):
    """The candidate closure one clause at a time, from a first-in first-out
    worklist: (mask, values, coverage) per clause, in first-insertion order.

    Each popped clause is intersected with the configurations of the rows
    it does not cover, row by row and configuration by configuration.
    """
    width = table.width
    full = (1 << width) - 1
    rows = [tuple(sorted(row)) for row in table.rows]
    out = []
    seen = set()
    queue = deque()

    def push(mask, values):
        key = (mask << width) | values
        if key not in seen:
            seen.add(key)
            queue.append((mask, values))

    for row in rows:
        for cfg in row:
            push(full, cfg)
    while queue:
        mask, values = queue.popleft()
        coverage = 0
        for i, row in enumerate(rows):
            if any(cfg & mask == values for cfg in row):
                coverage |= 1 << i
        out.append((mask, values, coverage))
        for i, row in enumerate(rows):
            if (coverage >> i) & 1:
                continue
            for cfg in row:
                shared = mask & ~(values ^ cfg)
                if shared:
                    push(shared, values & shared)
    return out


def oracle_delta_rho(c, r, m):
    """Measure reduction of one clause's branch, walking the host's bits.

    The branch removes V(c) and the neighbours of the asserted vertices;
    under EFFECTIVE_DEGREE every removed vertex gives up its max(0, d - 2)
    and every surviving neighbour of a removed one the drop of that term.
    May be zero or less, for a degenerate clause.
    """
    host = r.host
    adj = host.adj_mask
    removed = r.to_host_mask(c.mask) | host.neighbors_mask(r.to_host_mask(c.true_mask))
    if m is Measure.VERTEX_COUNT:
        return removed.bit_count()
    drop = 0
    for v in bits(removed):
        drop += max(0, adj[v].bit_count() - 2)
    for u in bits(host.neighbors_mask(removed)):
        d = adj[u].bit_count()
        lost = (adj[u] & removed).bit_count()
        drop += max(0, d - 2) - max(0, d - lost - 2)
    return drop


def covers(c, row):
    """True when at least one configuration in ``row`` satisfies clause ``c``."""
    return any(cfg & c.mask == c.values for cfg in row)


def is_valid_rule(d, table):
    """True when every row of the table is covered by some clause of ``d``."""
    return all(any(covers(c, row) for c in d.clauses) for row in table.rows)


def oracle_set_cover(universe_size, sets, weights):
    """Exhaustive minimum over all subsets of sets covering the universe."""
    full = (1 << universe_size) - 1
    best = math.inf
    best_pick = None
    for pick in itertools.product([False, True], repeat=len(sets)):
        got = 0
        for i, p in enumerate(pick):
            if p:
                got |= sets[i]
        if got != full:
            continue
        cost = sum(w for w, p in zip(weights, pick) if p)
        if cost < best * (1.0 - 1e-12):
            best = cost
            best_pick = tuple(i for i, p in enumerate(pick) if p)
    return best, best_pick


def _cover_costs(universe_size, sets, weights):
    """The DP table of ``oracle_set_cover_dp``: (cost, choice) per mask."""
    size = 1 << universe_size
    masks = np.arange(size, dtype=np.int64)
    covs = np.asarray(sets, dtype=np.int64)
    w = np.asarray(weights, dtype=float)
    cost = np.full(size, math.inf)
    cost[0] = 0.0
    choice = np.full(size, -1)
    for e in reversed(range(universe_size)):
        group = masks[(masks & ((2 << e) - 1)) == (1 << e)]
        holders = np.nonzero((covs >> e) & 1)[0]
        if holders.size == 0:
            continue
        totals = w[holders, None] + cost[group[None, :] & ~covs[holders, None]]
        best = np.argmin(totals, axis=0)
        cost[group] = totals[best, np.arange(group.size)]
        choice[group] = holders[best]
    return cost, choice


def oracle_set_cover_dp(universe_size, sets, weights):
    """Exact minimum cover by dynamic programming over uncovered-element masks.

    cost[m] is the cheapest way to cover the elements of m.  Some chosen set
    holds the lowest element e of m, so cost[m] is the minimum of
    w_s + cost[m & ~s] over the sets s containing e.  Every m & ~s lacks all
    elements up to e, so filling the masks by descending lowest element finds
    each right-hand side already done.  Costs O(len(sets) * 2^universe_size),
    which reaches instances far too wide for subset enumeration.
    """
    cost, choice = _cover_costs(universe_size, sets, weights)
    full = (1 << universe_size) - 1
    if math.isinf(cost[full]):
        return math.inf, None
    pick = []
    left = full
    while left:
        i = int(choice[left])
        pick.append(i)
        left &= ~sets[i]
    return float(cost[full]), tuple(sorted(pick))


def oracle_cover_holding(universe_size, sets, weights):
    """For each set s, the least weight of a cover that holds s: w_s plus
    the cheapest cover of what s leaves uncovered (``oracle_set_cover_dp``'s
    table)."""
    cost, _choice = _cover_costs(universe_size, sets, weights)
    full = (1 << universe_size) - 1
    return [float(w + cost[full & ~cov]) for cov, w in zip(sets, weights)]


def oracle_drop_redundant(covs, weights, picked, universe_size):
    """``picked`` less its redundant sets by per-element cover counts: sets
    are taken heaviest first, higher index first on ties, and one is dropped
    when every element it covers is covered at least twice by the sets
    still kept.  Returns the kept indices in ascending order."""
    elements = [list(bits(cov)) for cov in covs]
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


def oracle_erdos_renyi(n, avg_degree, seed):
    """The edges of G(n, p), p = min(1, avg_degree / (n - 1)), drawn in one
    call over every pair in ``np.triu_indices`` order, as (u, v) with u < v."""
    if n == 1:
        return set()
    p = min(1.0, avg_degree / (n - 1))
    iu, ju = np.triu_indices(n, k=1)
    hit = np.random.default_rng(seed).random(iu.shape[0]) < p
    return set(zip(iu[hit].tolist(), ju[hit].tolist()))


def minimize_gamma_bisection(candidates, universe_size, eps=1e-6):
    """Bisect gamma on the existence of a cover with weight at most one.

    The indicator is monotone in gamma, so its transition point is the
    minimal branching factor.  It cross-checks the fixed point of
    ``minimize_gamma`` by a different search over gamma; both share
    ``solve_exact`` for the covers.
    """
    if not candidates:
        raise InfeasibleError("no candidate clauses")
    union = 0
    for cov in candidates.coverage:
        union |= cov
    if union != (1 << universe_size) - 1:
        raise InfeasibleError("candidate clauses cannot cover the branching table")
    sets = candidates.coverage

    def covered_within_one(gamma):
        weights = tuple(gamma ** -float(d) for d in candidates.delta_rho)
        sol = solve_exact(WmscInstance(universe_size, sets, weights))
        return sol.objective <= 1.0 + 1e-12

    lo, hi = 1.0, 2.0
    if covered_within_one(lo):
        return 1.0
    while not covered_within_one(hi):
        hi *= 2.0
        if hi > 64.0:
            raise InternalError("no finite branching factor below 64")
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if covered_within_one(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def oracle_prune_by_environment(t, exact_limit):
    """Environment pruning as first written: values of ``t`` after it.

    Every pair (retained t', survivor s), survivors by decreasing value,
    computes the alpha of the difference set (vertices t' removes outside
    the region that s does not) outright: by memoized branching up to
    ``exact_limit`` vertices, its vertex count above.  s is dropped when
    values[s] + alpha <= values[t'] for some retained t'.
    """
    region = t.region
    host = region.host
    alpha = _alpha(host.adj_mask)
    boundary = [v for v in region.local_order if region.boundary >> v & 1]
    removed_by = {}
    for key in t.surviving():
        chosen = sum(1 << v for j, v in enumerate(boundary) if key >> j & 1)
        removed_by[key] = host.neighbors_mask(chosen) & ~region.vertices
    kept = []
    pruned = list(t.values)
    for s in sorted(removed_by, key=lambda k: (-t.values[k], k)):
        for other in kept:
            diff = removed_by[other] & ~removed_by[s]
            count = diff.bit_count()
            bound = count if count > exact_limit else alpha(diff)
            if t.values[s] + bound <= t.values[other]:
                pruned[s] = -1
                break
        else:
            kept.append(s)
    return tuple(pruned)


def oracle_minimize_gamma_from_two(candidates, universe_size):
    """The exact gamma loop as it ran before its greedy-and-swap start.

    From gamma = 2, each round solves the whole candidate list at weights
    gamma^-drho with ``solve_exact`` and re-roots gamma from the chosen
    vector, until gamma stops falling by more than 1e-12 or the rule has one
    clause.  Returns (gamma, rounds).  It shares ``solve_exact`` and
    ``find_gamma`` with the package: it checks where the loop starts, not
    the cover solver.
    """
    gamma_old = 2.0
    rounds = 0
    while True:
        weights = tuple(gamma_old ** -float(d) for d in candidates.delta_rho)
        sol = solve_exact(WmscInstance(universe_size, candidates.coverage, weights))
        rounds += 1
        vector = [candidates.delta_rho[i] for i in sol.chosen]
        gamma_new = find_gamma(vector)
        if len(vector) == 1 or gamma_new >= gamma_old - 1e-12:
            return gamma_new, rounds
        gamma_old = gamma_new
