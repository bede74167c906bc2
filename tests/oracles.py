"""Independent brute-force oracles.

These deliberately avoid the package's enumeration kernels and solvers so
the tests compare two unrelated routes to the same answer; the gamma
bisection is the one exception, noted on it.
"""

import itertools
import math

import numpy as np

from optbranch.errors import InfeasibleError, InternalError
from optbranch.graph import bits
from optbranch.setcover import WmscInstance, solve_exact


def oracle_mis(g):
    """Independence number by memoized branch recursion over vertex masks."""
    adj = g.adj_mask
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

    return alpha(g.full_mask())


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
                if i < j and order[j] in host.adj[order[i]]:
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


def oracle_set_cover_dp(universe_size, sets, weights):
    """Exact minimum cover by dynamic programming over uncovered-element masks.

    cost[m] is the cheapest way to cover the elements of m.  Some chosen set
    holds the lowest element e of m, so cost[m] is the minimum of
    w_s + cost[m & ~s] over the sets s containing e.  Every m & ~s lacks all
    elements up to e, so filling the masks by descending lowest element finds
    each right-hand side already done.  Costs O(len(sets) * 2^universe_size),
    which reaches instances far too wide for subset enumeration.
    """
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
    full = size - 1
    if math.isinf(cost[full]):
        return math.inf, None
    pick = []
    left = full
    while left:
        i = int(choice[left])
        pick.append(i)
        left &= ~sets[i]
    return float(cost[full]), tuple(sorted(pick))


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
    for c in candidates:
        union |= c.coverage
    if union != (1 << universe_size) - 1:
        raise InfeasibleError("candidate clauses cannot cover the branching table")
    sets = tuple(c.coverage for c in candidates)

    def covered_within_one(gamma):
        weights = tuple(gamma ** -float(c.delta_rho) for c in candidates)
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
