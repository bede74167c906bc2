"""Seeded random graph families used by the benchmark harness.

All generators run on ``numpy.random.default_rng(seed)``, so a (family,
parameters, seed) triple always produces the same graph.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, InternalError
from .graph import Graph


def three_regular(n: int, seed: int) -> Graph:
    """Random 3-regular graph via the pairing model, rejecting until simple."""
    if n < 4 or n % 2:
        raise InputError("a 3-regular graph needs an even vertex count >= 4")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), 3)
    for _ in range(10000):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        edges = {tuple(sorted(p)) for p in pairs.tolist()}
        if len(edges) == pairs.shape[0]:
            return Graph(n, edges)
    raise InternalError("pairing model failed to produce a simple graph")


def erdos_renyi(n: int, avg_degree: float, seed: int) -> Graph:
    """G(n, p) with p chosen to hit the requested average degree.

    Pair (u, v), u < v, is an edge when its uniform draw falls below p, the
    pairs taken row by row in ascending order.  Each row draws its own block
    of the one stream, so the graph is the one a single draw for all
    n(n - 1)/2 pairs gives, in memory O(n + m).
    """
    if n < 1:
        raise InputError("need at least one vertex")
    if not 0.0 <= avg_degree < math.inf:
        raise InputError(f"average degree must be finite and at least 0, got {avg_degree}")
    if n == 1:
        return Graph(1, [])
    p = min(1.0, avg_degree / (n - 1))
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n - 1):
        hit = np.flatnonzero(rng.random(n - 1 - u) < p) + (u + 1)
        edges.extend((u, v) for v in hit.tolist())
    return Graph(n, edges)


def _lattice_subgraph(n: int, filling: float, seed: int, offsets) -> Graph:
    """Occupy an L x L lattice at rate ``filling``, adjusted to exactly n sites.

    L is the smallest side with L*L*filling >= n.  Sites are first drawn
    Bernoulli(filling); surplus occupied sites are then vacated (or missing
    ones filled) uniformly at random so the target count is met exactly.
    Vertices are the occupied sites in row-major order.
    """
    if n < 1:
        raise InputError("need at least one vertex")
    if not 0.0 < filling <= 1.0:
        raise InputError("filling must be in (0, 1]")
    side = max(1, math.ceil(math.sqrt(n / filling)))
    while side * side < n:
        side += 1
    rng = np.random.default_rng(seed)
    occupied = rng.random(side * side) < filling
    count = int(occupied.sum())
    if count > n:
        on = np.nonzero(occupied)[0]
        occupied[rng.choice(on, size=count - n, replace=False)] = False
    elif count < n:
        off = np.nonzero(~occupied)[0]
        occupied[rng.choice(off, size=n - count, replace=False)] = True
    sites = np.nonzero(occupied)[0]
    index = {int(s): i for i, s in enumerate(sites)}
    edges = []
    for s in sites.tolist():
        row, col = divmod(s, side)
        for dr, dc in offsets:
            r2, c2 = row + dr, col + dc
            if 0 <= r2 < side and 0 <= c2 < side:
                t = r2 * side + c2
                if t in index:
                    edges.append((index[s], index[t]))
    return Graph(n, edges)


def kings_subgraph(n: int, filling: float, seed: int) -> Graph:
    """Occupied-site subgraph of the 8-neighbor king lattice."""
    offsets = [(0, 1), (1, -1), (1, 0), (1, 1)]
    return _lattice_subgraph(n, filling, seed, offsets)


def grid_subgraph(n: int, filling: float, seed: int) -> Graph:
    """Occupied-site subgraph of the 4-neighbor square lattice."""
    offsets = [(0, 1), (1, 0)]
    return _lattice_subgraph(n, filling, seed, offsets)


GENERATORS = {
    "3regular": lambda n, seed, avg_degree, filling: three_regular(n, seed),
    "erdos_renyi": lambda n, seed, avg_degree, filling: erdos_renyi(n, avg_degree, seed),
    "kings": lambda n, seed, avg_degree, filling: kings_subgraph(n, filling, seed),
    "grid": lambda n, seed, avg_degree, filling: grid_subgraph(n, filling, seed),
}
