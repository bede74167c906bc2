"""Alpha tensors, their pruning, and boundary-grouped branching tables.

The alpha tensor of a region R assigns to every boundary configuration the
largest local independent set consistent with it (``NEG_INF`` when the
boundary bits themselves clash).  Pruning removes entries that can never be
part of a globally optimal solution; the survivors, grouped with their
witnessing configurations, form the branching table that rule synthesis
works on.

Bit conventions (fixed so tables are reproducible): local position i of a
region is bit i of a configuration integer, and boundary key bit j belongs
to the j-th boundary vertex in local order.  Rows are emitted by ascending
boundary key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import CapacityError, InternalError
from .graph import Graph, Region, bits

NEG_INF = -1

ENV_EXACT_LIMIT = 20


@dataclass(frozen=True)
class AlphaTensor:
    """Local MIS sizes of a region, indexed by packed boundary configuration."""

    region: Region
    values: tuple[int, ...]
    # (configs, pop, key) from the region's one enumeration: every independent
    # configuration, ascending, with its popcount and boundary key
    scan: tuple[np.ndarray, np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.region.boundary_positions())

    def surviving(self) -> tuple[int, ...]:
        """Boundary keys with finite entries, ascending."""
        return tuple(k for k, a in enumerate(self.values) if a != NEG_INF)


@dataclass(frozen=True)
class BranchingTable:
    """Boundary-grouped maximum configurations of a region.

    ``rows[i]`` holds every optimal local configuration for the i-th
    surviving boundary key (``row_keys[i]``); all of them have popcount
    ``row_alpha[i]``.
    """

    width: int
    rows: tuple[tuple[int, ...], ...]
    row_alpha: tuple[int, ...]
    row_keys: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.rows)


def alpha_tensor(r: Region) -> AlphaTensor:
    """Exhaustively enumerate the alpha tensor of ``r``.

    Every independent local configuration is listed once; the maximum
    popcount per boundary configuration survives.  The listing is kept on
    the tensor for ``boundary_grouped``.  A region wider than
    ``_kernels.ENUMERATION_LIMIT``, or with more boundary vertices than
    ``_kernels.BOUNDARY_LIMIT``, raises ``CapacityError`` before anything is
    allocated.
    """
    limit = _kernels.ENUMERATION_LIMIT
    if r.width > limit:
        raise CapacityError(
            f"region has {r.width} vertices, above the enumeration limit {limit}"
        )
    positions = r.boundary_positions()
    if len(positions) > _kernels.BOUNDARY_LIMIT:
        raise CapacityError(f"region has {len(positions)} boundary vertices, above the "
                            f"boundary limit {_kernels.BOUNDARY_LIMIT}")
    configs, pop, key, alpha = _kernels.config_scan(r.width, r.local_adj_masks(), positions)
    return AlphaTensor(r, tuple(alpha.tolist()), (configs, pop, key))


def prune_irrelevant(t: AlphaTensor) -> AlphaTensor:
    """Drop entries dominated by a less restrictive boundary configuration.

    Entry ``t`` is dropped when some ``s`` with s subset-of t (bitwise) has an
    equal or larger value, or when ``t`` is already infeasible.  Computed with
    a subset-lattice max sweep, O(2^rank * rank).
    """
    rank = t.rank
    vals = np.asarray(t.values, dtype=np.int16)
    # closure[k] = max value over all subsets of k including k itself
    closure = vals.copy()
    for b in range(rank):
        folded = closure.reshape(-1, 2 << b)
        np.maximum(folded[:, (1 << b):], folded[:, : (1 << b)], out=folded[:, (1 << b):])
    # best[k] = max value over strict subsets = max of closure over children
    best = np.full(1 << rank, NEG_INF, dtype=np.int16)
    for b in range(rank):
        shaped_best = best.reshape(-1, 2 << b)
        shaped_clo = closure.reshape(-1, 2 << b)
        np.maximum(shaped_best[:, (1 << b):], shaped_clo[:, : (1 << b)], out=shaped_best[:, (1 << b):])
    pruned = np.where((vals == NEG_INF) | (best >= vals), np.int16(NEG_INF), vals)
    return replace(t, values=tuple(pruned.tolist()))


def _boundary_set_mask(region: Region, key: int) -> int:
    """Host mask of the boundary vertices selected by packed key ``key``."""
    out = 0
    for j, v in enumerate(bits(region.boundary)):
        if (key >> j) & 1:
            out |= 1 << v
    return out


def _induced_alpha(host: Graph, vertex_mask: int) -> int:
    """Exact alpha of the subgraph of ``host`` induced on ``vertex_mask``."""
    induced = Region(host, vertex_mask, 0, tuple(bits(vertex_mask)))
    size, _ = _kernels.max_independent(vertex_mask.bit_count(), induced.local_adj_masks())
    return size


def _greedy_independent(host: Graph, vertex_mask: int) -> int:
    """Size of an independent set inside ``vertex_mask``, a lower bound on
    its alpha: the lowest vertex left is taken and its closed neighbourhood
    dropped, until no vertex is left."""
    adj = host.adj_mask
    size = 0
    while vertex_mask:
        v = (vertex_mask & -vertex_mask).bit_length() - 1
        vertex_mask &= ~(adj[v] | 1 << v)
        size += 1
    return size


def prune_by_environment(t: AlphaTensor) -> AlphaTensor:
    """Prune further using the host-side neighbors of the boundary.

    A surviving configuration s is dropped when some retained configuration
    t' absorbs it: every completion of the s branch is matched, up to the
    vertices t' removes but s does not, by a completion of the t' branch.
    That holds when the alpha of that difference set is at most the gap
    values[t'] - values[s].  The alpha is exact when the set has at most
    ``ENV_EXACT_LIMIT`` vertices, otherwise its vertex count stands in as a
    sound upper bound.  Bounds settle most pairs before any enumeration: a
    set no larger than the gap is absorbed, and a nonempty set against a
    zero gap, or one holding a greedy independent set larger than the gap,
    is not.  Only the rest enumerate, and both the greedy size and the exact
    alpha are kept per difference set.  Configurations are considered in
    order of decreasing value so mutually absorbing pairs keep exactly one
    representative.
    """
    region = t.region
    host = region.host
    values = t.values
    survivors = t.surviving()
    if len(survivors) <= 1:
        return t
    removed_by = {}
    for key in survivors:
        chosen = _boundary_set_mask(region, key)
        removed_by[key] = host.neighbors_mask(chosen) & ~region.vertices
    lower: dict[int, int] = {}
    alpha_of: dict[int, int] = {}

    def absorbs(other, s):
        diff = removed_by[other] & ~removed_by[s]
        gap = values[other] - values[s]
        count = diff.bit_count()
        if count <= gap:
            return True
        if count > ENV_EXACT_LIMIT or gap == 0:
            return False
        low = lower.get(diff)
        if low is None:
            low = lower[diff] = _greedy_independent(host, diff)
        if low > gap:
            return False
        alpha = alpha_of.get(diff)
        if alpha is None:
            alpha = alpha_of[diff] = _induced_alpha(host, diff)
        return alpha <= gap

    order = sorted(survivors, key=lambda k: (-values[k], k))
    kept: list[int] = []
    pruned = list(values)
    for s in order:
        if any(absorbs(other, s) for other in kept):
            pruned[s] = NEG_INF
        else:
            kept.append(s)
    return replace(t, values=tuple(pruned))


def boundary_grouped(t: AlphaTensor) -> BranchingTable:
    """Collect, per surviving entry, every optimal consistent configuration."""
    region = t.region
    survivors = t.surviving()
    if not survivors:
        raise InternalError("alpha tensor has no finite entries")
    configs, pop, key = t.scan
    hit = pop == np.asarray(t.values, dtype=np.int16)[key]
    configs = configs[hit]
    config_keys = key[hit]
    rows = []
    row_alpha = []
    for k in survivors:
        members = configs[config_keys == k]
        if members.size == 0:
            raise InternalError(f"surviving boundary key {k} has no configurations")
        rows.append(tuple(members.tolist()))
        row_alpha.append(t.values[k])
    return BranchingTable(region.width, tuple(rows), tuple(row_alpha), survivors)
