"""Recursive branch-and-reduce MIS solver with on-the-fly rule synthesis.

Each call reduces degree <= 2 vertices to a fixed point (taking pendants,
folding degree-2 paths), splits the irreducible kernel into connected
components, picks the second-order neighborhood with the fewest boundary
vertices, synthesizes the optimal branching rule for it, and recurses on one
subproblem per clause.  Rules with a single clause are reductions and do not
count as branches; a rule with k >= 2 clauses adds k to the branch counter.

Per-node work follows what changed at the node, not the size of the graph.
Every vertex's region key (boundary count, region size) is carried from the
parent to each child through the index maps of ``induced_delete`` and
``Reduction.kept``; a key is recomputed only for vertices within
``selection_radius`` of a vertex whose adjacency changed (a lost neighbour,
a fold, or a fresh fold vertex).  Both relabellings keep survivors in their
relative order and append fold vertices after them, so the argmin over
(boundary, size, id) picks the same region as a from-scratch scan.  A kernel
that is one component is used as it is, and a graph with no vertex of
degree <= 2 is its own kernel, so neither is copied.

Everything is single-threaded and deterministic: identical (graph, config)
inputs produce identical reports, including branch counts and witnesses.
The ``optbranch.engine`` logger (enabled from the CLI by ``OPTBRANCH_LOG``)
gets one ``debug`` line per synthesized node and one ``info`` summary per
``mis_branch`` call.
"""

from __future__ import annotations

import heapq
import logging
import sys
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from . import _kernels
from .errors import InputError, InternalError
from .graph import Graph, Measure, Region, bits, induced_delete, neighbors_k, region_of
from .optimize import SolverKind, optimal_rule

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolveConfig:
    measure: Measure = Measure.EFFECTIVE_DEGREE
    solver_kind: SolverKind = SolverKind.EXACT
    selection_radius: int = 2
    env_pruning: bool = True
    enumeration_limit: int = 26
    seed: int = 0

    def __post_init__(self):
        if self.selection_radius < 1:
            raise InputError("selection_radius must be at least 1")
        if self.enumeration_limit < 1:
            raise InputError("enumeration_limit must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    mis_size: int
    witness: frozenset[int]
    branch_count: int
    max_depth: int
    node_count: int
    rule_stats: dict = field(compare=False)


@dataclass
class Reduction:
    """Outcome of running the degree <= 2 rewrites to a fixed point.

    ``kept[i]`` is the input id of kernel vertex i (ids at or above the
    input's n are fold vertices); ``changed`` masks the kernel vertices whose
    adjacency differs from the input's, fold vertices included.
    """

    graph: Graph
    offset: int
    kept: Sequence[int]
    takes: list[int]
    folds: list[tuple[int, int, int, int]]
    changed: int = 0

    def resolve(self, kernel_witness) -> set[int]:
        """Map a kernel witness back through takes and folds to input ids."""
        chosen = {self.kept[v] for v in kernel_witness}
        chosen.update(self.takes)
        for z, v, u, w in reversed(self.folds):
            if z in chosen:
                chosen.discard(z)
                chosen.add(u)
                chosen.add(w)
            else:
                chosen.add(v)
        return chosen


def reduce_fixpoint(g: Graph) -> Reduction:
    """Remove degree-0/1 vertices and fold degree-2 vertices until stable.

    Folding a degree-2 vertex v with non-adjacent neighbors u, w contracts
    {u, v, w} into one fresh vertex adjacent to N({u, w}) minus the triple;
    alpha grows by one either way, and the fold record carries enough to
    rebuild a witness.  Vertices are processed smallest-id first.  A graph
    with no vertex of degree <= 2 is returned as its own kernel, uncopied.
    """
    if min(map(len, g.adj), default=0) > 2:
        return Reduction(g, 0, range(g.n), [], [])
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    heap = [v for v in range(g.n) if len(adj[v]) <= 2]
    heapq.heapify(heap)
    takes: list[int] = []
    folds: list[tuple[int, int, int, int]] = []
    offset = 0
    next_id = g.n
    touched: set[int] = set()  # vertices whose neighbourhood was rewritten

    def remove(v):
        touched.update(adj[v])
        for u in adj[v]:
            adj[u].discard(v)
            if len(adj[u]) <= 2:
                heapq.heappush(heap, u)
        del adj[v]

    while heap:
        v = heapq.heappop(heap)
        if v not in adj or len(adj[v]) > 2:
            continue
        deg = len(adj[v])
        if deg == 0:
            takes.append(v)
            offset += 1
            del adj[v]
        elif deg == 1:
            (u,) = adj[v]
            takes.append(v)
            offset += 1
            adj[v].clear()
            remove(u)
            del adj[v]
        else:
            u, w = sorted(adj[v])
            if w in adj[u]:
                takes.append(v)
                offset += 1
                neighborhood = [u, w]
                adj[v].clear()
                for x in neighborhood:
                    remove(x)
                del adj[v]
            else:
                z = next_id
                next_id += 1
                merged = (adj[u] | adj[w]) - {u, v, w}
                for x in (v, u, w):
                    for y in adj[x]:
                        adj[y].discard(x)
                    del adj[x]
                adj[z] = set(merged)
                touched.update(merged)
                touched.add(z)
                for y in merged:
                    adj[y].add(z)
                    if len(adj[y]) <= 2:
                        heapq.heappush(heap, y)
                if len(adj[z]) <= 2:
                    heapq.heappush(heap, z)
                folds.append((z, v, u, w))
                offset += 1

    kept = tuple(sorted(adj))
    new_id = {old: i for i, old in enumerate(kept)}
    rows = tuple([tuple([new_id[w] for w in sorted(adj[a])]) for a in kept])
    changed = 0
    for i, old in enumerate(kept):
        if old in touched:
            changed |= 1 << i
    return Reduction(Graph._from_adj(rows), offset, kept, takes, folds, changed)


def components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, by smallest contained id."""
    seen = 0
    out = []
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        comp = 1 << v
        frontier = [v]
        while frontier:
            u = frontier.pop()
            fresh = g.adj_mask[u] & ~comp
            comp |= fresh
            frontier.extend(bits(fresh))
        seen |= comp
        out.append(comp)
    return out


def _region(adj_mask, v: int, radius: int, limit: int) -> tuple[int, int]:
    """(mask, boundary count) of v's region: the largest closed ball of
    radius at most ``radius`` around v with at most ``limit`` vertices, or
    {v}.  The ball grows one ring at a time from the last ring only, and only
    that ring can have neighbours outside the ball."""
    mask = ring = 1 << v
    for _ in range(radius):
        reach = 0
        for u in bits(ring):
            reach |= adj_mask[u]
        reach &= ~mask
        if not reach or (mask | reach).bit_count() > limit:
            break
        mask |= reach
        ring = reach
    boundary = 0
    for u in bits(ring):
        if adj_mask[u] & ~mask:
            boundary += 1
    return mask, boundary


def select_subgraph(g: Graph, cfg: SolveConfig, keys: list | None = None,
                    changed: int = 0) -> Region:
    """Pick the branching region: the radius-``selection_radius`` closed
    neighborhood with the fewest boundary vertices, shrunk toward N[v] and
    finally {v} whenever it would exceed the enumeration limit.  Ties prefer
    fewer vertices, then the smallest anchor id.

    ``keys``, when given, holds each vertex's (boundary count, region size)
    carried from an ancestor graph (None where unknown) and is refreshed in
    place: only vertices within ``selection_radius`` of ``changed``, the mask
    of vertices whose adjacency differs from that ancestor's, are recomputed.
    Without ``keys`` every vertex is computed afresh."""
    if g.n == 0:
        raise InputError("cannot select a region in an empty graph")
    radius, limit, adj_mask = cfg.selection_radius, cfg.enumeration_limit, g.adj_mask
    if keys is None:
        keys = [None] * g.n
        stale = g.full_mask()
    else:
        stale = neighbors_k(g, changed, radius, closed=True) if changed else 0
    for v in bits(stale):
        mask, boundary = _region(adj_mask, v, radius, limit)
        keys[v] = (boundary, mask.bit_count())
    best = min(range(g.n), key=keys.__getitem__)
    return region_of(g, _region(adj_mask, best, radius, limit)[0])


def _relabel(mask: int, kept: Sequence[int]) -> int:
    """Carry a vertex mask through an ascending index map: bit ``kept[i]``
    becomes bit i, and vertices that did not survive drop out."""
    out = 0
    for v in bits(mask):
        i = bisect_left(kept, v)
        if i < len(kept) and kept[i] == v:
            out |= 1 << i
    return out


def verify_witness(g: Graph, witness) -> bool:
    """True iff no edge of ``g`` joins two witness vertices."""
    return g.is_independent(witness)


def _certify(g: Graph, witness, mis_size: int) -> None:
    """O(n + m) check that ``witness`` is an independent set of ``g`` with
    ``mis_size`` vertices; raises InternalError otherwise."""
    if len(witness) != mis_size:
        raise InternalError(
            f"witness has {len(witness)} vertices but mis_size is {mis_size}")
    if any(not 0 <= v < g.n for v in witness):
        raise InternalError("witness names a vertex outside the graph")
    if any(u in witness for v in witness for u in g.adj[v]):
        raise InternalError("witness is not an independent set")


def _component_lookup(region: Region):
    """Exact MIS of a boundary-free region: size plus one witness config."""
    size, config = _kernels.max_independent(region.width, region.local_adj_masks())
    chosen = {region.local_order[i] for i in bits(config)}
    return size, chosen


def mis_branch(g: Graph, cfg: SolveConfig | None = None) -> SolveReport:
    """Exact MIS size, witness, and branch statistics for ``g``.

    The witness is certified before returning: an independent set of
    ``g`` whose size is the reported ``mis_size``.
    """
    cfg = cfg or SolveConfig()
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 12 * g.n + 10000))
    node_counter = [0]
    started = time.perf_counter()

    def solve(graph: Graph, depth: int, keys: list, changed: int):
        """``keys`` are the region keys of ``graph``'s vertices as of an
        ancestor graph; ``changed`` masks the vertices whose adjacency differs
        from that ancestor's."""
        red = reduce_fixpoint(graph)
        kernel = red.graph
        if kernel.n == 0:
            return red.offset, red.resolve(set()), 0, depth, Counter()
        if kernel is not graph:
            keys = [keys[v] if v < graph.n else None for v in red.kept]
            changed = red.changed | _relabel(changed, red.kept)
        total = red.offset
        kernel_witness: set[int] = set()
        branches = 0
        max_depth = depth
        stats: Counter = Counter()
        parts = components(kernel)
        for comp_mask in parts:
            if len(parts) == 1:
                comp, comp_ids, comp_keys, comp_changed = kernel, range(kernel.n), keys, changed
            else:
                comp, comp_ids = induced_delete(kernel, kernel.full_mask() & ~comp_mask)
                comp_keys = [keys[v] for v in comp_ids]
                comp_changed = _relabel(changed, comp_ids)
            region = select_subgraph(comp, cfg, comp_keys, comp_changed)
            if region.boundary == 0:
                size, chosen = _component_lookup(region)
                total += size
                kernel_witness.update(comp_ids[v] for v in chosen)
                continue
            node_counter[0] += 1
            rule_seed = (cfg.seed ^ (node_counter[0] * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
            table, cands, result = optimal_rule(
                region, cfg.measure, cfg.solver_kind,
                env_pruning=cfg.env_pruning, limit=cfg.enumeration_limit,
                seed=rule_seed,
            )
            if log.isEnabledFor(logging.DEBUG):
                log.debug("node %d: depth=%d n=%d width=%d rows=%d k=%d gamma=%.6f",
                          node_counter[0], depth, comp.n, region.width, len(table),
                          len(result.rule), result.gamma)
            stats[(len(result.rule), result.gamma)] += 1
            clause_order = sorted(
                range(len(result.rule.clauses)),
                key=lambda i: (-result.branching_vector[i], i),
            )
            best_size = -1
            best_witness: set[int] = set()
            for ci in clause_order:
                clause = result.rule.clauses[ci]
                in_set = region.to_host_mask(clause.true_mask)
                removed = region.to_host_mask(clause.mask) | comp.neighbors_mask(in_set)
                child, child_ids = induced_delete(comp, removed)
                sub_size, sub_witness, sub_branches, sub_depth, sub_stats = solve(
                    child, depth + 1, [comp_keys[v] for v in child_ids],
                    _relabel(comp.neighbors_mask(removed), child_ids),
                )
                branches += sub_branches
                stats.update(sub_stats)
                max_depth = max(max_depth, sub_depth)
                size = sub_size + in_set.bit_count()
                if size > best_size:
                    best_size = size
                    best_witness = {child_ids[v] for v in sub_witness}
                    best_witness.update(bits(in_set))
            if len(result.rule) >= 2:
                branches += len(result.rule)
            total += best_size
            kernel_witness.update(comp_ids[v] for v in best_witness)
        return total, red.resolve(kernel_witness), branches, max_depth, stats

    size, witness, branch_count, max_depth, stats = solve(g, 0, [None] * g.n, g.full_mask())
    witness = frozenset(witness)
    _certify(g, witness, size)
    log.info("mis_branch: n=%d m=%d mis_size=%d branches=%d nodes=%d max_depth=%d time=%.3fs",
             g.n, g.m, size, branch_count, node_counter[0], max_depth,
             time.perf_counter() - started)
    return SolveReport(size, witness, branch_count, max_depth, node_counter[0], dict(stats))
