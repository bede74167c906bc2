"""Recursive branch-and-reduce MIS solver with on-the-fly rule synthesis.

Each call reduces degree <= 2 vertices to a fixed point (taking pendants,
folding degree-2 paths), splits the irreducible kernel into connected
components, picks the second-order neighborhood with the fewest boundary
vertices, synthesizes the optimal branching rule for it, and recurses on one
subproblem per clause.  Rules with a single clause are reductions and do not
count as branches; a rule with k >= 2 clauses adds k to the branch counter.

Everything is single-threaded and deterministic: identical (graph, config)
inputs produce identical reports, including branch counts and witnesses.
"""

from __future__ import annotations

import heapq
import sys
from collections import Counter
from dataclasses import dataclass, field

from . import _kernels
from .errors import InputError, InternalError
from .graph import Graph, Measure, Region, bits, induced_delete, region_of
from .optimize import SolverKind, optimal_rule


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
    rule_stats: dict = field(compare=False)


@dataclass
class Reduction:
    """Outcome of running the degree <= 2 rewrites to a fixed point."""

    graph: Graph
    offset: int
    kept: tuple[int, ...]
    takes: list[int]
    folds: list[tuple[int, int, int, int]]

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
    rebuild a witness.  Vertices are processed smallest-id first.
    """
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    heap = [v for v in range(g.n) if len(adj[v]) <= 2]
    heapq.heapify(heap)
    takes: list[int] = []
    folds: list[tuple[int, int, int, int]] = []
    offset = 0
    next_id = g.n

    def remove(v):
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
    edges = [
        (new_id[a], new_id[b]) for a in kept for b in adj[a] if a < b
    ]
    return Reduction(Graph(len(kept), edges), offset, kept, takes, folds)


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


def select_subgraph(g: Graph, cfg: SolveConfig) -> Region:
    """Pick the branching region: the radius-``selection_radius`` closed
    neighborhood with the fewest boundary vertices, shrunk toward N[v] and
    finally {v} whenever it would exceed the enumeration limit.  Ties prefer
    fewer vertices, then the smallest anchor id."""
    if g.n == 0:
        raise InputError("cannot select a region in an empty graph")
    best_key = None
    best_mask = 0
    for v in range(g.n):
        mask = 1 << v
        grown = [mask]
        for _ in range(cfg.selection_radius):
            nxt = mask
            for u in bits(mask):
                nxt |= g.adj_mask[u]
            if nxt == mask:
                break
            mask = nxt
            grown.append(mask)
        while len(grown) > 1 and grown[-1].bit_count() > cfg.enumeration_limit:
            grown.pop()
        mask = grown[-1]
        if mask.bit_count() > cfg.enumeration_limit:
            mask = 1 << v
        boundary = 0
        for u in bits(mask):
            if g.adj_mask[u] & ~mask:
                boundary |= 1 << u
        key = (boundary.bit_count(), mask.bit_count(), v)
        if best_key is None or key < best_key:
            best_key = key
            best_mask = mask
    return region_of(g, best_mask)


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

    def solve(graph: Graph, depth: int):
        red = reduce_fixpoint(graph)
        kernel = red.graph
        if kernel.n == 0:
            return red.offset, red.resolve(set()), 0, depth, Counter()
        total = red.offset
        kernel_witness: set[int] = set()
        branches = 0
        max_depth = depth
        stats: Counter = Counter()
        for comp_mask in components(kernel):
            comp, comp_ids = induced_delete(kernel, kernel.full_mask() & ~comp_mask)
            region = select_subgraph(comp, cfg)
            if region.boundary == 0:
                size, chosen = _component_lookup(region)
                total += size
                kernel_witness.update(comp_ids[v] for v in chosen)
                continue
            node_counter[0] += 1
            rule_seed = (cfg.seed ^ (node_counter[0] * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
            _table, cands, result = optimal_rule(
                region, cfg.measure, cfg.solver_kind,
                env_pruning=cfg.env_pruning, limit=cfg.enumeration_limit,
                seed=rule_seed,
            )
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
                    child, depth + 1
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

    size, witness, branch_count, max_depth, stats = solve(g, 0)
    witness = frozenset(witness)
    _certify(g, witness, size)
    return SolveReport(size, witness, branch_count, max_depth, dict(stats))
