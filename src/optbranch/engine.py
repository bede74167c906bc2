"""Branch-and-reduce MIS solver with on-the-fly rule synthesis.

Each search node reduces its graph to a fixed point (taking pendants,
folding degree-2 paths, deleting a vertex v whose neighbour u has N[u] a
subset of N[v]), splits the irreducible kernel into connected components,
picks the second-order neighborhood with the fewest boundary vertices,
synthesizes the optimal branching rule for it, and solves one subproblem per
clause.  The search is depth-first on an explicit stack of nodes, so its
depth is not bounded by the interpreter's recursion limit.  Rules with a
single clause are reductions and do not count as branches; a rule with
k >= 2 clauses adds k to the branch counter.

Every graph of the search keeps its parent's vertex ids, and fold vertices
take fresh ids above every id in use, so ids never renumber and no index
map is threaded through the search: witnesses speak the input's ids
(plus fold ids).  A kernel that is one component is used as it is, and a
graph with no vertex of degree <= 2 and no dominated vertex is its own
kernel, so neither is copied.

Everything is single-threaded and deterministic: identical (graph, config)
inputs produce identical reports, including branch counts and witnesses.
The ``optbranch.engine`` logger (enabled from the CLI by ``OPTBRANCH_LOG``)
gets one ``debug`` line per synthesized node and one ``info`` summary per
``mis_branch`` call, with the takes, folds and dominated deletions of every
reduction in the search.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, field

from . import _kernels
from .errors import InputError, InternalError
from .graph import Graph, Measure, Region, bits, induced_delete, region_of
from .optimize import SolverKind, optimal_rule

log = logging.getLogger(__name__)


# radius of the closed neighbourhood a branching region grows to
SELECTION_RADIUS = 2


@dataclass(frozen=True)
class SolveConfig:
    measure: Measure = Measure.EFFECTIVE_DEGREE
    solver_kind: SolverKind = SolverKind.EXACT
    env_pruning: bool = True
    seed: int = 0


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
    """Outcome of running the reductions to a fixed point.

    The kernel keeps the input's ids; its ids at or above the input's n are
    fold vertices.  ``dominated`` lists the deleted dominating vertices,
    which neither the offset nor a witness needs.
    """

    graph: Graph
    takes: list[int]
    folds: list[tuple[int, int, int, int]]
    dominated: list[int]

    @property
    def offset(self) -> int:
        """How much larger the input's MIS is than the kernel's: one per
        take and one per fold."""
        return len(self.takes) + len(self.folds)

    def resolve(self, kernel_witness) -> set[int]:
        """Map a kernel witness back through takes and folds to input ids."""
        chosen = set(kernel_witness)
        chosen.update(self.takes)
        for z, v, u, w in reversed(self.folds):
            if z in chosen:
                chosen.discard(z)
                chosen.add(u)
                chosen.add(w)
            else:
                chosen.add(v)
        return chosen


def _dominator(adj: dict[int, int], u: int):
    """The smallest neighbour v of u with N[u] a subset of N[v], or None:
    the smallest v in N(u) that lies in N[x] for every x in N(u)."""
    common = rest = adj[u]
    while common and rest:
        low = rest & -rest
        common &= adj[low.bit_length() - 1] | low
        rest ^= low
    return (common & -common).bit_length() - 1 if common else None


def reduce_fixpoint(g: Graph) -> Reduction:
    """Remove degree-0/1 vertices, fold degree-2 vertices and delete
    dominating vertices until stable.

    Folding a degree-2 vertex v with non-adjacent neighbors u, w contracts
    {u, v, w} into one fresh vertex adjacent to N({u, w}) minus the triple;
    alpha grows by one either way, and the fold record carries enough to
    rebuild a witness.  Once no degree rule applies, the smallest queued u
    with a neighbour v such that N[u] is a subset of N[v] loses its smallest
    such v: some MIS avoids v, so no record is needed.  u is queued whenever
    N[u] changes, which suffices, as the one vertex a neighbourhood can gain
    is a fold vertex.  Each rule takes the smallest id first.  A graph with
    no vertex of degree <= 2 and no dominated vertex is returned uncopied.
    """
    adj = dict(g.adj_mask)
    low_degree = sum(1 << v for v, row in adj.items() if row.bit_count() <= 2)
    work = g.vertices  # domination candidates
    takes: list[int] = []
    folds: list[tuple[int, int, int, int]] = []
    dominated: list[int] = []
    live = g.vertices
    next_id = g.n

    def remove(v):
        nonlocal live, low_degree, work
        row = adj.pop(v)
        live &= ~(1 << v)
        work |= row
        for u in bits(row):
            adj[u] &= ~(1 << v)
            if adj[u].bit_count() <= 2:
                low_degree |= 1 << u

    while low_degree or work:
        if not low_degree:
            u = (work & -work).bit_length() - 1
            work &= work - 1
            if u in adj and (v := _dominator(adj, u)) is not None:
                dominated.append(v)
                remove(v)
            continue
        v = (low_degree & -low_degree).bit_length() - 1
        low_degree &= low_degree - 1
        if v not in adj or adj[v].bit_count() > 2:
            continue
        row = adj[v]
        if row.bit_count() < 2 or adj[(row & -row).bit_length() - 1] & row:
            # v is isolated, pendant, or in a triangle: take it, drop N[v]
            takes.append(v)
            remove(v)
            for x in bits(row):
                remove(x)
        else:
            u, w = bits(row)
            z = next_id
            next_id += 1
            triple = 1 << u | 1 << v | 1 << w
            merged = (adj[u] | adj[w]) & ~triple
            for x in (v, u, w):
                for y in bits(adj.pop(x)):
                    adj[y] &= ~(1 << x)
            adj[z] = merged
            live = (live & ~triple) | 1 << z
            work |= merged | 1 << z
            for y in bits(merged):
                adj[y] |= 1 << z
                if adj[y].bit_count() <= 2:
                    low_degree |= 1 << y
            if merged.bit_count() <= 2:
                low_degree |= 1 << z
            folds.append((z, v, u, w))

    if not (takes or folds or dominated):
        return Reduction(g, takes, folds, dominated)
    return Reduction(Graph._derived(next_id, adj, live), takes, folds, dominated)


def components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, by smallest contained id."""
    rest = g.vertices
    out = []
    while rest:
        low = rest & -rest
        comp = low
        frontier = [low.bit_length() - 1]
        while frontier:
            u = frontier.pop()
            fresh = g.adj_mask[u] & ~comp
            comp |= fresh
            frontier.extend(bits(fresh))
        rest &= ~comp
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


def select_subgraph(g: Graph) -> Region:
    """Pick the branching region: the radius-``SELECTION_RADIUS`` closed
    neighborhood with the fewest boundary vertices, shrunk toward N[v] and
    finally {v} whenever it would exceed ``_kernels.ENUMERATION_LIMIT``.
    Ties prefer fewer vertices, then the smallest anchor id."""
    if not g.vertices:
        raise InputError("cannot select a region in an empty graph")
    adj_mask = g.adj_mask
    radius, limit = SELECTION_RADIUS, _kernels.ENUMERATION_LIMIT
    regions = {v: _region(adj_mask, v, radius, limit) for v in adj_mask}
    best = min(regions, key=lambda v: (regions[v][1], regions[v][0].bit_count()))
    return region_of(g, regions[best][0])


def _certify(g: Graph, witness, mis_size: int) -> None:
    """Check that ``witness`` is an independent set of ``g`` with
    ``mis_size`` vertices; raises InternalError otherwise."""
    if len(witness) != mis_size:
        raise InternalError(
            f"witness has {len(witness)} vertices but mis_size is {mis_size}")
    if any(v not in g.adj_mask for v in witness):
        raise InternalError("witness names a vertex outside the graph")
    if not g.is_independent(witness):
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
    nodes = branches = max_depth = 0
    stats: Counter = Counter()
    reductions: Counter = Counter()
    started = time.perf_counter()

    def solve(graph: Graph):
        """Search node for ``graph``: yields each child graph, is sent that
        child's (size, witness), and returns its own (size, witness)."""
        nonlocal nodes, branches
        red = reduce_fixpoint(graph)
        reductions.update(takes=len(red.takes), folds=len(red.folds),
                          dominated=len(red.dominated))
        kernel = red.graph
        if not kernel.vertices:
            return red.offset, red.resolve(())
        total = red.offset
        kernel_witness: set[int] = set()
        parts = components(kernel)
        for comp_mask in parts:
            if len(parts) == 1:
                comp = kernel
            else:
                comp = induced_delete(kernel, kernel.vertices & ~comp_mask)
            region = select_subgraph(comp)
            if region.boundary == 0:
                size, chosen = _component_lookup(region)
                total += size
                kernel_witness.update(chosen)
                continue
            nodes += 1
            rule_seed = (cfg.seed ^ (nodes * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
            table, cands, result = optimal_rule(
                region, cfg.measure, cfg.solver_kind,
                env_pruning=cfg.env_pruning, seed=rule_seed,
            )
            if log.isEnabledFor(logging.DEBUG):
                log.debug("node %d: depth=%d n=%d width=%d rows=%d k=%d gamma=%.6f",
                          nodes, len(stack) - 1, len(comp.adj_mask), region.width, len(table),
                          len(result.rule), result.gamma)
            stats[(len(result.rule), result.gamma)] += 1
            if len(result.rule) >= 2:
                branches += len(result.rule)
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
                child = induced_delete(comp, removed)
                sub_size, sub_witness = yield child
                size = sub_size + in_set.bit_count()
                if size > best_size:
                    best_size = size
                    best_witness = sub_witness
                    best_witness.update(bits(in_set))
            total += best_size
            kernel_witness.update(best_witness)
        return total, red.resolve(kernel_witness)

    stack = [solve(g)]  # open nodes, root first; max_depth is its height - 1
    reply = None
    while stack:
        try:
            child = stack[-1].send(reply)
        except StopIteration as done:
            stack.pop()
            reply = done.value
        else:
            stack.append(solve(child))
            max_depth = max(max_depth, len(stack) - 1)
            reply = None
    size, witness = reply
    witness = frozenset(witness)
    _certify(g, witness, size)
    log.info("mis_branch: n=%d m=%d mis_size=%d branches=%d nodes=%d max_depth=%d "
             "takes=%d folds=%d dominated=%d time=%.3fs",
             len(g.adj_mask), g.m, size, branches, nodes, max_depth, reductions["takes"],
             reductions["folds"], reductions["dominated"], time.perf_counter() - started)
    return SolveReport(size, witness, branches, max_depth, nodes, dict(stats))
