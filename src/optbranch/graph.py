"""Immutable graph representation and the two complexity measures.

Vertices are dense integers ``0..n-1``.  Vertex sets are plain Python ints
used as bitmasks (bit v set means vertex v is a member), which keeps
neighborhood and boundary arithmetic at O(n/64) per operation; the helpers
:func:`as_mask` and :func:`bits` convert between masks and iterables.
Graphs never mutate: deletions return a re-indexed copy plus the index map,
so derived graphs can be shared freely across search branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import InputError


def as_mask(n: int, vertices) -> int:
    """Normalize an int bitmask or an iterable of vertex ids to a bitmask."""
    if isinstance(vertices, int):
        mask = vertices
        if mask < 0 or mask >> n:
            raise InputError(f"vertex mask {mask:#x} out of range for n={n}")
        return mask
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise InputError(f"vertex id {v} out of range for n={n}")
        mask |= 1 << v
    return mask


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Measure(Enum):
    """Complexity measure rho used to size subproblems.

    VERTEX_COUNT is |V|.  EFFECTIVE_DEGREE is sum(max(0, d(v) - 2)), which is
    zero exactly on graphs of maximum degree two, where the problem is
    polynomial.  Both are monotone non-increasing under vertex deletion.
    """

    VERTEX_COUNT = "vc"
    EFFECTIVE_DEGREE = "ed"


class Graph:
    """Simple undirected graph with sorted adjacency lists and bitmask rows."""

    __slots__ = ("n", "adj", "adj_mask", "m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        neighbor_masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            neighbor_masks[u] |= 1 << v
            neighbor_masks[v] |= 1 << u
        self.n = n
        self.adj_mask = tuple(neighbor_masks)
        self.adj = tuple(tuple(bits(m)) for m in neighbor_masks)
        self.m = sum(len(a) for a in self.adj) // 2

    @classmethod
    def _from_adj(cls, adj: tuple[tuple[int, ...], ...]) -> Graph:
        """Wrap ascending, symmetric, loop-free adjacency tuples unchecked;
        for derived graphs whose rows were built from a valid graph."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        g.adj_mask = tuple([sum(map((1).__lshift__, row)) for row in adj])
        g.m = sum(map(len, adj)) // 2
        return g

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield u, v

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def neighbors_mask(self, vertices) -> int:
        """Open neighborhood N(S) as a mask."""
        s = as_mask(self.n, vertices)
        out = 0
        for v in bits(s):
            out |= self.adj_mask[v]
        return out & ~s

    def is_independent(self, vertices) -> bool:
        s = as_mask(self.n, vertices)
        for v in bits(s):
            if self.adj_mask[v] & s:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def neighbors_k(g: Graph, s, k: int, closed: bool = False) -> int:
    """k-th order neighborhood N_k(S) (or N_k[S] when ``closed``) as a mask.

    Follows the recursion N_1[S] = N[S], N_k(S) = N(N_{k-1}[S]),
    N_k[S] = N_k(S) | N_{k-1}[S].  Only the last ring N_{k-1}(S) can have
    neighbours outside N_{k-1}[S], so each step expands that ring alone.
    """
    mask = as_mask(g.n, s)
    if mask == 0:
        raise InputError("neighbors_k requires a nonempty vertex set")
    if k < 1:
        raise InputError("k must be a positive integer")
    closed_prev = open_cur = mask
    for _ in range(k):
        reach = 0
        for v in bits(open_cur):
            reach |= g.adj_mask[v]
        open_cur = reach & ~closed_prev
        closed_prev |= open_cur
    return closed_prev if closed else open_cur


def induced_delete(g: Graph, removed) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on V(g) minus ``removed``.

    Returns the re-indexed graph together with ``kept``, the ascending tuple
    of surviving original ids; new vertex i corresponds to ``kept[i]``.
    """
    gone = as_mask(g.n, removed)
    kept = tuple([v for v in range(g.n) if not gone >> v & 1])
    new_id = [-1] * g.n
    for i, old in enumerate(kept):
        new_id[old] = i
    # new ids ascend with the old ones, so every row stays sorted
    adj = tuple([
        tuple([new_id[w] for w in g.adj[old] if new_id[w] >= 0]) for old in kept
    ])
    return Graph._from_adj(adj), kept


def measure(g: Graph, m: Measure) -> int:
    if m is Measure.VERTEX_COUNT:
        return g.n
    return sum(d - 2 for d in map(len, g.adj) if d > 2)


@dataclass(frozen=True)
class Region:
    """A subgraph R of a host graph with its boundary and local index map.

    ``local_order[i]`` is the host id sitting at local bit position i; it is
    always the ascending enumeration of the region's vertices, so local
    configurations and tables are deterministic given the host labeling.
    """

    host: Graph
    vertices: int
    boundary: int
    local_order: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.local_order)

    def local_adj_masks(self) -> list[int]:
        """Adjacency of the induced subgraph, re-indexed to local positions."""
        pos = {v: i for i, v in enumerate(self.local_order)}
        masks = [0] * self.width
        for i, v in enumerate(self.local_order):
            for w in self.host.adj[v]:
                j = pos.get(w)
                if j is not None:
                    masks[i] |= 1 << j
        return masks

    def boundary_positions(self) -> tuple[int, ...]:
        """Local bit positions of the boundary vertices, ascending."""
        return tuple(i for i, v in enumerate(self.local_order) if (self.boundary >> v) & 1)

    def to_host_mask(self, local_config: int) -> int:
        """Map a local configuration to the matching host vertex mask."""
        out = 0
        for i in bits(local_config):
            out |= 1 << self.local_order[i]
        return out


def region_of(g: Graph, vertices, boundary=None) -> Region:
    """Materialize the region on ``vertices``.

    The boundary defaults to the vertices with at least one neighbor outside
    the region; pass ``boundary`` explicitly to analyze a subgraph against a
    declared (possibly hypothetical) environment instead.
    """
    mask = as_mask(g.n, vertices)
    if mask == 0:
        raise InputError("a region needs at least one vertex")
    if boundary is None:
        bnd = 0
        for v in bits(mask):
            if g.adj_mask[v] & ~mask:
                bnd |= 1 << v
    else:
        bnd = as_mask(g.n, boundary)
        if bnd & ~mask:
            raise InputError("boundary must be a subset of the region's vertices")
    return Region(g, mask, bnd, tuple(bits(mask)))
