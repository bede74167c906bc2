"""Immutable graph representation and the two complexity measures.

Vertices are integer ids.  A graph built from an edge list has the ids
``0..n-1``; a graph derived from another (by deletion or by a reduction's
folds) keeps its parent's ids, so one id names one vertex for a whole
search, and a fold vertex takes a fresh id at or above its parent's ``n``.
``Graph.n`` therefore bounds the ids rather than counting the vertices.
Vertex sets are plain Python ints used as bitmasks (bit v set means vertex v
is a member), which keeps neighborhood and boundary arithmetic at O(n/64)
per operation; the helpers :func:`as_mask` and :func:`bits` convert between
masks and iterables, and :func:`bit_matrix` lays masks out as 0/1 rows.
Graphs never mutate, so derived graphs can be shared freely across search
branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError


def _members(live: int, vertices) -> int:
    """Bitmask of ``vertices`` (an int mask or an iterable of ids), each of
    which must be in the ``live`` mask."""
    if isinstance(vertices, int):
        if vertices & ~live:
            raise InputError(f"vertex mask {vertices:#x} names a vertex not in the graph")
        return vertices
    mask = 0
    for v in vertices:
        if v < 0 or not live >> v & 1:
            raise InputError(f"vertex id {v} is not in the graph")
        mask |= 1 << v
    return mask


def as_mask(n: int, vertices) -> int:
    """Normalize an int bitmask or an iterable of ids in ``0..n-1`` to a bitmask."""
    return _members((1 << n) - 1, vertices)


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_matrix(masks, nbits: int) -> np.ndarray:
    """0/1 rows of uint8 with bit j of ``masks[i]`` at ``[i, j]``; the masks
    are Python ints below ``2**nbits``."""
    nbytes = (nbits + 7) // 8
    raw = np.frombuffer(b"".join(x.to_bytes(nbytes, "little") for x in masks), np.uint8)
    return np.unpackbits(raw.reshape(len(masks), nbytes), axis=1, count=nbits, bitorder="little")


class Measure(Enum):
    """Complexity measure rho used to size subproblems.

    VERTEX_COUNT is |V|.  EFFECTIVE_DEGREE is sum(max(0, d(v) - 2)), which is
    zero exactly on graphs of maximum degree two, where the problem is
    polynomial.  Both are monotone non-increasing under vertex deletion.
    """

    VERTEX_COUNT = "vc"
    EFFECTIVE_DEGREE = "ed"


class Graph:
    """Simple undirected graph as bitmask rows keyed by vertex id.

    ``adj_mask`` maps each live id, in ascending order, to the mask of its
    neighbours; ``vertices`` masks the live ids; every id is below ``n``.
    """

    __slots__ = ("n", "adj_mask", "vertices")

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
        self.adj_mask = dict(enumerate(neighbor_masks))
        self.vertices = (1 << n) - 1

    @classmethod
    def _derived(cls, n: int, adj_mask: dict[int, int], vertices: int) -> Graph:
        """Wrap symmetric, loop-free rows in ascending id order, unchecked;
        for graphs derived from a valid one."""
        g = cls.__new__(cls)
        g.n = n
        g.adj_mask = adj_mask
        g.vertices = vertices
        return g

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.adj_mask.values())) // 2

    def degree(self, v: int) -> int:
        return self.adj_mask[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, row in self.adj_mask.items():
            for v in bits(row >> (u + 1)):
                yield u, u + 1 + v

    def full_mask(self) -> int:
        return self.vertices

    def neighbors_mask(self, vertices) -> int:
        """Open neighborhood N(S) as a mask."""
        s = _members(self.vertices, vertices)
        out = 0
        for v in bits(s):
            out |= self.adj_mask[v]
        return out & ~s

    def is_independent(self, vertices) -> bool:
        s = _members(self.vertices, vertices)
        for v in bits(s):
            if self.adj_mask[v] & s:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj_mask == other.adj_mask

    def __hash__(self):
        return hash((self.n, tuple(self.adj_mask.items())))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def neighbors_k(g: Graph, s, k: int, closed: bool = False) -> int:
    """k-th order neighborhood N_k(S) (or N_k[S] when ``closed``) as a mask.

    Follows the recursion N_1[S] = N[S], N_k(S) = N(N_{k-1}[S]),
    N_k[S] = N_k(S) | N_{k-1}[S].  Only the last ring N_{k-1}(S) can have
    neighbours outside N_{k-1}[S], so each step expands that ring alone.
    """
    mask = _members(g.vertices, s)
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


def induced_delete(g: Graph, removed) -> Graph:
    """Induced subgraph on V(g) minus ``removed``, over the same ids."""
    gone = _members(g.vertices, removed)
    adj = {v: row & ~gone for v, row in g.adj_mask.items() if not gone >> v & 1}
    return Graph._derived(g.n, adj, g.vertices & ~gone)


def measure(g: Graph, m: Measure) -> int:
    if m is Measure.VERTEX_COUNT:
        return len(g.adj_mask)
    return sum(d - 2 for d in map(int.bit_count, g.adj_mask.values()) if d > 2)


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
        adj = self.host.adj_mask
        pos = {v: i for i, v in enumerate(self.local_order)}
        masks = [0] * self.width
        for i, v in enumerate(self.local_order):
            for w in bits(adj[v] & self.vertices):
                masks[i] |= 1 << pos[w]
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
    mask = _members(g.vertices, vertices)
    if mask == 0:
        raise InputError("a region needs at least one vertex")
    if boundary is None:
        bnd = 0
        for v in bits(mask):
            if g.adj_mask[v] & ~mask:
                bnd |= 1 << v
    else:
        bnd = _members(g.vertices, boundary)
        if bnd & ~mask:
            raise InputError("boundary must be a subset of the region's vertices")
    return Region(g, mask, bnd, tuple(bits(mask)))
