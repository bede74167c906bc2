"""Clauses, DNF rules, candidate generation, and per-clause size reduction.

A clause is a conjunction of vertex literals over a region, packed into two
bitmasks: ``mask`` marks the variables that appear, ``values`` their signs
(canonical form keeps ``values`` zero outside ``mask`` so equality is plain
bit equality).  A DNF over such clauses is a branching rule: each clause
spawns one branch that fixes its literals.

A region's candidate layer is built in a few integer array passes: the
closure handles one generation of its worklist at a time, in blocks of
bounded size, each checked against one set of the keys seen so far
(``_closure``), and ``delta_rho`` gives the measure reduction of every
candidate at once from integer products over the host's second
neighbourhood N²[R].  Both return plain Python ints, so nothing downstream
sees a numpy scalar.
``build_candidates`` keeps the layer as parallel tuples (``Candidates``):
the set cover reads only coverage and δρ, and only the clauses a rule
keeps become ``Clause`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from string import ascii_lowercase

import numpy as np

from .errors import InternalError
from .graph import Measure, Region, bit_matrix, bits, neighbors_k
from .table import BranchingTable


@dataclass(frozen=True)
class Clause:
    width: int
    mask: int
    values: int

    def __post_init__(self):
        if self.values & ~self.mask:
            raise InternalError("clause values outside mask; not in canonical form")

    @property
    def true_mask(self) -> int:
        """Positions asserted in-set (the T(c) vertices)."""
        return self.mask & self.values


@dataclass(frozen=True)
class DNF:
    clauses: tuple[Clause, ...]

    def __len__(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class Candidates:
    """A region's candidate clauses as parallel tuples, in closure order.

    Entry i is the clause ``(masks[i], values[i])`` over the region's
    ``width`` positions, the table rows it covers (``coverage[i]``, bit j
    for row j) and its measure reduction ``delta_rho[i]``.  Only the
    clauses a rule keeps become ``Clause`` objects (``clause``).
    """

    width: int
    masks: tuple[int, ...]
    values: tuple[int, ...]
    coverage: tuple[int, ...]
    delta_rho: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)

    def clause(self, i: int) -> Clause:
        return Clause(self.width, self.masks[i], self.values[i])


def _pack_rows(matrix: np.ndarray) -> list[int]:
    """One Python int per row of a boolean matrix, bit j from column j."""
    nbytes = (matrix.shape[1] + 7) // 8
    raw = np.packbits(matrix, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(raw[i:i + nbytes], "little") for i in range(0, len(raw), nbytes)]


# (clause, configuration) pairs the closure tests at once
CLOSURE_BLOCK = 1 << 16


def _closure(table: BranchingTable) -> list[tuple[int, int, int]]:
    """Worklist closure over (mask, values) pairs, with each one's coverage.

    Seeds are the singleton covers of every configuration, taken row by row.
    Each clause is intersected with the configurations of the rows it does
    not yet cover; intersecting inside an already covered row would only
    shorten a clause without extending its coverage, so such clauses can
    never improve a rule and are not generated.  The worklist is first in,
    first out, so it is processed one generation at a time: a generation's
    clauses are tested against every (configuration, row) pair, and the next
    generation is their intersections in (clause, configuration) order, each
    kept at its first occurrence and only if never seen before.  A
    generation is taken in blocks of about ``CLOSURE_BLOCK`` pairs, each
    checked against one set of the keys seen so far, which then takes in the
    block's new keys; so the array temporaries stay the size of a block, and
    the order is the one the whole generation at once would give.  Output is
    in first-insertion order, which is deterministic.  Masks, values and
    coverages are Python ints; coverage bit i is row i.
    """
    width = table.width
    full = (1 << width) - 1
    rows = [sorted(row) for row in table.rows]
    sizes = [len(row) for row in rows]
    configs = np.array([cfg for row in rows for cfg in row], dtype=np.uint32)
    row_of = np.repeat(np.arange(len(rows)), sizes)
    # every row holds a configuration, so each row's slice is nonempty, as
    # reduceat needs
    starts = np.cumsum([0] + sizes[:-1])
    step = max(1, CLOSURE_BLOCK // configs.size)
    out: list[tuple[int, int, int]] = []
    fresh = list(dict.fromkeys(((full << width) | configs.astype(np.int64)).tolist()))
    seen = set(fresh)
    while fresh:
        level = np.array(fresh, dtype=np.int64)
        fresh = []
        for lo in range(0, level.size, step):
            block = level[lo:lo + step]
            mask = (block >> width).astype(np.uint32)
            values = (block & full).astype(np.uint32)
            hits = (configs & mask[:, None]) == values[:, None]
            coverage = np.logical_or.reduceat(hits, starts, axis=1)
            out.extend(zip(mask.tolist(), values.tolist(), _pack_rows(coverage)))
            shared = mask[:, None] & ~(values[:, None] ^ configs)
            take = ~coverage[:, row_of] & (shared != 0)
            shared = shared[take].astype(np.int64)
            kept = np.repeat(values, take.sum(axis=1)) & shared
            new = [k for k in dict.fromkeys(((shared << width) | kept).tolist()) if k not in seen]
            seen.update(new)
            fresh.extend(new)
    return out


def delta_rho(masks, values, r: Region, m: Measure) -> list[int]:
    """Measure reduction of each clause's branch on the region's host.

    ``masks`` and ``values`` hold one clause per entry, over the region's
    local positions.  A branch removes V(c) and the neighbours of its
    asserted vertices T(c); under EFFECTIVE_DEGREE the degree drops of the
    surviving vertices count too.  All of it lies in H = N²[R], so one pass
    of integer products over H serves every clause of the region:

    - removed = (M·P + T·N) > 0, with M and T the clauses' mask and true
      bits, P the local-to-H identity and N the local-to-H adjacency;
    - lost = removed·A_H counts each vertex's removed neighbours;
    - under EFFECTIVE_DEGREE the drop is the measure of H before the branch
      minus that of its surviving vertices, each now of degree d - lost;
      under VERTEX_COUNT it is the number of removed vertices.

    Returns one Python int per clause; a drop of zero or less marks a
    degenerate clause.
    """
    host = r.host
    adj = host.adj_mask
    near = neighbors_k(host, r.vertices, 2, closed=True)
    low = (near & -near).bit_length() - 1
    span = near.bit_length() - low
    offsets = np.flatnonzero(bit_matrix([near >> low], span)[0])
    ids = (offsets + low).tolist()
    adj_h = bit_matrix([(adj[v] & near) >> low for v in ids], span)[:, offsets].astype(np.int32)
    local = np.searchsorted(offsets, np.array(r.local_order) - low)
    ident = np.eye(len(ids), dtype=np.int32)[local]
    masks = np.asarray(masks, dtype=np.uint32)
    true = masks & np.asarray(values, dtype=np.uint32)
    shifts = np.arange(r.width, dtype=np.uint32)
    lits = np.concatenate([masks[:, None] >> shifts, true[:, None] >> shifts], axis=1) & 1
    removed = lits.astype(np.int32) @ np.concatenate([ident, adj_h[local]]) > 0
    if m is Measure.VERTEX_COUNT:
        return removed.sum(axis=1).tolist()
    degree = np.array([adj[v].bit_count() for v in ids], dtype=np.int32)
    lost = removed.astype(np.int32) @ adj_h
    left = np.where(removed, 0, np.maximum(degree - lost - 2, 0))
    return (np.maximum(degree - 2, 0).sum() - left.sum(axis=1)).tolist()


def build_candidates(table: BranchingTable, r: Region, m: Measure) -> Candidates:
    """The closure's clauses with their coverage and reduction, in closure
    order, less the degenerate ones (a reduction of zero or less)."""
    entries = _closure(table)
    if not entries:
        return Candidates(table.width, (), (), (), ())
    masks, values, coverage = zip(*entries)
    if 0 in coverage:
        raise InternalError("candidate clause covers no row")
    drops = delta_rho(masks, values, r, m)
    kept = [d > 0 for d in drops]
    return Candidates(table.width, *(tuple(compress(column, kept))
                                     for column in (masks, values, coverage, drops)))


def _label(i: int, width: int) -> str:
    if width <= len(ascii_lowercase):
        return ascii_lowercase[i]
    return f"v{i}"


def render_clause(c: Clause) -> str:
    parts = []
    for i in bits(c.mask):
        name = _label(i, c.width)
        parts.append(name if (c.values >> i) & 1 else f"¬{name}")
    return " ∧ ".join(parts)


def render_dnf(d: DNF) -> str:
    return " ∨ ".join(f"({render_clause(c)})" for c in d.clauses)
