"""Clauses, DNF rules, candidate generation, and per-clause size reduction.

A clause is a conjunction of vertex literals over a region, packed into two
bitmasks: ``mask`` marks the variables that appear, ``values`` their signs
(canonical form keeps ``values`` zero outside ``mask`` so equality is plain
bit equality).  A DNF over such clauses is a branching rule: each clause
spawns one branch that fixes its literals.

A region's candidate layer is built in a few integer array passes: the
closure handles one generation of its worklist at a time (``_closure``),
and ``delta_rho`` gives the measure reduction of every candidate at once
from integer products over the host's second neighbourhood N²[R].  Both
return plain Python ints, so nothing downstream sees a numpy scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
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
class CandidateClause:
    """A clause plus its row coverage and measure reduction."""

    clause: Clause
    coverage: int
    delta_rho: int


def single_cover(config: int, width: int) -> Clause:
    """The full-width clause satisfied exactly by ``config``."""
    return Clause(width, (1 << width) - 1, config)


def intersection(a: Clause, b: Clause) -> Clause | None:
    """Clause keeping the literals shared by both inputs, or None if none.

    Any configuration satisfying either input satisfies the result, and no
    longer clause has that property.
    """
    if a.width != b.width:
        raise InternalError("clause widths differ")
    mask = a.mask & b.mask & ~(a.values ^ b.values)
    if mask == 0:
        return None
    return Clause(a.width, mask, a.values & mask)


def _pack_rows(matrix: np.ndarray) -> list[int]:
    """One Python int per row of a boolean matrix, bit j from column j."""
    nbytes = (matrix.shape[1] + 7) // 8
    raw = np.packbits(matrix, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(raw[i:i + nbytes], "little") for i in range(0, len(raw), nbytes)]


def _unseen(seen: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The keys not in ``seen``, each once, in order of first occurrence."""
    pool = np.concatenate([seen, keys])
    _, first = np.unique(pool, return_index=True)
    return pool[np.sort(first[first >= seen.size])]


def _closure(table: BranchingTable) -> list[tuple[int, int, int]]:
    """Worklist closure over (mask, values) pairs, with each one's coverage.

    Seeds are the singleton covers of every configuration, taken row by row.
    Each clause is intersected with the configurations of the rows it does
    not yet cover; intersecting inside an already covered row would only
    shorten a clause without extending its coverage, so such clauses can
    never improve a rule and are not generated.  The worklist is first in,
    first out, so it is processed one generation at a time: a generation's
    clauses are tested against every (configuration, row) pair at once, and
    the next generation is their intersections in (clause, configuration)
    order, each kept at its first occurrence and only if never seen before.
    Output is in first-insertion order, which is deterministic.  Masks,
    values and coverages are Python ints; coverage bit i is row i.
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
    out: list[tuple[int, int, int]] = []
    seen = np.empty(0, dtype=np.int64)
    level = _unseen(seen, (full << width) | configs.astype(np.int64))
    while level.size:
        seen = np.concatenate([seen, level])
        mask = (level >> width).astype(np.uint32)
        values = (level & full).astype(np.uint32)
        hits = (configs & mask[:, None]) == values[:, None]
        coverage = np.logical_or.reduceat(hits, starts, axis=1)
        out.extend(zip(mask.tolist(), values.tolist(), _pack_rows(coverage)))
        shared = mask[:, None] & ~(values[:, None] ^ configs)
        take = ~coverage[:, row_of] & (shared != 0)
        shared = shared[take].astype(np.int64)
        kept = np.repeat(values, take.sum(axis=1)) & shared
        level = _unseen(seen, (shared << width) | kept)
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


def build_candidates(table: BranchingTable, r: Region, m: Measure) -> list[CandidateClause]:
    """Attach coverage and reduction to each candidate; drop degenerate ones."""
    entries = _closure(table)
    if not entries:
        return []
    masks, values, coverage = zip(*entries)
    if 0 in coverage:
        raise InternalError("candidate clause covers no row")
    drops = delta_rho(masks, values, r, m)
    return [
        CandidateClause(Clause(table.width, mask, vals), cov, drop)
        for mask, vals, cov, drop in zip(masks, values, coverage, drops)
        if drop > 0
    ]


def _label(i: int, width: int) -> str:
    if width <= len(ascii_lowercase):
        return ascii_lowercase[i]
    return f"v{i}"


def render_clause(c: Clause, names=None) -> str:
    parts = []
    for i in bits(c.mask):
        name = names[i] if names else _label(i, c.width)
        parts.append(name if (c.values >> i) & 1 else f"¬{name}")
    return " ∧ ".join(parts)


def render_dnf(d: DNF, names=None) -> str:
    return " ∨ ".join(f"({render_clause(c, names)})" for c in d.clauses)
