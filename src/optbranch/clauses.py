"""Clauses, DNF rules, candidate generation, and per-clause size reduction.

A clause is a conjunction of vertex literals over a region, packed into two
bitmasks: ``mask`` marks the variables that appear, ``values`` their signs
(canonical form keeps ``values`` zero outside ``mask`` so equality is plain
bit equality).  A DNF over such clauses is a branching rule: each clause
spawns one branch that fixes its literals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from string import ascii_lowercase

from .errors import DegenerateClauseError, InternalError
from .graph import Measure, Region, bits
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


def covers(c: Clause, row) -> bool:
    """True when at least one configuration in ``row`` satisfies ``c``."""
    return any(cfg & c.mask == c.values for cfg in row)


def _closure(table: BranchingTable):
    """Worklist closure over (mask, values) pairs; yields coverage alongside.

    Seeds are the singleton covers of every configuration, taken row by row.
    Popped clauses are intersected with the configurations of rows they do
    not yet cover; intersecting inside an already covered row would only
    shorten a clause without extending its coverage, so such clauses can
    never improve a rule and are not generated.  Output is in first-insertion
    order, which is deterministic.
    """
    width = table.width
    full = (1 << width) - 1
    rows = [tuple(sorted(row)) for row in table.rows]
    out: list[tuple[int, int, int]] = []
    seen: set[int] = set()
    queue: deque[tuple[int, int]] = deque()

    def push(mask, values):
        key = (mask << width) | values
        if key not in seen:
            seen.add(key)
            queue.append((mask, values))

    for row in rows:
        for cfg in row:
            push(full, cfg)
    while queue:
        mask, values = queue.popleft()
        coverage = 0
        for i, row in enumerate(rows):
            for cfg in row:
                if cfg & mask == values:
                    coverage |= 1 << i
                    break
        out.append((mask, values, coverage))
        for i, row in enumerate(rows):
            if (coverage >> i) & 1:
                continue
            for cfg in row:
                shared = mask & ~(values ^ cfg)
                if shared:
                    push(shared, values & shared)
    return out


def candidate_clauses(table: BranchingTable) -> list[Clause]:
    """Candidate clauses for valid rules over the table, in generation order."""
    return [Clause(table.width, mask, values) for mask, values, _ in _closure(table)]


def is_valid_rule(d: DNF, table: BranchingTable) -> bool:
    """True when every row of the table is covered by some clause of ``d``."""
    return all(any(covers(c, row) for c in d.clauses) for row in table.rows)


def delta_rho(c: Clause, r: Region, m: Measure) -> int:
    """Measure reduction of the branch induced by ``c`` on the region's host.

    The branch removes V(c) and the neighbors of the asserted vertices; under
    EFFECTIVE_DEGREE the degree drops of the surviving frontier (up to the
    second neighborhood of R) are part of the reduction.
    """
    host = r.host
    removed = r.to_host_mask(c.mask) | host.neighbors_mask(r.to_host_mask(c.true_mask))
    if m is Measure.VERTEX_COUNT:
        drop = removed.bit_count()
        if drop <= 0:
            raise InternalError("empty clause produced no vertex removal")
        return drop
    adj = host.adj_mask
    drop = 0
    for v in bits(removed):
        drop += max(0, adj[v].bit_count() - 2)
    for u in bits(host.neighbors_mask(removed)):
        d = adj[u].bit_count()
        lost = (adj[u] & removed).bit_count()
        drop += max(0, d - 2) - max(0, d - lost - 2)
    if drop <= 0:
        raise DegenerateClauseError(
            "clause does not reduce the effective-degree measure"
        )
    return drop


def build_candidates(table: BranchingTable, r: Region, m: Measure) -> list[CandidateClause]:
    """Attach coverage and reduction to each candidate; drop degenerate ones."""
    out = []
    for mask, values, cov in _closure(table):
        if cov == 0:
            raise InternalError("candidate clause covers no row")
        clause = Clause(table.width, mask, values)
        try:
            dr = delta_rho(clause, r, m)
        except DegenerateClauseError:
            continue
        out.append(CandidateClause(clause, cov, dr))
    return out


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
