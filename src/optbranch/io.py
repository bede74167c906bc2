"""Edge-list and DIMACS graph readers.

Edge-list grammar: one ``u v`` pair per line, 1-based ids, ``#`` starts a
comment; a line holding a single integer declares the vertex count, which is
how edgeless vertices (and whole edgeless graphs) are expressed.  DIMACS
grammar: ``c`` comments, one ``p edge <n> <m>`` header, then ``e u v`` lines.
Both readers deduplicate edges and reject self-loops, and both reject a
vertex id or count above :data:`MAX_VERTICES` before anything is allocated.
They read the file a line at a time into one neighbour mask per vertex, so
a file of any length takes no more memory than the graph it describes.  A
file that cannot be opened or is not UTF-8 text raises ``InputError``.
"""

from __future__ import annotations

from .errors import InputError
from .graph import Graph

# A Graph keeps one n-bit neighbour mask per vertex, so a hostile file naming
# a vertex near 10**9 would ask for gigabytes.  At this bound the masks of any
# graph stay below n * n / 8 bytes = 12.5 MB, while the bound sits far above
# the few hundred vertices the exact solver is benchmarked on.
MAX_VERTICES = 10_000


def _check_size(lineno: int, what: str, value: int) -> None:
    if value > MAX_VERTICES:
        raise InputError(f"line {lineno}: {what} {value} exceeds the limit of {MAX_VERTICES} vertices")


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _add_edge(masks: list[int], u: int, v: int) -> None:
    """OR the edge between 1-based ids u and v into ``masks``, which grows
    to hold both; an edge already there leaves the masks as they were."""
    masks.extend([0] * (max(u, v) - len(masks)))
    masks[u - 1] |= 1 << (v - 1)
    masks[v - 1] |= 1 << (u - 1)


def _graph(n: int, masks: list[int]) -> Graph:
    masks.extend([0] * (n - len(masks)))
    return Graph._derived(n, dict(enumerate(masks)), (1 << n) - 1)


def _parse_edgelist(lines) -> Graph:
    declared = 0
    masks: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        text = _strip(raw)
        if not text:
            continue
        parts = text.split()
        if len(parts) == 1:
            try:
                count = int(parts[0])
            except ValueError:
                raise InputError(f"line {lineno}: expected a vertex count, got {parts[0]!r}")
            if count < 0:
                raise InputError(f"line {lineno}: vertex count must be non-negative")
            _check_size(lineno, "vertex count", count)
            declared = max(declared, count)
            continue
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer vertex id in {text!r}")
        if u < 1 or v < 1:
            raise InputError(f"line {lineno}: vertex ids are 1-based")
        _check_size(lineno, "vertex id", max(u, v))
        if u == v:
            raise InputError(f"line {lineno}: self-loop at vertex {u}")
        if declared and (u > declared or v > declared):
            raise InputError(f"line {lineno}: vertex id above declared count {declared}")
        _add_edge(masks, u, v)
    return _graph(max(declared, len(masks)), masks)


def _parse_dimacs(lines) -> Graph:
    n = None
    masks: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("c"):
            continue
        parts = text.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise InputError(f"line {lineno}: malformed problem line {text!r}")
            if n is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise InputError(f"line {lineno}: malformed problem line {text!r}")
            if n < 0:
                raise InputError(f"line {lineno}: vertex count must be non-negative")
            _check_size(lineno, "vertex count", n)
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before 'p edge' header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected 'e u v', got {text!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise InputError(f"line {lineno}: non-integer vertex id in {text!r}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"line {lineno}: vertex id outside 1..{n}")
            if u == v:
                raise InputError(f"line {lineno}: self-loop at vertex {u}")
            _add_edge(masks, u, v)
        else:
            raise InputError(f"line {lineno}: unrecognized line {text!r}")
    if n is None:
        raise InputError("missing 'p edge' header")
    return _graph(n, masks)


def parse_graph(path, fmt: str = "edgelist") -> Graph:
    """Read a graph file in the given format ('edgelist' or 'dimacs')."""
    if fmt not in ("edgelist", "dimacs"):
        raise InputError(f"unknown graph format {fmt!r}")
    parse = _parse_edgelist if fmt == "edgelist" else _parse_dimacs
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
