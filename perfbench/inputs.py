"""Workload inputs, generated by the benchmark itself.

The generators here are the benchmark's own (a pairing model, a king's
lattice and G(n, p)), and the bottleneck host graph is a copy of the
paper's construction, so that no change to ``optbranch.generators`` or to
the tests can change a workload.  Every function returns plain edge lists;
``run.py`` turns them into ``optbranch.Graph`` objects.
"""

from __future__ import annotations

import numpy as np

# Every workload's inputs are fixed by the workload's own master seed; --seed
# does not change them (README.md, "Inputs and seeds", gives the measured reason).
MASTER_SEED = 24601
REGULAR3_N = 120
REGULAR3_GRAPHS = 6
KINGS_SIDE = 26
KINGS_FILLING = 0.8
KINGS_GRAPHS = 8
ER_N = 80
ER_DEGREE = 5.0
ER_GRAPHS = 4


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([k & 0xFFFFFFFFFFFFFFFF for k in key])


def pairing_3regular(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random simple 3-regular graph: pair 3n stubs, retry until simple."""
    stubs = np.repeat(np.arange(n), 3)
    while True:
        pairs = rng.permutation(stubs).reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        edges = {(int(min(a, b)), int(max(a, b))) for a, b in pairs}
        if len(edges) == len(pairs):
            return sorted(edges)


def kings_lattice(side: int, filling: float, rng: np.random.Generator) -> tuple[int, list[tuple[int, int]]]:
    """Sites of a side x side lattice kept with probability ``filling``,
    joined to their up to eight king-move neighbours; ids in row-major order."""
    kept = rng.random((side, side)) < filling
    ids = -np.ones((side, side), dtype=np.int64)
    ids[kept] = np.arange(int(kept.sum()))
    edges = []
    for r in range(side):
        for c in range(side):
            if not kept[r, c]:
                continue
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < side and 0 <= c2 < side and kept[r2, c2]:
                    edges.append((int(ids[r, c]), int(ids[r2, c2])))
    return int(kept.sum()), edges


def gnp(n: int, avg_degree: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """G(n, p) with p = avg_degree / (n - 1): every pair independently."""
    p = avg_degree / (n - 1)
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(iu.shape[0]) < p
    return list(zip(iu[hit].tolist(), ju[hit].tolist()))


def regular3() -> list[tuple[int, list[tuple[int, int]]]]:
    return [(REGULAR3_N, pairing_3regular(REGULAR3_N, _rng(MASTER_SEED, 0, i)))
            for i in range(REGULAR3_GRAPHS)]


def kings() -> list[tuple[int, list[tuple[int, int]]]]:
    return [kings_lattice(KINGS_SIDE, KINGS_FILLING, _rng(MASTER_SEED, 1, i))
            for i in range(KINGS_GRAPHS)]


def er_dense() -> list[tuple[int, list[tuple[int, int]]]]:
    return [(ER_N, gnp(ER_N, ER_DEGREE, _rng(MASTER_SEED, 2, i))) for i in range(ER_GRAPHS)]


def _attach_tree(edges: list[tuple[int, int]], anchor: int, n: int) -> int:
    """7-vertex binary tree hung from ``anchor``; keeps the environment cubic."""
    root, left, right = n, n + 1, n + 2
    edges += [(anchor, root), (root, left), (root, right),
              (left, n + 3), (left, n + 4), (right, n + 5), (right, n + 6)]
    return n + 7


def bottleneck() -> tuple[int, list[tuple[int, int]], int]:
    """The paper's 22-vertex bottleneck region inside its host graph.

    Hub 0 joins arm centres 1, 2, 3; each arm is centre - two mids - four
    tips with the tips cross-linked, and each of the twelve tips carries a
    tree gadget.  Returns (host vertex count, host edges, region width); the
    region is vertices 0..21.
    """
    edges = [(0, 1), (0, 2), (0, 3)]
    edges += [(2, 6), (2, 7), (6, 14), (6, 15), (7, 17), (7, 16), (14, 17), (15, 16)]
    edges += [(1, 4), (1, 5), (4, 10), (4, 11), (5, 13), (5, 12), (10, 13), (11, 12)]
    edges += [(3, 8), (3, 9), (8, 18), (8, 19), (9, 21), (9, 20), (18, 21), (19, 20)]
    n = 22
    for anchor in range(10, 22):
        n = _attach_tree(edges, anchor, n)
    return n, edges, 22
