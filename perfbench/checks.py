"""Output checks made apart from the program, and a self-test of them.

Nothing here imports ``optbranch``: each check takes plain integers, edge
lists and bitmasks, so a fault in the program cannot hide in its own
checker.  The MIS reference is a HiGHS model over edge constraints
(``scipy.optimize.milp``), a different model from the program's set covers.

Run ``python3 perfbench/checks.py`` to feed every check a corrupted answer
and confirm that it is rejected; ``run.py`` does the same before each run.
"""

from __future__ import annotations

import sys

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

# the paper's values for the 22-vertex bottleneck, as the acceptance suite pins them
PAPER_VECTOR = (10, 16, 26, 26)
PAPER_GAMMA = 1.0817
PAPER_GAMMA_TOL = 5e-5
PAPER_ROWS = 71
GAMMA_TOL = 1e-9


def mis_reference(n: int, edges) -> int:
    """Independence number from an exact HiGHS MIP: max sum x, x_u + x_v <= 1."""
    if not edges:
        return n
    rows = np.repeat(np.arange(len(edges)), 2)
    cols = np.asarray(edges, dtype=np.int64).ravel()
    a = sparse.csr_array((np.ones(len(cols)), (rows, cols)), shape=(len(edges), n))
    res = milp(-np.ones(n), integrality=np.ones(n), bounds=Bounds(0, 1),
               constraints=LinearConstraint(a, ub=1), options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"MIS reference did not solve: {res.message}")
    return int(round(-res.fun))


def check_solve(n: int, edges, alpha: int, mis_size: int, witness) -> list[str]:
    """Problems with one MIS answer: witness independence, size, optimality."""
    problems = []
    chosen = set(witness)
    if any(not 0 <= v < n for v in chosen):
        problems.append("witness names a vertex outside the graph")
    for u, v in edges:
        if u in chosen and v in chosen:
            problems.append(f"witness holds both ends of edge ({u}, {v})")
            break
    if len(chosen) != mis_size:
        problems.append(f"witness has {len(chosen)} vertices, mis_size is {mis_size}")
    if mis_size != alpha:
        problems.append(f"mis_size {mis_size} differs from the reference alpha {alpha}")
    return problems


def own_gamma(vector) -> float:
    """Root gamma >= 1 of sum(gamma^-d) = 1 by plain bisection."""
    if len(vector) == 1:
        return 1.0
    lo, hi = 1.0, 2.0
    while sum(hi ** -d for d in vector) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(mid ** -d for d in vector) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _effective_degree(adj, gone: set[int]) -> int:
    total = 0
    for v, nbrs in enumerate(adj):
        if v not in gone:
            total += max(0, len(nbrs - gone) - 2)
    return total


def clause_delta_rho(n: int, edges, local_order, mask: int, values: int) -> int:
    """Drop of sum(max(0, deg - 2)) when a clause's branch is taken on the host.

    The branch deletes the clause's variables and the neighbours of the
    variables it sets true; the drop is the measure before minus after.
    """
    adj = _adjacency(n, edges)
    gone = set()
    for i, v in enumerate(local_order):
        if (mask >> i) & 1:
            gone.add(v)
            if (values >> i) & 1:
                gone |= adj[v]
    return _effective_degree(adj, set()) - _effective_degree(adj, gone)


def check_gamma(vector, gamma) -> list[str]:
    """The paper's vector and gamma, and gamma recomputed from the vector."""
    problems = []
    if tuple(sorted(vector)) != PAPER_VECTOR:
        problems.append(f"branching vector {sorted(vector)} is not the paper's {list(PAPER_VECTOR)}")
    if abs(gamma - PAPER_GAMMA) > PAPER_GAMMA_TOL:
        problems.append(f"gamma {gamma:.7f} is not the paper's {PAPER_GAMMA}")
    mine = own_gamma(vector)
    if abs(gamma - mine) > GAMMA_TOL:
        problems.append(f"gamma {gamma!r} differs from the recomputed {mine!r}")
    return problems


def check_delta_rho(n: int, edges, local_order, clauses, vector) -> list[str]:
    """Each chosen clause's delta rho, recomputed from the host graph."""
    problems = []
    for (mask, values), d in zip(clauses, vector):
        want = clause_delta_rho(n, edges, local_order, mask, values)
        if want != d:
            problems.append(f"clause ({mask:#x}, {values:#x}) claims delta rho {d}, host gives {want}")
    return problems


def check_table(n: int, edges, local_order, rows, row_alpha) -> list[str]:
    """Every row configuration independent in the region, with its row's alpha."""
    problems = []
    pos = {v: i for i, v in enumerate(local_order)}
    local_edges = [(pos[u], pos[v]) for u, v in edges if u in pos and v in pos]
    for row, alpha in zip(rows, row_alpha):
        for cfg in row:
            if any((cfg >> a) & 1 and (cfg >> b) & 1 for a, b in local_edges):
                problems.append(f"table configuration {cfg:#x} is not independent")
            if cfg.bit_count() != alpha:
                problems.append(f"table configuration {cfg:#x} has popcount != {alpha}")
    return problems


def check_cover(rows, clauses) -> list[str]:
    """The rule covers every row: some configuration satisfies some clause."""
    for k, row in enumerate(rows):
        if not any(cfg & mask == values for cfg in row for mask, values in clauses):
            return [f"rule leaves table row {k} uncovered"]
    return []


def check_bottleneck(n: int, edges, local_order, rows, row_alpha, clauses,
                     vector, gamma) -> list[str]:
    """Problems with one rule on the bottleneck region.

    ``rows`` are the table's rows (tuples of local configurations) and
    ``clauses`` the rule's (mask, values) pairs in the order of ``vector``.
    """
    problems = []
    if len(rows) != PAPER_ROWS:
        problems.append(f"table has {len(rows)} rows, the paper's has {PAPER_ROWS}")
    return (problems
            + check_table(n, edges, local_order, rows, row_alpha)
            + check_cover(rows, clauses)
            + check_gamma(vector, gamma)
            + check_delta_rho(n, edges, local_order, clauses, vector))


# Petersen graph: outer 5-cycle, spokes, inner pentagram; alpha = 4
_PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
_PETERSEN_WITNESS = (0, 2, 8, 9)


def self_test() -> list[str]:
    """Feed each check a good and a corrupted answer; list every miss."""
    from inputs import bottleneck

    misses = []

    def expect(name, problems, ok):
        if bool(problems) == ok:
            misses.append(f"{name}: {'rejected a good' if ok else 'accepted a corrupted'} answer")

    alpha = mis_reference(10, _PETERSEN)
    if alpha != 4:
        misses.append(f"MIS reference gives alpha(Petersen) = {alpha}, not 4")
    expect("good witness", check_solve(10, _PETERSEN, 4, 4, _PETERSEN_WITNESS), True)
    swapped = (0, 2, 8, 4)  # 9 swapped for its neighbour 4, which touches 0
    expect("swapped witness vertex", check_solve(10, _PETERSEN, 4, 4, swapped), False)
    expect("alpha off by one", check_solve(10, _PETERSEN, 5, 4, _PETERSEN_WITNESS), False)

    gamma = own_gamma(PAPER_VECTOR)
    expect("paper gamma", check_gamma(PAPER_VECTOR, gamma), True)
    expect("perturbed gamma", check_gamma(PAPER_VECTOR, gamma + 1e-6), False)
    expect("wrong vector", check_gamma((10, 16, 26, 27), gamma), False)

    n, edges, width = bottleneck()
    order = tuple(range(width))
    # taking the hub deletes it and the three arm centres (1 each) and drops
    # the six mids from degree 3 to 2 (1 each): 10 by hand
    take_hub = [(1, 1)]
    expect("hub delta rho", check_delta_rho(n, edges, order, take_hub, (10,)), True)
    expect("perturbed delta rho", check_delta_rho(n, edges, order, take_hub, (11,)), False)

    rows = [(0b1,), (0b10, 0b1000)]  # {hub}; {centre 1} or {centre 3}
    expect("table", check_table(n, edges, order, rows, (1, 1)), True)
    expect("dependent configuration", check_table(n, edges, order, [(0b11,)], (2,)), False)
    expect("cover", check_cover(rows, [(0b1, 0b1), (0b1, 0)]), True)
    expect("uncovered row", check_cover(rows, [(0b1, 0b1)]), False)
    return misses


if __name__ == "__main__":
    found = self_test()
    for line in found:
        print("SELF-TEST MISS:", line)
    print("self-test:", "FAILED" if found else "every corrupted answer was rejected")
    sys.exit(1 if found else 0)
