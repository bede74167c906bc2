"""Acceptance suite: each test exercises one shipped criterion end to end and
prints a PASS line with the measured numbers (run with -s to watch them).

Timings assert the stated budgets.  The kernels are plain numpy, so nothing
is compiled or warmed up first: a timed test pays for its own first calls.
"""

import math
import time
import zlib

import numpy as np
import pytest

from optbranch.bench import BenchSpec, geometric_mean, run_bench, trial_seed
from optbranch.clauses import build_candidates, render_clause
from optbranch.engine import SolveConfig, mis_branch
from optbranch.generators import GENERATORS
from optbranch.graph import Graph, Measure, region_of
from optbranch.optimize import SolverKind, find_gamma, minimize_gamma, optimal_rule
from optbranch.setcover import WmscInstance, solve_exact, solve_lp
from optbranch.table import alpha_tensor, boundary_grouped, prune_irrelevant

from oracles import is_cover, minimize_gamma_bisection, oracle_mis, oracle_set_cover
from paper_cases import (
    BOTTLENECK_CANDIDATES, BOTTLENECK_GAMMA, BOTTLENECK_ROWS, BOTTLENECK_VECTOR,
    DOMINATION_ROWS, FIG1_ALPHA, FIG1_CANDIDATES, FIG1_GAMMA, FIG1_OPTIMAL_RULE,
    FIG1_ROWS, PH2_CANDIDATES, PH2_GAMMA, PH2_MANUAL_RULE_GAMMA, PH2_OPTIMAL_RULE,
    PH2_ROWS, bottleneck_region, domination_region, fig1_region, ph2_region,
    string_to_config, tutte_graph,
)

TUTTE_BRANCH_COUNT = 4  # observed deterministic count; must never grow


def _report(tag, detail):
    print(f"ACCEPTANCE {tag}: PASS ({detail})")


def _plain_geomean(counts):
    """exp(mean(ln b)) of the branch counts, or 0 when one of them is 0."""
    if 0 in counts:
        return 0.0
    return math.exp(sum(map(math.log, counts)) / len(counts))


def test_criterion_1_fig1_pipeline_golden():
    start = time.perf_counter()
    region = fig1_region()
    tensor = alpha_tensor(region)
    for s, want in FIG1_ALPHA.items():
        assert tensor.values[string_to_config(s)] == want
    reduced = prune_irrelevant(tensor)
    assert set(reduced.surviving()) == {string_to_config(s) for s in FIG1_ROWS}
    table = boundary_grouped(reduced)
    got_rows = {key: row for key, row in zip(table.row_keys, table.rows)}
    for s, configs in FIG1_ROWS.items():
        want = tuple(sorted(string_to_config(c) for c in configs))
        assert got_rows[string_to_config(s)] == want
    cands = build_candidates(table, region, Measure.VERTEX_COUNT)
    key_to_row = {key: i for i, key in enumerate(table.row_keys)}
    got = {(render_clause(cands.clause(i)), cands.coverage[i], cands.delta_rho[i])
           for i in range(len(cands))}
    want = set()
    for text, rows, drho in FIG1_CANDIDATES:
        cov = 0
        for s in rows:
            cov |= 1 << key_to_row[string_to_config(s)]
        want.add((text, cov, drho))
    assert got == want
    result = minimize_gamma(cands, len(table))
    assert {render_clause(c) for c in result.rule.clauses} == FIG1_OPTIMAL_RULE
    assert abs(result.gamma - FIG1_GAMMA) < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    _report("1 fig1-pipeline", f"14 candidates, gamma={result.gamma:.6f}, {elapsed*1e3:.1f} ms")


def test_criterion_2_domination_rediscovery():
    start = time.perf_counter()
    region = domination_region()
    table, cands, result = optimal_rule(region, Measure.VERTEX_COUNT)
    got_rows = {key: row for key, row in zip(table.row_keys, table.rows)}
    want_rows = {
        string_to_config(s): tuple(sorted(string_to_config(c) for c in configs))
        for s, (_, configs) in DOMINATION_ROWS.items()
    }
    assert got_rows == want_rows
    assert len(result.rule) == 1 and result.gamma == 1.0
    clause = result.rule.clauses[0]
    assert (clause.mask, clause.values) == (1, 0)  # not-w
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    _report("2 domination", f"rule ¬w, gamma=1, {elapsed*1e3:.1f} ms")


def test_criterion_3_ph2_discovery():
    start = time.perf_counter()
    region = ph2_region()
    table, cands, result = optimal_rule(region, Measure.EFFECTIVE_DEGREE)
    got_rows = {key: row for key, row in zip(table.row_keys, table.rows)}
    want_rows = {
        string_to_config(s): (string_to_config(config),)
        for s, (_, config) in PH2_ROWS.items()
    }
    assert got_rows == want_rows
    key_to_row = {key: i for i, key in enumerate(table.row_keys)}
    got = {(render_clause(cands.clause(i)), cands.coverage[i], cands.delta_rho[i])
           for i in range(len(cands))}
    want = set()
    for text, rows, drho in PH2_CANDIDATES:
        cov = 0
        for s in rows:
            cov |= 1 << key_to_row[string_to_config(s)]
        want.add((text, cov, drho))
    assert got == want
    assert len(cands) == 17
    assert {render_clause(c) for c in result.rule.clauses} == PH2_OPTIMAL_RULE
    assert tuple(result.branching_vector) == (16, 16, 16)
    assert abs(result.gamma - PH2_GAMMA) < 1e-4
    manual = find_gamma([10, 10])
    assert abs(manual - PH2_MANUAL_RULE_GAMMA) < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report("3 ph2", f"17 candidates, gamma={result.gamma:.6f}, manual {manual:.6f}, {elapsed:.2f} s")


@pytest.mark.slow
def test_criterion_4_bottleneck_case():
    start = time.perf_counter()
    region = bottleneck_region()
    table, cands, result = optimal_rule(region, Measure.EFFECTIVE_DEGREE)
    assert len(table) == BOTTLENECK_ROWS
    assert len(cands) == BOTTLENECK_CANDIDATES
    assert tuple(sorted(result.branching_vector)) == BOTTLENECK_VECTOR
    assert abs(result.gamma - BOTTLENECK_GAMMA) < 1e-4
    # from gamma = 2 four rounds take the greedy-and-swap cover, the fifth (at
    # 1.08305) an LP rounding in place of its MIP, and the sixth is the
    # proving MIP, whose optimum is not unique: the rounding's rule (1259,
    # 1879, 1926, 5894) ties with the cover below, which HiGHS's MIP returns
    # without presolve, bounded by the incumbent and without the RENS and
    # RINS heuristics (with presolve it returned the rounding's, and without
    # presolve alone (605, 647, 1259, 8478)); all have the vector
    # {10,16,26,26}, so gamma and the trail are the same
    assert result.chosen_indices == (569, 708, 1259, 8539)
    assert result.gamma_trail == (1.1032898209698043, 1.0844956788821176, 1.083084198647903,
                                  1.08305068440936, 1.081711631576666, 1.081711631576666)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("4 bottleneck", f"71 rows, 15782 candidates, gamma={result.gamma:.6f}, {elapsed:.1f} s")


def test_criterion_5_tutte_graph():
    g = tutte_graph()
    report = mis_branch(g, SolveConfig())
    assert report.mis_size == 19
    assert g.is_independent(report.witness) and len(report.witness) == 19
    assert report.branch_count <= 10
    assert report.branch_count == TUTTE_BRANCH_COUNT
    again = mis_branch(g, SolveConfig())
    assert again.branch_count == report.branch_count
    _report("5 tutte", f"mis=19, branches={report.branch_count}")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20250619)
    checked = 0
    for gen_name in ("3regular", "erdos_renyi", "kings", "grid"):
        gen = GENERATORS[gen_name]
        for trial in range(300):
            seed = trial_seed(1009, trial, zlib.crc32(gen_name.encode()) & 0xFFFF)
            if gen_name == "3regular":
                n = int(rng.integers(2, 10)) * 2
            else:
                n = int(rng.integers(4, 19))
            g = gen(n, seed, 3.0, 0.8)
            want = oracle_mis(g)
            for kind in (SolverKind.EXACT, SolverKind.LP_RELAXED):
                for meas in (Measure.VERTEX_COUNT, Measure.EFFECTIVE_DEGREE):
                    rep = mis_branch(g, SolveConfig(measure=meas, solver_kind=kind))
                    assert rep.mis_size == want, (gen_name, n, seed, kind, meas)
                    assert g.is_independent(rep.witness)
                    assert len(rep.witness) == want
            checked += 1
    elapsed = time.perf_counter() - start
    _report("6 oracle-equivalence", f"{checked} graphs x4 configs, {elapsed:.0f} s")


@pytest.mark.slow
def test_criterion_7_three_regular_scaling():
    start = time.perf_counter()
    spec = BenchSpec("3regular", (60, 80, 100, 120), trials=100, seed=24601)
    report = run_bench(spec, jobs=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    assert 1.035 <= report.fitted_gamma <= 1.055
    means = {n: round(report.geomean[n], 2) for n in spec.sizes}
    _report("7 scaling", f"fitted gamma={report.fitted_gamma:.4f}, geomeans={means}, {elapsed:.0f} s")


def _random_table(rng):
    while True:
        n = int(rng.integers(4, 11))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < float(rng.uniform(0.25, 0.55))]
        g = Graph(n, edges)
        boundary = [v for v in range(n) if rng.random() < 0.5]
        if not boundary:
            boundary = [0]
        r = region_of(g, range(n), boundary=boundary)
        table = boundary_grouped(prune_irrelevant(alpha_tensor(r)))
        cands = build_candidates(table, r, Measure.VERTEX_COUNT)
        if cands and len(table) >= 2:
            return table, cands


def test_criterion_8_fixed_point_properties():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        table, cands = _random_table(rng)
        result = minimize_gamma(cands, len(table))
        trail = result.gamma_trail
        assert len(trail) <= 20
        for earlier, later in zip(trail, trail[1:]):
            assert later <= earlier + 1e-12
        assert all(later < earlier for earlier, later in zip(trail[:-1], trail[1:-1]))
        bis = minimize_gamma_bisection(cands, len(table))
        assert abs(result.gamma - bis) <= 1e-5
    _report("8 fixed-point", "200 tables, decreasing trails, bisection within 1e-5")


def test_criterion_9_wmsc_exactness():
    rng = np.random.default_rng(31337)
    for _ in range(500):
        k = int(rng.integers(3, 16))
        universe = int(rng.integers(2, 9))
        full = (1 << universe) - 1
        sets = [int(rng.integers(1, full + 1)) for _ in range(k - 1)]
        union = 0
        for s in sets:
            union |= s
        sets.append(full & ~union if union != full else int(rng.integers(1, full + 1)))
        weights = tuple(float(w) for w in rng.uniform(0.05, 1.0, size=k))
        inst = WmscInstance(universe, tuple(sets), weights)
        want, _ = oracle_set_cover(universe, inst.sets, inst.weights)
        sol = solve_exact(inst)
        assert is_cover(sol, inst)
        assert abs(sol.objective - want) <= 1e-9
        lp = solve_lp(inst)
        assert lp.lp_bound <= want + 1e-9
    _report("9 wmsc-exactness", "500 instances vs enumeration; LP bounds hold")


@pytest.mark.slow
def test_criterion_10_lp_vs_exact_aggregate():
    n = 80
    exact_counts = []
    relaxed_counts = []
    for trial in range(100):
        seed = trial_seed(7777, n, trial)
        from optbranch.generators import three_regular

        g = three_regular(n, seed)
        exact = mis_branch(g)
        relaxed = mis_branch(g, SolveConfig(solver_kind=SolverKind.LP_RELAXED))
        assert exact.mis_size == relaxed.mis_size
        exact_counts.append(exact.branch_count)
        relaxed_counts.append(relaxed.branch_count)
    g_exact = geometric_mean(exact_counts)
    g_relaxed = geometric_mean(relaxed_counts)
    assert g_relaxed >= g_exact
    # the two solvers differ by a few branches either way on most graphs, so
    # the report shows that spread beside the geomeans of branches + 1
    pairs = list(zip(relaxed_counts, exact_counts))
    below = sum(r < e for r, e in pairs)
    above = sum(r > e for r, e in pairs)
    _report("10 lp-vs-exact",
            f"geomean ob={g_exact:.2f} <= ob_relax={g_relaxed:.2f}; plain geomeans "
            f"{_plain_geomean(exact_counts):.4f} and {_plain_geomean(relaxed_counts):.4f}; "
            f"relaxed below/equal/above exact on {below}/{len(pairs) - below - above}/{above} "
            f"graphs; branches {sum(exact_counts)} and {sum(relaxed_counts)}")
