"""Command-line interface: solve, discover, and bench subcommands."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from .bench import BenchSpec, run_bench, write_csv
from .clauses import render_clause, render_dnf
from .engine import SolveConfig, mis_branch
from .errors import CapacityError, InfeasibleError, InputError, OptBranchError
from .graph import Measure, bits, region_of
from .io import MAX_VERTICES, parse_graph
from .optimize import SolverKind, optimal_rule

log = logging.getLogger("optbranch")

_MEASURES = {"vc": Measure.VERTEX_COUNT, "ed": Measure.EFFECTIVE_DEGREE}


def _setup_logging():
    level = os.environ.get("OPTBRANCH_LOG", "off").strip().lower()
    if level == "info":
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    elif level == "debug":
        logging.basicConfig(level=logging.DEBUG, format="%(levelname)s %(message)s")
    elif level not in ("", "off"):
        raise InputError(f"OPTBRANCH_LOG must be off, info, or debug, got {level!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optbranch",
        description="Exact maximum-independent-set solving with synthesized optimal branching rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a graph file exactly")
    solve.add_argument("file")
    solve.add_argument("--format", choices=["edgelist", "dimacs"], default="edgelist")
    solve.add_argument("--lp", action="store_true", help="use the LP-relaxed rule selector")
    solve.add_argument("--no-env-pruning", action="store_true")
    solve.add_argument("--measure", choices=["vc", "ed"], default="ed")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--seed", type=int, default=0)

    discover = sub.add_parser("discover", help="synthesize the optimal rule for a region")
    discover.add_argument("file")
    discover.add_argument("--format", choices=["edgelist", "dimacs"], default="edgelist")
    discover.add_argument("--region", required=True,
                          help="comma-separated region vertices (1-based ids or letters)")
    discover.add_argument("--boundary",
                          help="declared boundary vertices; default: computed from the host")
    discover.add_argument("--measure", choices=["vc", "ed"], default="vc")
    discover.add_argument("--lp", action="store_true")
    env = discover.add_mutually_exclusive_group()
    env.add_argument("--env-pruning", dest="env_pruning", action="store_true", default=None,
                     help="force pruning against the concrete host environment")
    env.add_argument("--no-env-pruning", dest="env_pruning", action="store_false",
                     help="treat the boundary as hypothetical even inside a larger host")
    discover.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser("bench", help="run the branch-count benchmark")
    bench.add_argument("--gen", required=True, choices=["3regular", "erdos_renyi", "kings", "grid"])
    bench.add_argument("--sizes", required=True, help="a:b:step (inclusive) or comma list")
    bench.add_argument("--trials", type=int, default=100)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--lp", action="store_true")
    bench.add_argument("--measure", choices=["vc", "ed"], default="ed")
    bench.add_argument("--no-env-pruning", action="store_true")
    bench.add_argument("--avg-degree", type=float, default=3.0)
    bench.add_argument("--filling", type=float, default=0.8)
    return parser


def _parse_vertex_token(token: str, n: int) -> int:
    token = token.strip()
    if not token:
        raise InputError("empty vertex token")
    if token.isdigit():
        v = int(token)
    elif len(token) == 1 and token.isalpha():
        v = ord(token.lower()) - ord("a") + 1
    else:
        raise InputError(f"cannot parse vertex token {token!r}")
    if not 1 <= v <= n:
        raise InputError(f"vertex {token!r} outside 1..{n}")
    return v - 1


def _parse_vertex_list(text: str, n: int) -> list[int]:
    return [_parse_vertex_token(t, n) for t in text.split(",")]


def _check_size_limit(largest: int) -> None:
    if largest > MAX_VERTICES:
        raise InputError(f"size {largest} exceeds the limit of {MAX_VERTICES} vertices")


def _parse_sizes(text: str) -> tuple[int, ...]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError(f"--sizes wants a:b:step, got {text!r}")
        try:
            a, b, step = (int(p) for p in parts)
        except ValueError:
            raise InputError(f"non-integer size in {text!r}")
        if step <= 0 or b < a:
            raise InputError(f"bad size range {text!r}")
        _check_size_limit(b)
        return tuple(range(a, b + 1, step))
    try:
        sizes = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse sizes {text!r}")
    _check_size_limit(max(sizes))
    return sizes


def _solver(args) -> SolverKind:
    return SolverKind.LP_RELAXED if args.lp else SolverKind.EXACT


def _config(args) -> SolveConfig:
    """The search configuration of ``solve`` and ``bench`` (bench replaces
    the seed per trial)."""
    return SolveConfig(measure=_MEASURES[args.measure], solver_kind=_solver(args),
                       env_pruning=not args.no_env_pruning, seed=args.seed)


def _cmd_solve(args) -> int:
    graph = parse_graph(args.file, args.format)
    log.info("loaded %s: n=%d m=%d", args.file, graph.n, graph.m)
    start = time.perf_counter()
    report = mis_branch(graph, _config(args))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if args.json:
        print(json.dumps({"mis_size": report.mis_size,
                          "branch_count": report.branch_count,
                          "node_count": report.node_count,
                          "time_ms": elapsed_ms}))
    else:
        print(f"mis_size={report.mis_size} branches={report.branch_count}")
    return 0


def _cmd_discover(args) -> int:
    graph = parse_graph(args.file, args.format)
    vertices = _parse_vertex_list(args.region, graph.n)
    boundary = _parse_vertex_list(args.boundary, graph.n) if args.boundary else None
    region = region_of(graph, vertices, boundary)
    measure = _MEASURES[args.measure]
    try:
        table, cands, result = optimal_rule(
            region, measure, _solver(args), env_pruning=args.env_pruning, seed=args.seed,
        )
    except InfeasibleError as exc:
        # an input property, not a bug: the search itself never meets it, as
        # its kernels have minimum degree 3
        name = measure.name.lower().replace("_", " ")
        raise InputError(f"no branching rule on this region reduces the {name} "
                         f"(--measure {args.measure}): {exc}") from exc
    width = table.width
    print(f"branching table ({len(table)} rows, width {width}):")
    for key, alpha, row in zip(table.row_keys, table.row_alpha, table.rows):
        configs = ", ".join(format(c, f"0{width}b")[::-1] for c in row)
        print(f"  row {key:>4}  alpha={alpha}  {{{configs}}}")
    print(f"candidate clauses ({len(cands)}):")
    for i in range(len(cands)):
        rows = [j + 1 for j in bits(cands.coverage[i])]
        print(f"  {i + 1:>4}  J={rows}  drho={cands.delta_rho[i]}  {render_clause(cands.clause(i))}")
    print(f"selected_ids: {[i + 1 for i in result.chosen_indices]}")
    print(f"optimal_rule: {render_dnf(result.rule)}")
    print(f"branching_vector: {list(result.branching_vector)}")
    print(f"γ: {result.gamma}")
    return 0


def _cmd_bench(args) -> int:
    spec = BenchSpec(
        generator=args.gen,
        sizes=_parse_sizes(args.sizes),
        trials=args.trials,
        seed=args.seed,
        config=_config(args),
        avg_degree=args.avg_degree,
        filling=args.filling,
    )
    report = run_bench(spec, jobs=args.jobs)
    write_csv(report, args.out)
    for n in sorted(report.geomean):
        print(f"n={n} geomean_branches={report.geomean[n]:.4f} max={report.max_branches[n]}")
    print(f"fitted_gamma={report.fitted_gamma:.4f}")
    print(f"report written to {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        _setup_logging()
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        log.debug("arguments: %s", args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "discover":
            return _cmd_discover(args)
        return _cmd_bench(args)
    except (InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OptBranchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
