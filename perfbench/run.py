"""The optbranch benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload regular3 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run repeats whole rounds of the workload's operations (one ``mis_branch``
solve per graph, or one ``optimal_rule`` synthesis) for about ``--seconds``
seconds, always at least one round, checks every output with the
benchmark's own checks (``checks.py``) and prints the metrics as the last
line of standard output.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer metrics of one traced round (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ["OPTBRANCH_BACKEND"] = "numpy"

WORKLOADS = ("regular3", "kings", "er_dense", "bottleneck")
SETUP_SAMPLES = 11  # set-up children per run, after one warm-up child


def load_program():
    if not (ROOT / "src" / "optbranch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import optbranch

    return optbranch


def build(ob, workload: str):
    """The workload's inputs: (n, edges, Graph or Region) per operation."""
    import inputs

    if workload == "bottleneck":
        n, edges, width = inputs.bottleneck()
        return [(n, edges, ob.region_of(ob.Graph(n, edges), range(width)))]
    raw = {"regular3": inputs.regular3, "kings": inputs.kings,
           "er_dense": inputs.er_dense}[workload]()
    return [(n, edges, ob.Graph(n, edges)) for n, edges in raw]


def setup_only(workload: str) -> None:
    start = time.perf_counter()
    build(load_program(), workload)
    print(f"ready {time.perf_counter() - start!r}", flush=True)


def measure_setup(workload: str) -> float:
    """Median set-up time of fresh interpreters, as each one times itself.

    The first child warms the file cache and is not counted."""
    samples = []
    for _ in range(1 + SETUP_SAMPLES):
        with subprocess.Popen([sys.executable, str(Path(__file__)), "--setup-only",
                               "--workload", workload, "--seed", "0"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.read()
            code = child.wait(timeout=120)
        word, _, value = line.strip().partition(" ")
        if word != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up child exited with code {code}")
        samples.append(float(value))
    return statistics.median(samples[1:])


def operation(ob, workload: str, target):
    """One solve or synthesis, reduced to the plain values the checks read.

    The program is reached through its module attributes at call time, so
    the tracer's wrappers see the call."""
    if workload == "bottleneck":
        table, _cands, res = ob.optimize.optimal_rule(target, ob.Measure.EFFECTIVE_DEGREE)
        clauses = [(c.mask, c.values) for c in res.rule.clauses]
        return {"rows": table.rows, "row_alpha": table.row_alpha, "clauses": clauses,
                "vector": res.branching_vector, "gamma": res.gamma,
                "branches": len(clauses) if len(clauses) >= 2 else 0}
    rep = ob.engine.mis_branch(target)
    return {"mis_size": rep.mis_size, "witness": rep.witness, "branches": rep.branch_count}


def run_round(ob, workload: str, items):
    start = time.perf_counter()
    results = []
    for _n, _edges, target in items:
        try:
            results.append(operation(ob, workload, target))
        except Exception as exc:  # a raising operation counts as failed, the run goes on
            results.append({"error": f"{type(exc).__name__}: {exc}", "branches": 0})
    return time.perf_counter() - start, results


def rounds_for(ob, workload: str, items, seconds: float):
    """Whole rounds until the next one would end past ``seconds``."""
    start = time.perf_counter()
    times, all_results = [], []
    while True:
        elapsed, results = run_round(ob, workload, items)
        times.append(elapsed)
        all_results.append(results)
        if time.perf_counter() - start + elapsed > seconds:
            return times, all_results


def check_all(workload: str, items, all_results):
    """Failed operations, and whether every round gave the same answers."""
    import checks

    failed = 0
    problems = []
    if workload == "bottleneck":
        n, edges, region = items[0]
        for results in all_results:
            r = results[0]
            found = [r["error"]] if "error" in r else checks.check_bottleneck(
                n, edges, region.local_order, r["rows"], r["row_alpha"], r["clauses"],
                r["vector"], r["gamma"])
            failed += bool(found)
            problems += found
    else:
        alphas = [checks.mis_reference(n, edges) for n, edges, _g in items]
        for results in all_results:
            for (n, edges, _g), alpha, r in zip(items, alphas, results):
                found = [r["error"]] if "error" in r else checks.check_solve(
                    n, edges, alpha, r["mis_size"], r["witness"])
                failed += bool(found)
                problems += found
    keys = ("mis_size", "branches", "vector", "gamma")
    signature = [[tuple(r.get(k) for k in keys) for r in results] for results in all_results]
    deterministic = all(s == signature[0] for s in signature)
    return failed, problems, deterministic


def environment(workload: str, seed: int, ob) -> dict:
    import inputs
    import numpy
    import scipy

    return {"workload": workload, "seed": seed, "master_seed": inputs.MASTER_SEED,
            "backend": ob.BACKEND,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="optbranch benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload)
        return 0

    ob = load_program()
    import checks  # not at the top: the set-up children pay for the program only

    misses = checks.self_test()
    for line in misses:
        print("checker self-test:", line, file=sys.stderr)
    env = environment(args.workload, args.seed, ob)
    print("env", json.dumps(env), flush=True)

    setup_s = None if args.trace else measure_setup(args.workload)
    items = build(ob, args.workload)
    times, all_results = rounds_for(ob, args.workload, items, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    solve_s = statistics.median(times)
    print("rounds", json.dumps([round(t, 4) for t in times]), flush=True)

    if args.trace:
        import spans

        tracer = spans.install(ob)
        try:
            traced_s, traced_results = run_round(ob, args.workload, items)
        finally:
            tracer.unwrap()
        all_results.append(traced_results)
        report = spans.Report(tracer)
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json", env)
        for line in report.table():
            print(line)
        metrics = {name: metric(report.value(how), unit) for name, unit, how in spans.PER_LAYER}
        metrics["trace.overhead_s"] = metric(spans.overhead_s(tracer), "s")
        print(f"traced round {traced_s:.3f} s, median untraced round {solve_s:.3f} s, "
              f"tracer cost {metrics['trace.overhead_s']['value']:.4f} s", flush=True)
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "solve_s": metric(solve_s, "s"),
            # every round solves the same inputs; check_all flags rounds that differ
            "branches": metric(sum(r["branches"] for r in all_results[0]), "count"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    failed, problems, deterministic = check_all(args.workload, items, all_results)
    for line in problems[:20]:
        print("check failed:", line, file=sys.stderr)
    if not deterministic:
        print("rounds of the same inputs gave different answers", file=sys.stderr)
    attempted = sum(len(results) for results in all_results)
    print(json.dumps({"correct": not misses and deterministic, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
