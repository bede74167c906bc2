"""Benchmark harness: seeded trials, branch statistics, and gamma fitting.

Each (size, trial) pair gets a seed derived from the master seed by a
splitmix-style mixer, so trials are reproducible independently of execution
order and a ``--jobs`` worker pool cannot change any result.  Per size the
harness reports the geometric mean exp(mean(ln(branches + 1))) and the
maximum of the branch counts; the fitted branching factor is exp(slope) of
the least-squares line through (n, ln geomean).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .engine import SolveConfig, mis_branch
from .errors import InputError
from .generators import GENERATORS

# run_bench lists every (size, trial) task up front; more than this is refused
MAX_TASKS = 100_000


@dataclass(frozen=True)
class BenchSpec:
    generator: str
    sizes: tuple[int, ...]
    trials: int
    seed: int
    config: SolveConfig = field(default_factory=SolveConfig)
    avg_degree: float = 3.0
    filling: float = 0.8

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise InputError(f"unknown generator {self.generator!r}")
        if self.trials < 1:
            raise InputError("need at least one trial per size")
        if not self.sizes or list(self.sizes) != sorted(self.sizes):
            raise InputError("sizes must be a non-empty ascending list")
        if self.generator == "3regular" and any(n % 2 for n in self.sizes):
            raise InputError("3-regular sizes must be even")
        if self.trials * len(self.sizes) > MAX_TASKS:
            raise InputError(f"{self.trials} trials of {len(self.sizes)} sizes exceed "
                             f"the limit of {MAX_TASKS} solves")


@dataclass(frozen=True)
class TrialRow:
    n: int
    trial: int
    seed: int
    mis: int
    branches: int
    time_ms: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[TrialRow, ...]
    geomean: dict
    max_branches: dict
    fitted_gamma: float


def trial_seed(master: int, n: int, trial: int) -> int:
    """Stable 63-bit per-trial seed from (master seed, size, trial index)."""
    x = (master * 0x9E3779B97F4A7C15 + n * 0xBF58476D1CE4E5B9 + trial * 0x94D049BB133111EB)
    x &= 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x >> 1


def geometric_mean(branch_counts) -> float:
    logs = [math.log(b + 1.0) for b in branch_counts]
    return math.exp(sum(logs) / len(logs))


def fit_gamma(sizes, geomeans) -> float:
    """exp(slope) of ln(geomean) against n; 1.0 for branchless flat data."""
    if len(sizes) == 1:
        return 1.0 if abs(math.log(geomeans[0])) < 1e-12 else float("nan")
    slope = np.polyfit(np.asarray(sizes, float), np.log(np.asarray(geomeans, float)), 1)[0]
    return float(math.exp(slope))


def _run_one(spec: BenchSpec, n: int, trial: int) -> TrialRow:
    seed = trial_seed(spec.seed, n, trial)
    graph = GENERATORS[spec.generator](n, seed, spec.avg_degree, spec.filling)
    start = time.perf_counter()
    report = mis_branch(graph, spec.config)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return TrialRow(n, trial, seed, report.mis_size, report.branch_count, elapsed_ms)


def summarize(rows) -> tuple[dict, dict, float]:
    by_n: dict[int, list[int]] = {}
    for row in rows:
        by_n.setdefault(row.n, []).append(row.branches)
    sizes = sorted(by_n)
    geo = {n: geometric_mean(by_n[n]) for n in sizes}
    mx = {n: max(by_n[n]) for n in sizes}
    return geo, mx, fit_gamma(sizes, [geo[n] for n in sizes])


def run_bench(spec: BenchSpec, jobs: int = 1) -> BenchReport:
    """Run every (size, trial) pair, in a pool of at most ``jobs`` workers.

    The pool never outnumbers the tasks or the CPUs.
    """
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    tasks = [(n, t) for n in spec.sizes for t in range(spec.trials)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            rows = pool.starmap(_run_one, [(spec, n, t) for n, t in tasks])
    else:
        rows = [_run_one(spec, n, t) for n, t in tasks]
    geo, mx, gamma = summarize(rows)
    return BenchReport(tuple(rows), geo, mx, gamma)


CSV_HEADER = "n,trial,seed,mis,branches,time_ms"


def write_csv(report: BenchReport, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(CSV_HEADER + "\n")
        for r in report.rows:
            out.write(f"{r.n},{r.trial},{r.seed},{r.mis},{r.branches},{r.time_ms!r}\n")
        for n in sorted(report.geomean):
            out.write(f"# summary,n={n},geomean={report.geomean[n]!r},max={report.max_branches[n]}\n")
        out.write(f"# fitted_gamma,{report.fitted_gamma!r}\n")


def read_csv(path) -> BenchReport:
    rows = []
    geo = {}
    mx = {}
    gamma = float("nan")
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line == CSV_HEADER:
                continue
            if line.startswith("# summary,"):
                fields = dict(part.split("=", 1) for part in line.split(",")[1:])
                geo[int(fields["n"])] = float(fields["geomean"])
                mx[int(fields["n"])] = int(fields["max"])
            elif line.startswith("# fitted_gamma,"):
                gamma = float(line.split(",", 1)[1])
            else:
                n, trial, seed, mis, branches, time_ms = line.split(",")
                rows.append(TrialRow(int(n), int(trial), int(seed), int(mis),
                                     int(branches), float(time_ms)))
    return BenchReport(tuple(rows), geo, mx, gamma)
