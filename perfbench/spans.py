"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces the module-level names through which one layer of
``optbranch`` calls the next with wrappers that record a span (name, start,
end, parent) and a few counts.  Spans stay in memory until the run ends.
A layer's self time is a span's duration minus the durations of the spans
nested in it, summed over the layer's spans.  A wrapped name that the
program no longer has is reported as "not traced", never as zero.
"""

from __future__ import annotations

import json
import statistics
import time
import types
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        # one span per index; flat arrays, so recording allocates no objects
        # for the garbage collector to walk
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, or -1
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.width_max = 0
        self.instances: set = set()
        self.missing: set[str] = set()
        self.after_s = 0.0  # time spent in the count callbacks
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``;
        ``after(tracer, args, result)`` may add counts once the call returns."""
        target = getattr(module, attr, None)
        if target is None:
            self.missing.add(name)
            return
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = target(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                begin = clock()
                after(self, args, result)
                self.after_s += clock() - begin
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, target))

    def unwrap(self) -> None:
        for module, attr, target in reversed(self._saved):
            setattr(module, attr, target)
        self._saved.clear()

    def spans(self):
        """(name, start, end, parent) per span, in the order they began."""
        return zip(self.names, self.starts, self.ends, self.parents)

    def write(self, path, header: dict) -> None:
        """Write every span once, at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({**header, "fields": ["name", "start", "end", "parent"],
                       "spans": list(self.spans()), "counts": dict(self.counts)}, out)


def _kernel_counts(kind: str):
    def after(tracer, args, _result):
        width = args[0]
        tracer.counts[f"kernels.{kind}.configs"] += 1 << width
        tracer.width_max = max(tracer.width_max, width)
        if kind == "config_scan":
            # indep (bool), pop (uint8) and key (uint32) per configuration,
            # plus the int32 alpha table per boundary key
            rank = len(args[2])
            tracer.counts["kernels.config_scan.bytes"] += 6 * (1 << width) + 4 * (1 << rank)
    return after


def _rule_counts(tracer, _args, result):
    table, _cands, rule = result
    tracer.counts["table.rows"] += len(table)
    tracer.counts["clauses.chosen"] += len(rule.rule)


def _closure_counts(tracer, _args, result):
    tracer.counts["clauses.candidates"] += len(result)


def _instance_counts(tracer, args, _result):
    inst = args[0]
    key = (inst.universe_size, inst.sets, inst.weights)
    tracer.counts["setcover.solve_exact.repeats"] += key in tracer.instances
    tracer.instances.add(key)


def _mip_counts(tracer, args, _result):
    """HiGHS solves and their columns: the sets lighter than the incumbent,
    counted only when together they cover the universe, as ``_mip_cover``
    returns the incumbent without a solve otherwise."""
    covs, weights, universe, incumbent = args
    keep = [j for j, w in enumerate(weights) if w < incumbent[0]]
    union = 0
    for j in keep:
        union |= covs[j]
    if union == (1 << universe) - 1:
        tracer.counts["setcover.mip.solves"] += 1
        tracer.counts["setcover.mip.columns"] += len(keep)


def span_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare one,
    both with two arguments, the median over ``repeats`` timings of ``calls``
    calls each."""
    def noop(a, b):
        return None

    holder = types.SimpleNamespace(noop=noop)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        tracer.wrap(holder, "noop", "noop")
        traced = holder.noop
        tracer.unwrap()
        start = clock()
        for i in range(calls):
            noop(i, holder)
        bare = clock() - start
        start = clock()
        for i in range(calls):
            traced(i, holder)
        costs.append((clock() - start - bare) / calls)
    return statistics.median(costs)


def overhead_s(tracer: Tracer) -> float:
    """The tracer's own cost in a traced round: the spans it recorded times
    the cost of one span, plus the time its count callbacks took."""
    return len(tracer.names) * span_cost() + tracer.after_s


def install(ob) -> Tracer:
    """Wrap the layer boundaries of the imported ``optbranch`` package."""
    t = Tracer()
    engine, optimize, clauses, setcover, kernels = (
        ob.engine, ob.optimize, ob.clauses, ob.setcover, ob._kernels)
    t.wrap(engine, "mis_branch", "engine.mis_branch")
    t.wrap(engine, "reduce_fixpoint", "engine.reduce")
    t.wrap(engine, "components", "engine.components")
    t.wrap(engine, "select_subgraph", "engine.select")
    t.wrap(engine, "_component_lookup", "engine.component_lookup")
    t.wrap(engine, "induced_delete", "graph.induced_delete")
    t.wrap(engine, "optimal_rule", "optimize.optimal_rule", _rule_counts)
    t.wrap(optimize, "optimal_rule", "optimize.optimal_rule", _rule_counts)
    t.wrap(optimize, "alpha_tensor", "table.alpha_tensor")
    t.wrap(optimize, "prune_irrelevant", "table.prune_irrelevant")
    t.wrap(optimize, "prune_by_environment", "table.prune_by_environment")
    t.wrap(optimize, "boundary_grouped", "table.boundary_grouped")
    t.wrap(optimize, "build_candidates", "clauses.build_candidates")
    t.wrap(optimize, "minimize_gamma", "optimize.minimize_gamma")
    t.wrap(optimize, "find_gamma", "optimize.find_gamma")
    t.wrap(optimize, "solve_exact", "setcover.solve_exact", _instance_counts)
    t.wrap(clauses, "_closure", "clauses.closure", _closure_counts)
    t.wrap(clauses, "delta_rho", "clauses.delta_rho")
    t.wrap(setcover, "_bnb_python", "setcover.bnb")
    t.wrap(setcover, "_mip_cover", "setcover.mip", _mip_counts)
    t.wrap(kernels, "config_scan", "kernels.config_scan", _kernel_counts("config_scan"))
    t.wrap(kernels, "max_independent", "kernels.max_independent", _kernel_counts("max_independent"))
    return t


LAYERS = ("engine", "graph", "table", "kernels", "clauses", "optimize", "setcover")

# (metric, unit, how it is computed); "calls"/"self_s" read the span of that name
PER_LAYER = [
    ("engine.rules", "count", ("calls", "optimize.optimal_rule")),
    ("engine.reduce.calls", "count", ("calls", "engine.reduce")),
    ("engine.reduce.self_s", "s", ("self_s", "engine.reduce")),
    ("engine.select.calls", "count", ("calls", "engine.select")),
    ("engine.select.self_s", "s", ("self_s", "engine.select")),
    ("engine.components.self_s", "s", ("self_s", "engine.components")),
    ("engine.component_lookup.calls", "count", ("calls", "engine.component_lookup")),
    ("engine.component_lookup.self_s", "s", ("self_s", "engine.component_lookup")),
    ("graph.induced_delete.calls", "count", ("calls", "graph.induced_delete")),
    ("graph.induced_delete.self_s", "s", ("self_s", "graph.induced_delete")),
    ("table.alpha_tensor.self_s", "s", ("self_s", "table.alpha_tensor")),
    ("table.prune_irrelevant.self_s", "s", ("self_s", "table.prune_irrelevant")),
    ("table.boundary_grouped.self_s", "s", ("self_s", "table.boundary_grouped")),
    ("table.prune_by_environment.self_s", "s", ("self_s", "table.prune_by_environment")),
    ("table.prune_by_environment.mis_calls", "count",
     ("child_calls", "table.prune_by_environment", "kernels.max_independent")),
    ("table.rows", "count", ("count", "table.rows", "optimize.optimal_rule")),
    ("kernels.config_scan.calls", "count", ("calls", "kernels.config_scan")),
    ("kernels.config_scan.self_s", "s", ("self_s", "kernels.config_scan")),
    ("kernels.config_scan.configs", "count", ("count", "kernels.config_scan.configs", "kernels.config_scan")),
    ("kernels.config_scan.bytes", "B", ("count", "kernels.config_scan.bytes", "kernels.config_scan")),
    ("kernels.width_max", "vertices", ("width_max",)),
    ("kernels.max_independent.calls", "count", ("calls", "kernels.max_independent")),
    ("kernels.max_independent.self_s", "s", ("self_s", "kernels.max_independent")),
    ("kernels.max_independent.configs", "count",
     ("count", "kernels.max_independent.configs", "kernels.max_independent")),
    ("clauses.closure.self_s", "s", ("self_s", "clauses.closure")),
    ("clauses.candidates", "count", ("count", "clauses.candidates", "clauses.closure")),
    ("clauses.delta_rho.calls", "count", ("calls", "clauses.delta_rho")),
    ("clauses.delta_rho.self_s", "s", ("self_s", "clauses.delta_rho")),
    ("clauses.chosen_ratio", "ratio", ("ratio", "clauses.chosen", "clauses.candidates")),
    ("optimize.optimal_rule.p50_ms", "ms", ("p50_ms", "optimize.optimal_rule")),
    ("optimize.gamma_rounds", "count",
     ("child_calls", "optimize.minimize_gamma", "setcover.solve_exact")),
    ("optimize.minimize_gamma.self_s", "s", ("self_s", "optimize.minimize_gamma")),
    ("optimize.find_gamma.self_s", "s", ("self_s", "optimize.find_gamma")),
    ("setcover.solve_exact.calls", "count", ("calls", "setcover.solve_exact")),
    ("setcover.solve_exact.self_s", "s", ("self_s", "setcover.solve_exact")),
    ("setcover.solve_exact.repeat_ratio", "ratio",
     ("ratio", "setcover.solve_exact.repeats", "setcover.solve_exact")),
    ("setcover.certified.calls", "count", ("certified",)),
    ("setcover.certified_ratio", "ratio", ("certified_ratio",)),
    ("setcover.bnb.calls", "count", ("calls", "setcover.bnb")),
    ("setcover.bnb.self_s", "s", ("self_s", "setcover.bnb")),
    ("setcover.mip.calls", "count", ("count", "setcover.mip.solves", "setcover.mip")),
    ("setcover.mip.self_s", "s", ("self_s", "setcover.mip")),
    ("setcover.mip.columns", "count", ("count", "setcover.mip.columns", "setcover.mip")),
]


class Report:
    """Per-span-name calls, self time and durations of one traced round."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        spans = list(tracer.spans())
        self_time = [end - start for _name, start, end, _parent in spans]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.child_calls: Counter = Counter()
        for name, start, end, parent in spans:
            if parent >= 0:
                self_time[parent] -= end - start
                self.child_calls[(spans[parent][0], name)] += 1
        for (name, start, end, _parent), own in zip(spans, self_time):
            self.calls[name] += 1
            self.self_s[name] += own
            self.durations[name].append(end - start)
        self.total_s = sum(self.self_s.values())

    def traced(self, *names) -> bool:
        return not any(n in self.tracer.missing for n in names)

    def value(self, how):
        kind, *names = how
        counts = self.tracer.counts
        if kind == "calls" and self.traced(*names):
            return self.calls[names[0]]
        if kind == "self_s" and self.traced(*names):
            return self.self_s[names[0]]
        if kind == "child_calls" and self.traced(*names):
            return self.child_calls[tuple(names)]
        if kind == "count" and self.traced(names[1]):
            return counts[names[0]]
        if kind == "width_max" and self.traced("kernels.config_scan", "kernels.max_independent"):
            return self.tracer.width_max
        if kind == "ratio" and self.traced("optimize.optimal_rule", "clauses.closure",
                                           "setcover.solve_exact"):
            # the base is a span's call count, or else a count
            base = self.calls[names[1]] if names[1] in self.calls else counts[names[1]]
            return counts[names[0]] / base if base else None
        if kind == "p50_ms" and self.traced(*names):
            d = self.durations[names[0]]
            return 1000.0 * statistics.median(d) if d else None
        if kind.startswith("certified") and self.traced(
                "setcover.solve_exact", "setcover.bnb", "setcover.mip"):
            solves = self.calls["setcover.solve_exact"]
            settled = solves - self.calls["setcover.bnb"] - self.calls["setcover.mip"]
            if kind == "certified":
                return settled
            return settled / solves if solves else None
        return None

    def layer_shares(self) -> dict[str, float]:
        shares = dict.fromkeys(LAYERS, 0.0)
        for name, own in self.self_s.items():
            shares[name.split(".", 1)[0]] += own / self.total_s
        return shares

    def p99_ms(self, name: str):
        """The 99th percentile, only when at least ten samples lie beyond it."""
        d = sorted(self.durations[name])
        if len(d) < 1000:
            return None
        return 1000.0 * statistics.quantiles(d, n=100)[98]

    def table(self) -> list[str]:
        """The per-layer table, one line per span name, then the layer shares."""
        lines = [f"{'span':34s} {'calls':>9s} {'self_s':>10s} {'share':>7s}"]
        for name in sorted(self.self_s, key=lambda k: -self.self_s[k]):
            lines.append(f"{name:34s} {self.calls[name]:9d} {self.self_s[name]:10.4f} "
                         f"{100 * self.self_s[name] / self.total_s:6.1f}%")
        for name in sorted(self.tracer.missing):
            lines.append(f"{name:34s} not traced")
        shares = self.layer_shares()
        lines.append("layer shares of traced self time: " + ", ".join(
            f"{layer} {100 * shares[layer]:.1f}%" for layer in LAYERS))
        p99 = self.p99_ms("optimize.optimal_rule")
        n_rules = len(self.durations["optimize.optimal_rule"])
        lines.append(f"optimize.optimal_rule: {n_rules} samples, p99 "
                     + (f"{p99:.3f} ms" if p99 is not None else "not reported (fewer than 1000 samples)"))
        return lines
