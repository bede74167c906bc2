"""The benchmark's tracer against the program, as a traced run uses it.

``perfbench/spans.py`` wraps module attributes of ``optbranch`` and reads
the arguments and results of some of them.  A traced run must raise
nothing, find every name it wraps, count what the program returns, give
per-layer values that are strict JSON, and leave standard output to the
benchmark's result line.
"""

import importlib.util
import json
import sys
from pathlib import Path

import optbranch
from optbranch.generators import kings_subgraph, three_regular
from optbranch.graph import Measure

from oracles import oracle_closure
from paper_cases import fig1_region, ph2_region

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    """Import perfbench/spans.py without writing a bytecode cache beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_run_keeps_the_contract(capfd, monkeypatch):
    spans = load_spans()
    capfd.readouterr()
    closure_sizes = []
    tracer = spans.install(optbranch)
    build = optbranch.optimize.build_candidates

    def count_candidates(table, region, m):
        closure_sizes.append(len(oracle_closure(table)))
        return build(table, region, m)

    try:
        # outside the tracer's wrapper, so it sees every synthesis
        monkeypatch.setattr(optbranch.optimize, "build_candidates", count_candidates)
        # three_regular(60, 3) reaches the wide, HiGHS set-cover path
        for g in (three_regular(40, 1), three_regular(60, 3), kings_subgraph(200, 0.8, 1)):
            optbranch.engine.mis_branch(g)
        optbranch.optimize.optimal_rule(fig1_region(), Measure.VERTEX_COUNT)
        optbranch.optimize.optimal_rule(ph2_region(), Measure.EFFECTIVE_DEGREE)
    finally:
        monkeypatch.undo()
        tracer.unwrap()

    assert tracer.missing == set()
    report = spans.Report(tracer)
    assert report.calls["setcover.mip"] > 0
    assert report.calls["clauses.delta_rho"] == len(closure_sizes) > 0
    assert tracer.counts["clauses.candidates"] == sum(closure_sizes)
    for name, _unit, how in spans.PER_LAYER:
        json.dumps({name: report.value(how)}, allow_nan=False)
    out, _err = capfd.readouterr()
    assert out == ""
