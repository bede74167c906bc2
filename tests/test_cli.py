import argparse
import json
import multiprocessing
import os
import re
from pathlib import Path

import pytest

from optbranch import bench
from optbranch.bench import MAX_TASKS
from optbranch.cli import _build_parser, main
from optbranch.io import MAX_VERTICES

from paper_cases import TUTTE_EDGES


@pytest.fixture()
def files(tmp_path):
    tutte = tmp_path / "tutte.edgelist"
    tutte.write_text(
        "# tutte graph\n" + "".join(f"{u+1} {v+1}\n" for u, v in TUTTE_EDGES)
    )
    fig1 = tmp_path / "fig1.edgelist"
    fig1.write_text("1 5\n1 4\n2 5\n3 4\n4 5\n")
    empty10 = tmp_path / "empty10.edgelist"
    empty10.write_text("10\n")
    return {"tutte": str(tutte), "fig1": str(fig1), "empty10": str(empty10),
            "dir": tmp_path}


class TestSolve:
    def test_tutte(self, files, capsys):
        assert main(["solve", files["tutte"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mis_size=19 branches=")

    def test_empty_ten(self, files, capsys):
        assert main(["solve", files["empty10"]]) == 0
        assert capsys.readouterr().out.strip() == "mis_size=10 branches=0"

    def test_json_fields(self, files, capsys):
        assert main(["solve", files["tutte"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mis_size"] == 19
        assert set(payload) == {"mis_size", "branch_count", "node_count", "time_ms"}
        assert payload["node_count"] >= 1

    def test_lp_flag(self, files, capsys):
        assert main(["solve", files["fig1"], "--lp", "--measure", "vc"]) == 0
        assert "mis_size=3" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, capsys):
        assert main(["solve", "/nope.edgelist"]) == 2


class TestDiscover:
    def test_fig1_session(self, files, capsys):
        rc = main(["discover", files["fig1"], "--region", "a,b,c,d,e",
                   "--boundary", "a,b,c"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "candidate clauses (14)" in out
        assert "optimal_rule: (¬a ∧ ¬b ∧ c ∧ ¬d ∧ e) ∨ (a ∧ b ∧ c ∧ ¬d ∧ ¬e) ∨ (¬a ∧ ¬c ∧ d ∧ ¬e)" in out
        assert "branching_vector: [5, 5, 4]" in out
        assert "γ: 1.2671683045421243" in out

    def test_numeric_region_tokens(self, files, capsys):
        rc = main(["discover", files["fig1"], "--region", "1,2,3,4,5",
                   "--boundary", "1,2,3"])
        assert rc == 0
        assert "γ: 1.2671683045421243" in capsys.readouterr().out

    def test_bad_region_vertex(self, files, capsys):
        assert main(["discover", files["fig1"], "--region", "1,99"]) == 2

    def test_non_ascii_digit_token_exits_two(self, files, capsys):
        # "²".isdigit() holds, but int() refuses it
        assert main(["discover", files["fig1"], "--region", "1,²"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse vertex token")

    def test_region_above_boundary_limit_exits_two(self, tmp_path, capsys):
        # a 26-vertex star has exactly 2^25 + 1 independent configurations,
        # within the listing cap; its 25 declared boundary leaves would give
        # tables of 2^25 keys
        star = tmp_path / "star26.edgelist"
        star.write_text("".join(f"1 {v}\n" for v in range(2, 27)))
        region = ",".join(str(v) for v in range(1, 27))
        boundary = ",".join(str(v) for v in range(2, 27))
        assert main(["discover", str(star), "--region", region, "--boundary", boundary]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "above the boundary limit 16" in err

    def test_env_pruning_needs_a_larger_host(self, tmp_path, capsys):
        # path a-b-c with declared boundary {a, c}: the region is its whole
        # host, so there is no environment to prune against
        path = tmp_path / "path3.edgelist"
        path.write_text("1 2\n2 3\n")
        for flags in ([], ["--no-env-pruning"]):
            assert main(["discover", str(path), "--region", "a,b,c", "--boundary", "a,c",
                         *flags]) == 0
            out = capsys.readouterr().out
            assert "branching table (2 rows" in out and "γ: 1.2599" in out

    def test_region_above_enumeration_limit_exits_two(self, tmp_path, capsys):
        host = tmp_path / "edgeless30.edgelist"
        host.write_text("30\n")
        region = ",".join(str(v) for v in range(1, 28))
        assert main(["discover", str(host), "--region", region]) == 2
        assert "above the enumeration limit 26" in capsys.readouterr().err

    def test_region_past_the_listing_cap_exits_two(self, tmp_path, capsys):
        # 26 edgeless vertices are within the enumeration limit, but their
        # 2^26 independent configurations pass the kernels' listing cap
        host = tmp_path / "edgeless26.edgelist"
        host.write_text("26\n")
        region = ",".join(str(v) for v in range(1, 27))
        assert main(["discover", str(host), "--region", region]) == 2
        assert "independent configurations" in capsys.readouterr().err

    def test_region_with_no_reducing_clause_exits_two(self, tmp_path, capsys):
        # every vertex of a path has degree at most 2, so no clause lowers
        # the effective degree; the vertex count still has a rule
        path = tmp_path / "path5.edgelist"
        path.write_text("1 2\n2 3\n3 4\n4 5\n")
        assert main(["discover", str(path), "--region", "1,2,3", "--measure", "ed"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "effective degree" in err
        assert main(["discover", str(path), "--region", "1,2,3", "--measure", "vc"]) == 0


class TestBench:
    def test_small_run_writes_csv(self, files, capsys):
        out = str(files["dir"] / "report.csv")
        rc = main(["bench", "--gen", "3regular", "--sizes", "12:16:4",
                   "--trials", "2", "--seed", "5", "--out", out])
        assert rc == 0
        text = (files["dir"] / "report.csv").read_text()
        assert text.startswith("n,trial,seed,mis,branches,time_ms\n")
        assert "# fitted_gamma," in text
        stdout = capsys.readouterr().out
        assert "fitted_gamma=" in stdout

    def test_comma_sizes(self, files, capsys):
        out = str(files["dir"] / "r2.csv")
        rc = main(["bench", "--gen", "grid", "--sizes", "9,12", "--trials", "1",
                   "--seed", "1", "--out", out])
        assert rc == 0

    def test_bad_sizes_spec(self, files):
        assert main(["bench", "--gen", "grid", "--sizes", "10:5:1",
                     "--trials", "1", "--out", "x.csv"]) == 2

    @pytest.mark.parametrize("gen, sizes", [
        ("3regular", "4:1000000000000:2"),
        ("erdos_renyi", "200000"),
        ("grid", f"9,{MAX_VERTICES + 1}"),
    ])
    def test_size_above_vertex_limit_exits_two(self, files, capsys, gen, sizes):
        out = str(files["dir"] / "never.csv")
        assert main(["bench", "--gen", gen, "--sizes", sizes, "--trials", "1",
                     "--out", out]) == 2
        assert f"exceeds the limit of {MAX_VERTICES} vertices" in capsys.readouterr().err
        assert not (files["dir"] / "never.csv").exists()

    def test_task_count_above_limit_exits_two(self, files, capsys):
        out = files["dir"] / "never.csv"
        assert main(["bench", "--gen", "grid", "--sizes", "9,16", "--trials",
                     "1000000000000", "--out", str(out)]) == 2
        assert f"exceed the limit of {MAX_TASKS} solves" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("avg_degree", ["-1", "nan", "inf"])
    def test_bad_average_degree_exits_two(self, files, capsys, avg_degree):
        out = files["dir"] / "never.csv"
        assert main(["bench", "--gen", "erdos_renyi", "--sizes", "10", "--trials", "1",
                     "--avg-degree", avg_degree, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: average degree")
        assert not out.exists()

    def test_missing_out_directory_exits_two_before_any_trial(self, files, capsys, monkeypatch):
        trials = []
        monkeypatch.setattr(bench, "_run_one", lambda *args: trials.append(args))
        out = files["dir"] / "nodir" / "x.csv"
        assert main(["bench", "--gen", "grid", "--sizes", "9", "--trials", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --out directory")
        assert not trials

    def test_jobs_below_one_exits_two(self, files, capsys):
        assert main(["bench", "--gen", "grid", "--sizes", "9", "--trials", "1",
                     "--jobs", "0", "--out", str(files["dir"] / "j.csv")]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cpus, want", [(3, [3]), (8, [4]), (1, [])])
    def test_pool_capped_by_tasks_and_cpus(self, files, monkeypatch, cpus, want):
        requested = []

        class FakePool:
            def __init__(self, size):
                requested.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, args):
                return [fn(*a) for a in args]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        # 2 sizes x 2 trials = 4 tasks
        assert main(["bench", "--gen", "3regular", "--sizes", "12:16:4", "--trials", "2",
                     "--jobs", "1000", "--out", str(files["dir"] / "p.csv")]) == 0
        assert requested == want


def test_readme_synopsis_lists_every_option():
    """The option strings of each command in the README's CLI block are the
    subparser's own."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.splitlines():
        if line.startswith("optbranch "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    commands = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert set(documented) == set(commands)
    for name, sub in commands.items():
        options = {s for action in sub._actions for s in action.option_strings}
        assert documented[name] == options - {"-h", "--help"}, name


def test_default_measures():
    parser = _build_parser()
    assert parser.parse_args(["solve", "g"]).measure == "ed"
    assert parser.parse_args(["discover", "g", "--region", "1"]).measure == "vc"
    assert parser.parse_args(["bench", "--gen", "kings", "--sizes", "4",
                              "--out", "r.csv"]).measure == "ed"


class TestExitCodes:
    def test_unknown_flag_exits_two(self, files):
        assert main(["solve", files["fig1"], "--bogus"]) == 2

    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("fmt, text", [
        ("edgelist", "1 1000000000\n"),
        ("edgelist", "1000000000\n1 2\n"),
        ("dimacs", "p edge 1000000000 0\n"),
    ])
    def test_huge_vertex_ids_exit_two(self, tmp_path, capsys, fmt, text):
        huge = tmp_path / "huge.txt"
        huge.write_text(text)
        assert main(["solve", str(huge), "--format", fmt]) == 2
        assert f"exceeds the limit of {MAX_VERTICES} vertices" in capsys.readouterr().err

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.edgelist"
        bad.write_bytes(b"\xff\xfe\x00bad\n")
        assert main(["solve", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}")

    def test_self_loop_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.edgelist"
        bad.write_text("1 1\n")
        assert main(["solve", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
