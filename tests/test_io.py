import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optbranch
from optbranch.errors import InputError
from optbranch.io import MAX_VERTICES, parse_graph


def write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestEdgeList:
    def test_path(self, tmp_path):
        g = parse_graph(write(tmp_path, "1 2\n2 3\n"))
        assert g.n == 3 and g.m == 2

    def test_comments_and_blank_lines(self, tmp_path):
        g = parse_graph(write(tmp_path, "# a path\n\n1 2  # edge\n2 3\n"))
        assert g.n == 3 and g.m == 2

    def test_vertex_count_line(self, tmp_path):
        g = parse_graph(write(tmp_path, "10\n"))
        assert g.n == 10 and g.m == 0

    def test_self_loop_rejected_with_line(self, tmp_path):
        with pytest.raises(InputError, match="line 2"):
            parse_graph(write(tmp_path, "1 2\n1 1\n"))

    def test_id_above_declared_count(self, tmp_path):
        with pytest.raises(InputError, match="declared"):
            parse_graph(write(tmp_path, "3\n1 4\n"))

    @pytest.mark.parametrize("text, line, top, count", [
        ("1 5\n3\n", 1, 5, 3),
        ("3\n1 5\n", 2, 5, 3),
        ("0\n1 2\n", 2, 2, 0),
        ("1 2\n2 4\n1 4\n3\n", 2, 4, 3),
    ], ids=["count-after-edge", "count-before-edge", "count-zero", "first-line-of-top"])
    def test_declared_count_bounds_every_edge(self, tmp_path, text, line, top, count):
        with pytest.raises(InputError,
                           match=f"^line {line}: vertex id {top} above declared count {count}$"):
            parse_graph(write(tmp_path, text))

    def test_largest_count_wins(self, tmp_path):
        g = parse_graph(write(tmp_path, "2\n1 2\n5\n"))
        assert g.n == 5 and g.m == 1

    def test_zero_id_rejected(self, tmp_path):
        with pytest.raises(InputError, match="1-based"):
            parse_graph(write(tmp_path, "0 1\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(InputError, match="line 1"):
            parse_graph(write(tmp_path, "1 2 3\n"))

    def test_duplicates_dedupe(self, tmp_path):
        g = parse_graph(write(tmp_path, "1 2\n2 1\n1 2\n"))
        assert g.m == 1


class TestDimacs:
    def test_path(self, tmp_path):
        g = parse_graph(write(tmp_path, "c path\np edge 3 2\ne 1 2\ne 2 3\n"), "dimacs")
        assert g.n == 3 and g.m == 2

    def test_edge_before_header(self, tmp_path):
        with pytest.raises(InputError, match="header"):
            parse_graph(write(tmp_path, "e 1 2\n"), "dimacs")

    def test_range_error(self, tmp_path):
        with pytest.raises(InputError, match="outside"):
            parse_graph(write(tmp_path, "p edge 3 1\ne 1 4\n"), "dimacs")

    def test_self_loop(self, tmp_path):
        with pytest.raises(InputError, match="self-loop"):
            parse_graph(write(tmp_path, "p edge 3 1\ne 2 2\n"), "dimacs")

    def test_negative_count_rejected(self, tmp_path):
        with pytest.raises(InputError, match="line 1: vertex count must be non-negative"):
            parse_graph(write(tmp_path, "p edge -5 0\n"), "dimacs")

    def test_isolated_vertices_from_header(self, tmp_path):
        g = parse_graph(write(tmp_path, "p edge 10 0\n"), "dimacs")
        assert g.n == 10 and g.m == 0


def test_same_graph_both_formats(tmp_path):
    a = parse_graph(write(tmp_path, "1 2\n2 3\n", "a.txt"))
    b = parse_graph(write(tmp_path, "p edge 3 2\ne 1 2\ne 2 3\n", "b.txt"), "dimacs")
    assert a == b


def test_unknown_format(tmp_path):
    with pytest.raises(InputError):
        parse_graph(write(tmp_path, "1 2\n"), "gml")


def test_missing_file():
    with pytest.raises(InputError):
        parse_graph("/nonexistent/path.edgelist")


@pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
def test_non_utf8_file_is_input_error(tmp_path, fmt):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00bad\n")
    with pytest.raises(InputError, match="cannot read"):
        parse_graph(bad, fmt)


def test_reader_memory_is_the_graphs(tmp_path):
    # 200,000 random edges over 10,000 vertices: the Graph holds at most
    # n * n / 8 = 12.5 MB of masks, while keeping every line's edge as a
    # tuple would add about 75 MB.  The peak is read in a fresh interpreter,
    # from VmHWM, as ru_maxrss carries the test runner's own peak across exec
    n, lines = 10_000, 200_000
    rng = np.random.default_rng(17)
    u = rng.integers(1, n + 1, lines)
    v = rng.integers(1, n, lines)
    v[v >= u] += 1
    path = write(tmp_path, "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())))
    script = f"""if True:
        import json
        from optbranch.io import parse_graph
        def hwm():
            with open("/proc/self/status") as status:
                line = next(line for line in status if line.startswith("VmHWM:"))
            return int(line.split()[1]) / 1024
        before = hwm()
        g = parse_graph({str(path)!r})
        print(json.dumps({{"n": g.n, "m": g.m, "growth_mb": hwm() - before}}))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(optbranch.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    got = json.loads(run.stdout)
    assert got["n"] == n
    assert got["m"] == len({(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())})
    assert got["growth_mb"] < 2 * n * n / 8 / 2**20, got["growth_mb"]


class TestSizeLimit:
    def test_edgelist_at_limit_accepted(self, tmp_path):
        g = parse_graph(write(tmp_path, f"{MAX_VERTICES}\n1 {MAX_VERTICES}\n"))
        assert g.n == MAX_VERTICES and g.m == 1

    def test_edgelist_id_above_limit(self, tmp_path):
        with pytest.raises(InputError, match="line 2: vertex id"):
            parse_graph(write(tmp_path, f"1 2\n1 {MAX_VERTICES + 1}\n"))

    def test_edgelist_count_above_limit(self, tmp_path):
        with pytest.raises(InputError, match="line 1: vertex count"):
            parse_graph(write(tmp_path, f"{MAX_VERTICES + 1}\n"))

    def test_dimacs_count_above_limit(self, tmp_path):
        with pytest.raises(InputError, match="line 1: vertex count"):
            parse_graph(write(tmp_path, f"p edge {MAX_VERTICES + 1} 0\n"), "dimacs")
