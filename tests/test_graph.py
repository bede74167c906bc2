import pytest
from hypothesis import given, settings, strategies as st

from optbranch import InputError
from optbranch.graph import Graph, Measure, bits, induced_delete, neighbors_k, region_of

from oracles import edges, measure
from paper_cases import FIG1_EDGES


def as_mask(vertices):
    return sum(1 << v for v in vertices)


def fig1():
    return Graph(5, FIG1_EDGES)


def small_graphs():
    edges = st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
        max_size=20,
    )
    return edges.map(lambda es: Graph(10, es))


class TestGraph:
    def test_construction_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(3, [(1, 1)])

    def test_construction_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 3)])

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(3, 0), (2, 0), (1, 3)])
        assert list(g.adj_mask) == [0, 1, 2, 3] and g.vertices == 0b1111
        assert list(bits(g.adj_mask[0])) == [2, 3]
        for u, row in g.adj_mask.items():
            for v in bits(row):
                assert g.adj_mask[v] >> u & 1
        assert list(edges(g)) == [(0, 2), (0, 3), (1, 3)]

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1


class TestNeighborsK:
    def test_fig1_open_neighborhood_of_d(self):
        # N({d}) = {a, c, e}
        assert neighbors_k(fig1(), [3], 1) == as_mask([0, 2, 4])

    def test_isolated_vertex_closed(self):
        g = Graph(2, [])
        assert neighbors_k(g, [1], 1, closed=True) == as_mask([1])

    def test_path_second_closed_neighborhood(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert neighbors_k(g, [0], 2, closed=True) == g.vertices

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            neighbors_k(fig1(), [], 1)

    def test_invalid_vertex_rejected(self):
        with pytest.raises(InputError):
            neighbors_k(fig1(), [9], 1)

    def test_dead_vertex_rejected(self):
        # vertex 3 is below n but was deleted: every graph operation refuses it
        sub = induced_delete(fig1(), [3])
        assert sub.n == 5
        for call in (lambda: neighbors_k(sub, [3], 1), lambda: neighbors_k(sub, 1 << 3, 1),
                     lambda: sub.neighbors_mask([3]), lambda: sub.is_independent([0, 3]),
                     lambda: induced_delete(sub, [3]), lambda: region_of(sub, [2, 3]),
                     lambda: neighbors_k(sub, [-1], 1)):
            with pytest.raises(InputError):
                call()

    @given(small_graphs(), st.integers(0, 9), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_nesting_and_disjointness(self, g, v, k):
        closed_k = neighbors_k(g, [v], k, closed=True)
        closed_k1 = neighbors_k(g, [v], k + 1, closed=True)
        open_k1 = neighbors_k(g, [v], k + 1)
        assert closed_k1 & closed_k == closed_k
        assert open_k1 & closed_k == 0


class TestInducedDelete:
    def test_fig1_minus_d_e_is_edgeless(self):
        sub = induced_delete(fig1(), [3, 4])
        assert list(sub.adj_mask) == [0, 1, 2] and sub.vertices == 0b111
        assert sub.m == 0 and sub.n == 5

    def test_remove_nothing_is_copy(self):
        g = fig1()
        sub = induced_delete(g, 0)
        assert sub == g and sub.vertices == g.vertices

    def test_triangle_minus_vertex_is_edge(self):
        tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
        sub = induced_delete(tri, [0])
        assert list(sub.adj_mask) == [1, 2] and sub.m == 1
        assert list(edges(sub)) == [(1, 2)]

    @given(small_graphs(), st.integers(0, 1023))
    @settings(max_examples=60, deadline=None)
    def test_preserves_simplicity_and_monotone_measure(self, g, removed):
        sub = induced_delete(g, removed)
        for u, row in sub.adj_mask.items():
            assert not row >> u & 1
            for v in bits(row):
                assert sub.adj_mask[v] >> u & 1
        for m in Measure:
            assert measure(sub, m) <= measure(g, m)
        # edges survive exactly when both ends survive
        expected = sum(
            1 for u, v in edges(g) if not (removed >> u & 1 or removed >> v & 1)
        )
        assert sub.m == expected

    @given(small_graphs(), st.integers(0, 1023))
    @settings(max_examples=80, deadline=None)
    def test_matches_graph_built_from_edges(self, g, removed):
        # same ids: the rows are those of Graph(g.n, surviving edges) on the
        # live ids, listed in ascending id order
        sub = induced_delete(g, removed)
        live = g.vertices & ~removed
        want = Graph(g.n, [(u, v) for u, v in edges(g) if live >> u & 1 and live >> v & 1])
        assert sub.vertices == live and sub.n == g.n
        assert list(sub.adj_mask) == list(bits(live))
        assert sub.adj_mask == {v: want.adj_mask[v] for v in bits(live)}

    def test_chained_deletes_keep_ids(self):
        g = Graph(6, [(i, i + 1) for i in range(5)])
        sub = induced_delete(induced_delete(g, [1]), [4])
        assert list(sub.adj_mask) == [0, 2, 3, 5]
        assert list(edges(sub)) == [(2, 3)]
        assert sub == induced_delete(g, [1, 4])


class TestMeasure:
    def test_three_regular_effective_degree_is_n(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert measure(g, Measure.EFFECTIVE_DEGREE) == 4

    def test_cycle_has_zero_effective_degree(self):
        c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert measure(c5, Measure.EFFECTIVE_DEGREE) == 0

    def test_fig1_vertex_count(self):
        assert measure(fig1(), Measure.VERTEX_COUNT) == 5


class TestRegionOf:
    def test_fig1_with_outside_edges(self):
        g = Graph(8, FIG1_EDGES + [(0, 5), (1, 6), (2, 7)])
        r = region_of(g, range(5))
        assert r.boundary == as_mask([0, 1, 2])
        assert r.local_order == (0, 1, 2, 3, 4)

    def test_whole_graph_has_empty_boundary(self):
        r = region_of(fig1(), range(5))
        assert r.boundary == 0

    def test_single_vertex_with_outside_neighbor(self):
        g = Graph(2, [(0, 1)])
        r = region_of(g, [0])
        assert r.boundary == 1

    def test_declared_boundary_must_be_inside(self):
        with pytest.raises(InputError):
            region_of(fig1(), [0, 1], boundary=[3])

    @given(small_graphs(), st.integers(1, 1023))
    @settings(max_examples=60, deadline=None)
    def test_boundary_characterization(self, g, vertices):
        r = region_of(g, vertices)
        for v in bits(r.vertices):
            outside = bool(g.adj_mask[v] & ~r.vertices)
            assert bool((r.boundary >> v) & 1) == outside
