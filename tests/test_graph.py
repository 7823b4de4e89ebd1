"""Tangled graph construction, BFS/diameter, articulation points."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tangledpath import (
    InsertionTrace,
    Permutation,
    articulation_points,
    bfs_distances,
    build_tangled,
    cut_vertices_from_trace,
    diameter,
    enumerate_traces,
    format_edge_list,
    graph_from_trace,
    is_connected,
    make_graph,
    mallows_process,
    parse_edge_list,
    reverse,
    sample_trace,
)
from conftest import (
    brute_articulation,
    brute_distance_matrix,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)


def test_identity_gives_plain_path():
    g = build_tangled((1, 2, 3, 4, 5))
    assert g.edges == ((1, 2), (2, 3), (3, 4), (4, 5))


def test_union_with_permuted_path():
    # sigma = (2,4,1,3): permuted-path edges {24, 14, 13} fill P4 up to K4
    g = build_tangled((2, 4, 1, 3))
    assert g.edges == tuple(
        (i, j) for i in range(1, 5) for j in range(i + 1, 5)
    )


def test_degree_bound_and_connectivity():
    for seed in range(30):
        trace = sample_trace(40, 0.6, seed)
        g = build_tangled(mallows_process(trace), trace=trace)
        assert all(len(nbrs) <= 4 for nbrs in g.adjacency)
        assert is_connected(g)


@given(st.integers(1, 30).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
@example([1])
@example([1, 2])
@example([2, 1])
def test_build_tangled_matches_validated_edge_list(perm):
    # build_tangled derives neighbors from sigma without validating edges;
    # make_graph validates, deduplicates and sorts an explicit edge list.
    n = len(perm)
    path_edges = [(i, i + 1) for i in range(1, n)]
    sigma_edges = list(zip(perm, perm[1:]))
    ref = make_graph(n, path_edges + sigma_edges)
    for sigma in (perm, Permutation(tuple(perm))):
        g = build_tangled(sigma)
        assert (g.n, g.edges, g.adjacency) == (ref.n, ref.edges, ref.adjacency)


def test_build_tangled_rejects_non_permutation():
    with pytest.raises(ValueError):
        build_tangled((1, 1, 3))


@given(st.permutations(list(range(1, 10))))
def test_reversal_gives_same_graph(perm):
    assert build_tangled(perm).edges == build_tangled(reverse(perm)).edges


def test_provenance_recorded():
    trace = sample_trace(7, 0.3, 42)
    g = build_tangled(mallows_process(trace), trace=trace)
    assert g.provenance is not None
    assert g.provenance["q"] == 0.3 and g.provenance["seed"] == 42
    assert graph_from_trace(trace).edges == g.edges


def test_make_graph_validation():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        make_graph(3, [(2, 2)])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_bfs_distances_on_path():
    g = make_graph(*path_graph(6))
    assert list(bfs_distances(g, 1)) == [0, 1, 2, 3, 4, 5]
    assert list(bfs_distances(g, 3)) == [2, 1, 0, 1, 2, 3]


def test_bfs_marks_unreachable():
    g = make_graph(4, [(1, 2)])
    d = bfs_distances(g, 1)
    assert d[2] == -1 and d[3] == -1


def test_diameter_knowns():
    assert diameter(make_graph(*path_graph(9))) == 8
    assert diameter(make_graph(*cycle_graph(6))) == 3
    assert diameter(make_graph(*star_graph(5))) == 2
    with pytest.raises(ValueError):
        diameter(make_graph(3, [(1, 2)]))


def test_diameter_methods_agree():
    """The pure BFS route and the sparse-matrix route are dual
    implementations; they must agree above and below the cutover."""
    for seed, n in [(0, 30), (1, 120), (2, 300)]:
        trace = sample_trace(n, 0.7, seed)
        g = build_tangled(mallows_process(trace), trace=trace)
        assert diameter(g, method="bfs") == diameter(g, method="sparse")


def test_diameter_matches_brute_matrix():
    for seed in range(5):
        n, edges = random_connected_graph(12, 6, 500 + seed)
        g = make_graph(n, edges)
        dist = brute_distance_matrix(n, edges)
        want = max(max(d.values()) for d in dist.values())
        assert diameter(g) == want


# ---------------------------------------------------------------------------
# articulation points
# ---------------------------------------------------------------------------


def test_articulation_knowns():
    assert articulation_points(make_graph(*path_graph(5))) == {2, 3, 4}
    assert articulation_points(make_graph(*cycle_graph(5))) == set()
    assert articulation_points(make_graph(*star_graph(4))) == {1}


def test_articulation_matches_brute_on_randoms():
    for seed in range(25):
        n, edges = random_connected_graph(9, 4, 900 + seed)
        g = make_graph(n, edges)
        assert articulation_points(g) == brute_articulation(n, edges)


def test_articulation_requires_connected():
    with pytest.raises(ValueError):
        articulation_points(make_graph(4, [(1, 2), (3, 4)]))


def test_trace_cut_set_equals_articulation_exhaustive():
    """Every length-6 trace: the event-derived cut set must equal the graph's
    articulation points (the full n=7 sweep lives in the acceptance suite)."""
    for trace, _ in enumerate_traces(6, 0.5):
        g = build_tangled(mallows_process(trace), trace=trace)
        assert cut_vertices_from_trace(trace) == articulation_points(g)


def test_diameter_cut_bound_exhaustive_small():
    """diameter >= |cut set| + 1 on every tangled graph with n <= 8."""
    for n in range(2, 9):
        count = 0
        for positions in itertools.product(*[range(1, i + 1) for i in range(1, n + 1)]):
            trace = InsertionTrace(positions=positions, q=0.5)
            g = build_tangled(mallows_process(trace), trace=trace)
            assert diameter(g) >= len(cut_vertices_from_trace(trace)) + 1
            count += 1
        assert count == math.factorial(n)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_edge_list_round_trip():
    trace = sample_trace(10, 0.5, 3)
    g = build_tangled(mallows_process(trace), trace=trace)
    text = format_edge_list(g)
    assert text.splitlines()[0] == "n=10"
    h = parse_edge_list(text)
    assert h.n == g.n and h.edges == g.edges


def test_parse_edge_list_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_edge_list("vertices=3\n1 2\n")
