"""Tangled graph construction, BFS/diameter, articulation points."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tangledpath import (
    CapabilityError,
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
from tangledpath.graph import _cut_sides
from conftest import (
    _components,
    brute_articulation,
    brute_distance_matrix,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph,
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
        assert np.diff(g.indptr).max() <= 4
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
        assert (g.n, g.edges) == (ref.n, ref.edges)
        assert np.array_equal(g.indptr, ref.indptr) and np.array_equal(g.indices, ref.indices)


def _assert_csr_invariants(g):
    indptr, indices = g.indptr, g.indices
    assert indptr.dtype == indices.dtype == np.int32
    assert indptr[0] == 0 and indptr[-1] == indices.size and indptr.size == g.n + 1
    degrees = np.diff(indptr)
    assert degrees.min(initial=0) >= 0
    tails = np.repeat(np.arange(g.n), degrees)
    keys = tails.astype(np.int64) * g.n + indices
    assert (np.diff(keys) > 0).all()  # rows sorted, no duplicate arcs
    assert (tails != indices).all() and ((indices >= 0) & (indices < g.n)).all()
    assert set(zip(tails.tolist(), indices.tolist())) == set(zip(indices.tolist(), tails.tolist()))
    assert 2 * len(g.edges) == indices.size
    up = tails < indices
    assert g.edges == tuple(zip((tails[up] + 1).tolist(), (indices[up] + 1).tolist()))


def test_csr_invariants_and_equality_across_constructors():
    """build_tangled and make_graph of the same edges: the same CSR, equal and
    hashing equal; every tangled graph has degree at most 4."""
    cases = [(1,), (1, 2), (2, 1), (2, 4, 1, 3), tuple(range(9, 0, -1))]
    for n, q in ((7, 0.5), (60, 0.9), (300, 1.0), (300, 1 - 1 / (300 * math.log(300)))):
        for seed in range(4):
            cases.append(mallows_process(sample_trace(n, q, seed)).image)
    for perm in cases:
        n = len(perm)
        g = build_tangled(perm)
        _assert_csr_invariants(g)
        assert np.diff(g.indptr).max() <= 4
        ref = make_graph(n, [(i, i + 1) for i in range(1, n)] + list(zip(perm[::-1], perm[-2::-1])))
        _assert_csr_invariants(ref)
        assert g == ref and hash(g) == hash(ref)
        assert len({g, ref, build_tangled(Permutation(perm))}) == 1
    others = (random_connected_graph(30, 12, 4), petersen_graph(), (5, [(1, 2), (1, 2), (2, 1)]))
    for n, edges in others:
        _assert_csr_invariants(make_graph(n, edges))
    assert build_tangled((1, 2, 3)) != build_tangled((1, 3, 2))
    assert make_graph(3, [(1, 2)]) != make_graph(4, [(1, 2)])
    assert build_tangled((1,)) != "not a graph"


def test_build_tangled_rejects_non_permutation():
    with pytest.raises(ValueError):
        build_tangled((1, 1, 3))
    with pytest.raises(ValueError):
        build_tangled((1, 10**20))


@given(st.permutations(list(range(1, 10))))
def test_reversal_gives_same_graph(perm):
    assert build_tangled(perm).edges == build_tangled(reverse(perm)).edges


def test_provenance_recorded():
    trace = sample_trace(7, 0.3, 42)
    g = build_tangled(mallows_process(trace), trace=trace)
    assert g.provenance is not None
    assert g.provenance["q"] == 0.3 and g.provenance["seed"] == 42
    assert graph_from_trace(trace).edges == g.edges


def test_graph_with_provenance_hashes():
    trace = sample_trace(12, 0.4, 5)
    sigma = mallows_process(trace)
    traced, bare = build_tangled(sigma, trace=trace), build_tangled(sigma)
    again = graph_from_trace(trace)
    assert hash(traced) == hash(bare)
    assert again == traced and hash(again) == hash(traced)
    # Equality still compares provenance.
    assert traced != bare and len({traced, bare, again}) == 2


def test_make_graph_validation():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        make_graph(3, [(2, 2)])
    # The first bad edge is named, whichever way it is bad.
    with pytest.raises(ValueError, match=r"^edge \(1, 4\) outside vertex range 1\.\.3$"):
        make_graph(3, [(1, 2), (1, 4), (0, 1)])
    with pytest.raises(ValueError, match="^self-loop at 2$"):
        make_graph(3, [(1, 2), (2, 2), (3, 9)])
    with pytest.raises(ValueError, match=r"^edge \(2, 100000000000000000000\) outside"):
        make_graph(3, [(1, 2), (2, 10**20)])
    with pytest.raises(ValueError):
        make_graph(3, [(1, 2, 3)])
    with pytest.raises(ValueError, match="edge endpoints must be integers, got 1.5"):
        make_graph(3, [(1.5, 2.9)])
    with pytest.raises(ValueError, match="must be integers"):
        make_graph(3, [(1, 2), (2.0, 3)])
    with pytest.raises(ValueError):
        make_graph(0, [])
    assert make_graph(3, []).edges == ()
    # A fractional or bool vertex count is refused, not truncated by int().
    for n in (3.7, 3.0, True):
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            make_graph(n, [(1, 2)])
    assert type(make_graph(np.int64(3), [(1, 2)]).n) is int


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_bfs_distances_on_path():
    g = make_graph(*path_graph(6))
    assert list(bfs_distances(g, 1)) == [0, 1, 2, 3, 4, 5]
    assert list(bfs_distances(g, 3)) == [2, 1, 0, 1, 2, 3]


def test_bfs_distances_refuses_non_integer_source():
    g = make_graph(*path_graph(3))
    for bad in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="source must be an integer"):
            bfs_distances(g, bad)
    assert bfs_distances(g, np.int64(1)) == [0, 1, 2]


def test_bfs_marks_unreachable():
    g = make_graph(4, [(1, 2)])
    d = bfs_distances(g, 1)
    assert d[2] == -1 and d[3] == -1


def test_bfs_distances_match_brute_on_random_graphs():
    """The scipy BFS against the literal per-source BFS, on graphs with
    n <= 10 that may be disconnected or have isolated vertices: -1 where the
    source does not reach, Python ints everywhere."""
    disconnected = 0
    for seed in range(80):
        n, edges = random_graph(1 + seed % 10, (seed % 5) / 6, 900 + seed)
        g = make_graph(n, edges)
        ref = brute_distance_matrix(n, edges)
        for s in range(1, n + 1):
            d = bfs_distances(g, s)
            assert d == [ref[s].get(v, -1) for v in range(1, n + 1)], (n, edges, s)
            assert all(type(x) is int for x in d)
        assert is_connected(g) == (len(ref[1]) == n)
        disconnected += len(ref[1]) < n
    assert disconnected >= 20
    with pytest.raises(ValueError):
        bfs_distances(make_graph(3, []), 4)


def test_diameter_knowns():
    assert diameter(make_graph(*path_graph(9))) == 8
    assert diameter(make_graph(*cycle_graph(6))) == 3
    assert diameter(make_graph(*star_graph(5))) == 2
    for method in ("auto", "sparse"):
        with pytest.raises(ValueError):
            diameter(make_graph(3, [(1, 2)]), method=method)
    with pytest.raises(ValueError):
        diameter(make_graph(*path_graph(4)), method="bfs")


def test_diameter_matches_all_pairs_reference():
    """iFUB against scipy's all-pairs pass on tangled graphs, from the path
    (q = 0) through q next to 1 (1 - q = 1/(n ln n)) to uniform sigma (q = 1)."""
    for n in (1, 2, 3, 30, 300, 2000):
        qs = [0.0, 0.5, 0.9, 1.0] + ([1 - 1 / (n * math.log(n))] if n > 1 else [])
        for q in qs:
            for seed in range(1 if n == 2000 else 3):
                g = build_tangled(mallows_process(sample_trace(n, q, seed)))
                assert diameter(g) == diameter(g, method="sparse"), (n, q, seed)


def test_diameter_matches_all_pairs_on_reference_graphs():
    graphs = [random_connected_graph(n, extra, 40 + n) for n in (2, 5, 17, 60) for extra in (0, 3, 40)]
    graphs += [cycle_graph(n) for n in (3, 4, 7, 10)]
    graphs += [star_graph(k) for k in (1, 2, 9)]
    graphs += [complete_graph(n) for n in (2, 3, 6)]
    graphs += [path_graph(1), path_graph(2), grid_graph(5, 8), petersen_graph()]
    for n, edges in graphs:
        g = make_graph(n, edges)
        assert diameter(g) == diameter(g, method="sparse"), (n, edges)


def test_diameter_matches_networkx():
    nx = pytest.importorskip("networkx")
    graphs = [random_connected_graph(4 + seed % 20, seed % 9, 700 + seed) for seed in range(30)]
    for seed, q in enumerate((0.3, 0.8, 0.95, 1.0)):
        g = build_tangled(mallows_process(sample_trace(40, q, seed)))
        graphs.append((g.n, list(g.edges)))
    for n, edges in graphs:
        ref = nx.Graph(edges)
        ref.add_nodes_from(range(1, n + 1))
        assert diameter(make_graph(n, edges)) == nx.diameter(ref)


def test_diameter_large_n_in_linear_memory():
    """n = 10^5, where the all-pairs matrix would take 80 GB: the result lies
    between the double-sweep lower bound and 2 ecc(1), and above |cuts| + 1."""
    n = 100_000
    for q in (0.5, 0.99):
        trace = sample_trace(n, q, 11)
        g = build_tangled(mallows_process(trace))
        first = bfs_distances(g, 1)
        low = max(bfs_distances(g, first.index(max(first)) + 1))
        tracemalloc.start()
        t0 = time.perf_counter()
        d = diameter(g)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert low <= d <= 2 * max(first)
        assert d >= len(cut_vertices_from_trace(trace)) + 1
        assert peak < 64 << 20, f"diameter peaked at {peak / 2**20:.0f} MB"
        assert elapsed < 10, f"diameter took {elapsed:.1f} s"


def test_all_pairs_reference_refuses_large_n():
    g = make_graph(*path_graph(8193))
    tracemalloc.start()
    with pytest.raises(CapabilityError):
        diameter(g, method="sparse")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20


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


def _glued_at_one(parts):
    """Connected graphs on disjoint vertex sets, their vertex 1s merged into
    one vertex 1: the DFS root, with one child in each part."""
    edges, offset = [], 1
    for m, part in parts:
        relabel = {1: 1, **{v: v + offset - 1 for v in range(2, m + 1)}}
        edges += [(relabel[u], relabel[v]) for u, v in part]
        offset += m - 1
    return offset, edges


def test_articulation_matches_brute_on_randoms():
    graphs = [random_connected_graph(9, 4, 900 + seed) for seed in range(25)]
    graphs += [path_graph(1), path_graph(2), star_graph(3), cycle_graph(3)]
    for seed in range(12):
        sizes = (2 + seed % 4, 3 + seed % 5, 2 + seed % 3)[: 2 + seed % 2]
        graphs.append(_glued_at_one(
            [random_connected_graph(m, seed % 3, 60 * seed + m) for m in sizes]
        ))
    roots_cut = 0
    for n, edges in graphs:
        want = brute_articulation(n, edges)
        g = make_graph(n, edges)
        assert articulation_points(g) == want, (n, edges)
        # the DFS's component sizes of g - k, against literal components
        assert {k + 1: sorted(s) for k, s in _cut_sides(g).items()} == {
            k: sorted(len(c) for c in _components(n, edges, removed={k})) for k in want
        }, (n, edges)
        roots_cut += 1 in want
    assert roots_cut >= 13


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
