"""Tangled graph construction, BFS/diameter, articulation points."""

import dataclasses
import itertools
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tangledpath import (
    CapabilityError,
    InsertionTrace,
    Permutation,
    TangledGraph,
    articulation_points,
    bfs_distances,
    build_tangled,
    build_width_report,
    cut_vertices_from_trace,
    diameter,
    format_edge_list,
    make_graph,
    mallows_process,
    parse_edge_list,
    sample_trace,
)
from tangledpath import graph as graph_layer
from tangledpath.graph import _cut_sides
from tangledpath.sweeps import make_config, render_csv, run_sweep
from conftest import (
    _components,
    brute_articulation,
    brute_distance_matrix,
    complete_graph,
    cycle_graph,
    edge_pairs,
    enumerate_traces,
    grid_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph,
    reverse,
    star_graph,
)


def test_identity_gives_plain_path():
    g = build_tangled((1, 2, 3, 4, 5))
    assert edge_pairs(g) == ((1, 2), (2, 3), (3, 4), (4, 5))


def test_union_with_permuted_path():
    # sigma = (2,4,1,3): permuted-path edges {24, 14, 13} fill P4 up to K4
    g = build_tangled((2, 4, 1, 3))
    assert edge_pairs(g) == tuple(
        (i, j) for i in range(1, 5) for j in range(i + 1, 5)
    )


def test_degree_bound_and_connectivity():
    for seed in range(30):
        trace = sample_trace(40, 0.6, seed)
        g = build_tangled(mallows_process(trace))
        assert np.diff(g.indptr).max() <= 4
        assert -1 not in bfs_distances(g, 1)


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
        assert (g.n, edge_pairs(g)) == (ref.n, edge_pairs(ref))
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
    assert 2 * len(edge_pairs(g)) == indices.size
    up = tails < indices
    assert edge_pairs(g) == tuple(zip((tails[up] + 1).tolist(), (indices[up] + 1).tolist()))


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
    assert edge_pairs(build_tangled(perm)) == edge_pairs(build_tangled(reverse(perm)))


def test_graph_equality_follows_content():
    """A graph is n and its CSR arrays: built from a trace, its raw
    positions, its permutation or its edge list, it compares and hashes
    equal; another graph does not."""
    assert [f.name for f in dataclasses.fields(TangledGraph)] == ["n", "indptr", "indices"]
    for n, q, seed in ((1, 0.5, 1), (7, 0.3, 42), (12, 0.4, 5)):
        trace = sample_trace(n, q, seed)
        g = build_tangled(mallows_process(trace))
        same = (build_tangled(mallows_process(list(trace.positions))), make_graph(n, edge_pairs(g)))
        for h in same:
            assert h == g and hash(h) == hash(g)
        assert len({g, *same}) == 1
    assert build_tangled(mallows_process([1, 1, 1])) != build_tangled(mallows_process([1, 1, 2]))
    assert build_tangled(mallows_process([1, 1])) != build_tangled(mallows_process([1, 1, 1]))


def test_graph_built_directly_is_checked():
    """TangledGraph(n, indptr, indices) takes only a CSR adjacency on n >= 1
    vertices: a valid one, as lists or int64 arrays, equals and hashes like
    the checked constructors' graph and is stored as read-only int32; a
    short or decreasing indptr, an edge stored one way, an unsorted or
    repeated row, a self-loop, an index out of range, a 2-D array or a float
    is refused with ValueError."""
    ref = make_graph(3, [(1, 2), (2, 3)])
    for ptr, idx in (([0, 1, 3, 4], [1, 0, 2, 1]), (np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]))):
        g = TangledGraph(3, ptr, idx)
        assert g == ref and hash(g) == hash(ref) and diameter(g) == 2
        assert g.indptr.dtype == g.indices.dtype == np.int32 and not g.indices.flags.writeable
    assert hash(TangledGraph(2, [0, 1, 2], [1, 0])) == hash(make_graph(2, [(1, 2)]))
    bad = [
        (3, [0, 1, 2], [1, 0]),  # indptr one entry short
        (3, [0, 2, 1, 2], [1, 2]),  # indptr decreasing
        (2, [1, 1, 2], [1, 0]),  # indptr not starting at 0
        (2, [0, 1, 1], [1]),  # edge 1-2 stored one way only
        (3, [0, 2, 3, 4], [2, 1, 0, 0]),  # row 1 unsorted
        (2, [0, 2, 3], [1, 1, 0]),  # row 1 repeats vertex 2
        (2, [0, 1, 2], [0, 1]),  # self-loops
        (2, [0, 1, 2], [1, 2]),  # index out of range
        (2, [[0, 1, 2]], [1, 0]),  # 2-D indptr
    ]
    for args in bad:
        with pytest.raises(ValueError, match="not a CSR adjacency on .* checked constructors"):
            TangledGraph(*args)
    with pytest.raises(ValueError, match="must be integers"):
        TangledGraph(2, [0, 1, 2], [1.0, 0])
    with pytest.raises(ValueError, match="vertex count"):
        TangledGraph(0, [0], [])


def test_build_tangled_refuses_empty_permutation():
    """There is no graph on 0 vertices: build_tangled refuses the empty
    permutation, raw or checked, as make_graph refuses n = 0."""
    for sigma in ((), [], Permutation(())):
        with pytest.raises(ValueError, match="n >= 1"):
            build_tangled(sigma)
    with pytest.raises(ValueError, match="vertex count"):
        make_graph(0, [])


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
    assert edge_pairs(make_graph(3, [])) == ()
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
        assert (-1 not in bfs_distances(g, 1)) == (len(ref[1]) == n)
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
        graphs.append((g.n, list(edge_pairs(g))))
    for n, edges in graphs:
        ref = nx.Graph(edges)
        ref.add_nodes_from(range(1, n + 1))
        assert diameter(make_graph(n, edges)) == nx.diameter(ref)


def test_diameter_large_n_in_linear_memory():
    """n = 10^5, where the all-pairs matrix would take 80 GB: the result lies
    between the double-sweep lower bound and 2 ecc(1), and above |cuts| + 1."""
    n = 100_000
    for q in (0.5, 0.9, 0.99):
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


def _attach(n, edges, at, length):
    """The graph with a path of ``length`` new vertices hung off vertex ``at``."""
    chain = [at, *range(n + 1, n + length + 1)]
    return n + length, edges + list(zip(chain, chain[1:]))


def _adversarial_graphs():
    """Graphs with long unequal branches, up to n = 60, where a wrong
    far-vertex, midpoint or level rule gives a wrong distance or diameter:
    spiders, lollipops, barbells joined by a path, cycles with pendant paths
    and caterpillars."""
    graphs = []
    for legs in ((1, 2, 9), (3, 3, 8), (2, 5, 5, 6), (1, 1, 1, 20), (7, 13, 19, 20)):
        g = (1, [])
        for length in legs:
            g = _attach(*g, 1, length)
        graphs.append(g)
    graphs += [_attach(*complete_graph(k), 1, m) for k, m in ((3, 1), (5, 7), (8, 30))]
    for k1, m, k2 in ((3, 0, 3), (4, 5, 6), (6, 25, 3)):
        n, edges = _attach(*complete_graph(k1), 1, m + 1)
        clique = [n, *range(n + 1, n + k2)]
        graphs.append((n + k2 - 1, edges + list(itertools.combinations(clique, 2))))
    for c, tails in ((5, ((1, 4),)), (9, ((1, 3), (4, 3), (7, 6))), (20, ((1, 10), (3, 2), (11, 15)))):
        g = cycle_graph(c)
        for at, length in tails:
            g = _attach(*g, at, length)
        graphs.append(g)
    for spine in (4, 12, 20):
        g = path_graph(spine)
        for at in range(1, spine + 1):
            for _ in range(at % 3):
                g = _attach(*g, at, 1 + (at % 4 == 0))
        graphs.append(g)
    return graphs


def test_bfs_rules_match_brute_on_exhaustive_and_adversarial_graphs(monkeypatch):
    """Distances and diameters read off BFS orders and tree paths, against
    the literal per-source BFS: on every labelled graph with n <= 5 (n = 1
    and the disconnected ones included, where diameter refuses) and on the
    adversarial families, each under three vertex relabellings.  The BFS
    runs that diameter makes are recorded and checked rule by rule: the first
    far vertex a is the last of vertex 1's BFS order and farthest from it,
    the last b of a's order is farthest from a, u is a midpoint of a and b,
    and the fringe sources are whole levels of u, farthest first, up to the
    first level i with lb >= 2i, which is not run."""
    graphs = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        graphs += [(n, list(itertools.compress(pairs, (mask >> k & 1 for k in range(len(pairs))))))
                   for mask in range(1 << len(pairs))]
    for seed, (n, edges) in enumerate(_adversarial_graphs() * 3):
        label = random.Random(seed).sample(range(1, n + 1), n)
        graphs.append((n, [(label[u - 1], label[v - 1]) for u, v in edges]))
    assert max(n for n, _ in graphs) == 60
    calls, bfs = [], graph_layer._bfs

    def recorded(g, source):
        order, pred = bfs(g, source)
        calls.append((source + 1, order + 1))
        return order, pred

    monkeypatch.setattr(graph_layer, "_bfs", recorded)
    for n, edges in graphs:
        g = make_graph(n, edges)
        ref = brute_distance_matrix(n, edges)
        for s in range(1, n + 1):
            assert bfs_distances(g, s) == [ref[s].get(v, -1) for v in range(1, n + 1)], (n, edges, s)
        if len(ref[1]) < n:
            with pytest.raises(ValueError, match="disconnected"):
                diameter(g)
            continue
        calls.clear()
        ecc = {v: max(d.values()) for v, d in ref.items()}
        assert diameter(g) == max(ecc.values()), (n, edges)
        (_, first), (a, by_a), (u, _), *fringe = calls
        b, lb = by_a[-1], ecc[a]
        assert a == first[-1] and ref[1][a] == ecc[1] and ref[a][b] == lb, (n, edges)
        assert (ref[a][u], ref[b][u]) == (lb // 2, lb - lb // 2), (n, edges)
        levels = [ref[u][v] for v, _ in fringe]
        assert levels == sorted(levels, reverse=True), (n, edges)
        top = min(levels, default=ecc[u] + 1)
        assert sorted(v for v, _ in fringe) == sorted(v for v, d in ref[u].items() if d >= top)
        seen = max(lb, ecc[u])
        for level in sorted(set(levels), reverse=True):  # each level was needed, and no more
            assert seen < 2 * level, (n, edges)
            seen = max(seen, *(ecc[v] for v, _ in fringe if ref[u][v] == level))
        assert seen >= 2 * (top - 1), (n, edges)


def test_graph_layer_never_calls_dijkstra(monkeypatch):
    """One plain BFS is the graph layer's only traversal: with scipy's
    dijkstra made to raise, diameter, bfs_distances, the exact width report
    and a two-thread diameter sweep still run, the sweep's CSV equal to the
    serial one's.  The all-pairs reference, method="sparse", is the one
    exemption."""
    import scipy.sparse.csgraph

    def refuse(*args, **kwargs):
        raise AssertionError("dijkstra called")

    g = build_tangled(mallows_process(sample_trace(300, 0.9, 4)))
    want = diameter(g, method="sparse")
    sweep = dict(experiment="diameter", n_list=[25, 300], q_grid=[0.0, 0.7], trials=130)  # 3 chunks
    serial = render_csv(run_sweep(make_config(master_seed=11, thread_count=1, **sweep)))
    monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", refuse)
    assert diameter(g) == want and max(bfs_distances(g, 1)) <= want
    build_width_report(build_tangled(mallows_process(sample_trace(12, 0.5, 4))), exact=True)
    assert render_csv(run_sweep(make_config(master_seed=11, thread_count=2, **sweep))) == serial


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
        g = build_tangled(mallows_process(trace))
        assert cut_vertices_from_trace(trace) == articulation_points(g)


def test_diameter_cut_bound_exhaustive_small():
    """diameter >= |cut set| + 1 on every tangled graph with n <= 8."""
    for n in range(2, 9):
        count = 0
        for positions in itertools.product(*[range(1, i + 1) for i in range(1, n + 1)]):
            trace = InsertionTrace(positions=positions, q=0.5)
            g = build_tangled(mallows_process(trace))
            assert diameter(g) >= len(cut_vertices_from_trace(trace)) + 1
            count += 1
        assert count == math.factorial(n)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_edge_list_round_trip():
    trace = sample_trace(10, 0.5, 3)
    g = build_tangled(mallows_process(trace))
    text = format_edge_list(g)
    assert text.splitlines()[0] == "n=10"
    h = parse_edge_list(text)
    assert h.n == g.n and edge_pairs(h) == edge_pairs(g)


def test_edge_list_writes_the_edges_view():
    """format_edge_list, which reads the CSR arrays, writes exactly the lines
    of edge_pairs(g), itself checked against the arrays row by row: on
    random graphs, tangled graphs and at n = 1."""
    graphs = [make_graph(*random_graph(n, density, seed))
              for n, density, seed in ((2, 1.0, 1), (9, 0.3, 2), (40, 0.1, 3))]
    graphs += [build_tangled(mallows_process(sample_trace(n, q, seed)))
               for n, q, seed in ((1, 0.5, 4), (300, 0.9, 5), (300, 1.0, 6))]
    for g in graphs:
        _assert_csr_invariants(g)
        want = "\n".join([f"n={g.n}"] + [f"{u} {w}" for u, w in edge_pairs(g)])
        assert format_edge_list(g) == want
    assert format_edge_list(make_graph(1, [])) == "n=1"


def test_parse_edge_list_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_edge_list("vertices=3\n1 2\n")


@pytest.mark.parametrize("text, line, shown", [
    ("n=3\n1 2 3\n", 2, "1 2 3"),
    ("n=3\n1 2\n\n2\n", 4, "2"),
    ("n=3\n# a comment\n1 2\n", 2, "# a comment"),
    ("\nn=3\n1 2\n 1.5 2 \n", 4, "1.5 2"),
])
def test_parse_edge_list_names_the_bad_line(text, line, shown):
    """A malformed edge line is refused with its 1-based number in the text
    (blank lines counted) and its content, not Python's unpacking or int()
    message."""
    with pytest.raises(ValueError, match=re.escape(f"edge list line {line} is not 'u v': {shown!r}")):
        parse_edge_list(text)
