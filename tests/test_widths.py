"""Treewidth, cutwidth, isoperimetric ratios, separators.

The exact solvers are cross-checked three ways: literal subset DP over
elimination sets (n <= 14), brute force over all orderings (n <= 7), and
known values for standard graphs.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tangledpath import (
    CapabilityError,
    build_tangled,
    build_width_report,
    cutwidth_exact,
    cut_vertices_from_trace,
    cutwidth_identity,
    edge_iso,
    make_graph,
    mallows_process,
    parse_trace,
    sample_trace,
    treewidth_bounds,
    treewidth_exact,
    unit_separator,
    vertex_iso,
)
from tangledpath.rng import derive
from tangledpath.widths import (
    _adjacency,
    _edge_boundary,
    _reduce,
    _subset_layers,
    _tw_decide,
    _vertex_boundary,
)
from conftest import (
    SplitMix64,
    _components,
    brute_articulation,
    brute_cutwidth,
    brute_treewidth_orders,
    brute_vertex_iso,
    complete_graph,
    cycle_graph,
    edge_pairs,
    enumerate_traces,
    grid_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_forest,
    random_graph,
    reference_cutwidth,
    reference_edge_boundary,
    reference_iso,
    reference_treewidth,
    reference_vertex_boundary,
    standardize,
    star_graph,
)


def _tangled(n, q, seed):
    trace = sample_trace(n, q, seed)
    return build_tangled(mallows_process(trace))


# ---------------------------------------------------------------------------
# treewidth
# ---------------------------------------------------------------------------


def test_treewidth_knowns():
    assert treewidth_exact(make_graph(*path_graph(10))) == 1
    assert treewidth_exact(make_graph(*cycle_graph(6))) == 2
    assert treewidth_exact(make_graph(*complete_graph(5))) == 4
    assert treewidth_exact(make_graph(*grid_graph(3, 3))) == 3
    assert treewidth_exact(make_graph(*grid_graph(4, 4))) == 4
    assert treewidth_exact(make_graph(*petersen_graph())) == 4
    assert treewidth_exact(make_graph(3, [])) == 0


def test_treewidth_matches_reference_dp():
    for seed in range(20):
        n, edges = random_connected_graph(10, 5, 3000 + seed)
        assert treewidth_exact(make_graph(n, edges)) == reference_treewidth(n, edges)
    for seed in range(20):
        g = _tangled(12, 0.6, seed)
        assert treewidth_exact(g) == reference_treewidth(g.n, list(edge_pairs(g)))
    for seed in range(40):  # n <= 10, possibly disconnected, isolated vertices
        n, edges = random_graph(1 + seed % 10, (seed % 5) / 6, 8100 + seed)
        assert treewidth_exact(make_graph(n, edges)) == reference_treewidth(n, edges)
    for seed in range(40):  # n <= 12, dense and rich in triangles
        n, edges = random_graph(5 + seed % 8, 0.3 + (seed % 5) / 10, 8200 + seed)
        assert treewidth_exact(make_graph(n, edges)) == reference_treewidth(n, edges)


def test_treewidth_matches_brute_orders():
    for seed in range(8):
        n, edges = random_connected_graph(6, 4, 4000 + seed)
        want = brute_treewidth_orders(n, edges)
        assert treewidth_exact(make_graph(n, edges)) == want
        assert reference_treewidth(n, edges) == want


def test_treewidth_on_forests_and_disjoint_cycles():
    """Forests have treewidth 1 (0 without edges); a disjoint cycle lifts it
    to 2."""
    for seed in range(40):
        n, edges = random_forest(1 + seed % 10, (seed % 5) / 4, 8000 + seed)
        assert treewidth_exact(make_graph(n, edges)) == (1 if edges else 0), (n, edges)
        c = 3 + seed % 4
        cycle = [(n + i, n + i + 1) for i in range(1, c)] + [(n + 1, n + c)]
        assert treewidth_exact(make_graph(n + c, edges + cycle)) == 2, (n, edges, c)


def test_reduce_pins_its_bound_and_cores():
    """_reduce's lower bound and core sizes on standard graphs: forests,
    cycles, cliques and wheels reduce to nothing; the 3x3 grid keeps its
    centre and edge midpoints, and the triangle-free Petersen graph is
    left whole.  A reduction that removes nothing would still give right
    treewidths, only slowly.

    Then pairs of graphs that differ only at x, the one neighbour of v
    outside a clique; joining x to that clique makes v simplicial.  On K33
    (low 3, no vertex reducible) v = 7 sees the edge 1-4 and x = 2: deg v =
    3 <= low, so v goes either way, and the rest falls after it.  With the
    triangle 7-8-9 hung on 1, 2, 3, v = 10 sees it and x = 4: deg v = 4 =
    low + 1, so v stays unless x joins the triangle, and then low is 4."""
    wheel = (6, [(1, v) for v in range(2, 7)] + [(u + 1, v + 1) for u, v in cycle_graph(5)[1]])
    k33 = [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]
    hung = k33 + [(7, 8), (7, 9), (8, 9), (1, 7), (2, 8), (3, 9), (7, 10), (8, 10), (9, 10)]
    for graph, want in ((path_graph(10), (1, [])), (star_graph(5), (1, [])), ((3, []), (0, [])),
                        (cycle_graph(6), (2, [])), (complete_graph(5), (4, [])), (wheel, (3, [])),
                        (grid_graph(3, 3), (2, [5])), (petersen_graph(), (3, [10])),
                        ((7, k33 + [(1, 7), (4, 7), (2, 7)]), (3, [])),
                        ((7, k33 + [(1, 7), (4, 7), (2, 7), (1, 2)]), (3, [])),
                        ((10, hung + [(4, 10)]), (3, [10])),
                        ((10, hung + [(4, 10), (4, 7), (4, 8), (4, 9)]), (4, []))):
        low, cores = _reduce(_adjacency(make_graph(*graph)))
        assert (low, [len(c) for c in cores]) == want, graph
        assert treewidth_exact(make_graph(*graph)) == reference_treewidth(*graph), graph


def test_tw_decide_accepts_the_treewidth_and_refuses_one_less():
    """The search straight on the unreduced graph: no order of width tw - 1,
    one of width tw.  treewidth_exact skips the round at tw when min-fill is
    already optimal, so only this checks the search's yes."""
    pairs = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    graphs = [(5, [e for i, e in enumerate(pairs) if mask >> i & 1]) for mask in range(1 << len(pairs))]
    graphs += [random_graph(2 + seed % 11, 0.1 + (seed % 7) / 10, 8400 + seed) for seed in range(200)]
    for n, edges in graphs:
        tw, adj = reference_treewidth(n, edges), _adjacency(make_graph(n, edges))
        assert (_tw_decide(adj, tw - 1), _tw_decide(adj, tw)) == (False, True), (n, edges)


def test_treewidth_on_every_graph_with_five_vertices():
    """All 1024 graphs on five labelled vertices, isolated vertices and
    forests among them: the reduction leaves forests and cycles no core,
    and the cores meet the subset-DP reference."""
    pairs = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    for mask in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        assert treewidth_exact(make_graph(5, edges)) == reference_treewidth(5, edges), edges


# treewidth_bounds on _tangled(n, q, 3).  Min-fill ties break by vertex order,
# so a change of that order moves the upper ends.
_BOUNDS_GOLDEN = {
    (40, 0.5): (2, 4), (40, 0.9): (3, 11), (40, 0.99): (3, 13),
    (120, 0.5): (3, 4), (120, 0.9): (3, 13), (120, 0.99): (3, 32),
    (300, 0.5): (3, 4), (300, 0.9): (3, 16), (300, 0.99): (3, 83),
}


def test_treewidth_bounds_goldens():
    for (n, q), want in _BOUNDS_GOLDEN.items():
        assert treewidth_bounds(_tangled(n, q, 3)) == want, (n, q)
    two_pieces = (9, [(1, 2), (2, 3), (1, 3), (5, 6), (6, 7), (7, 8), (8, 5), (5, 7), (6, 8)])
    for graph, want in ((random_graph(30, 0.08, 1), (2, 4)), (random_graph(60, 0.05, 2), (3, 10)),
                        (random_forest(50, 0.7, 3), (1, 1)), (random_graph(40, 0.3, 4), (8, 22)),
                        (two_pieces, (3, 3))):
        assert treewidth_bounds(make_graph(*graph)) == want, graph


def test_treewidth_cap():
    with pytest.raises(CapabilityError):
        treewidth_exact(make_graph(*path_graph(21)))
    with pytest.raises(CapabilityError, match="n <= 1024"):
        treewidth_bounds(make_graph(*path_graph(1025)))


def test_treewidth_bounds_sandwich():
    assert treewidth_bounds(make_graph(*complete_graph(6))) == (5, 5)
    assert treewidth_bounds(make_graph(*path_graph(100))) == (1, 1)
    assert treewidth_bounds(make_graph(5, [])) == (0, 0)
    for seed in range(30):
        g = _tangled(18, 0.7, 100 + seed)
        lo, hi = treewidth_bounds(g)
        assert lo <= treewidth_exact(g) <= hi


def test_subdivision_never_increases_treewidth():
    """Subdividing an edge leaves a topologically equivalent graph; its
    treewidth cannot go up."""
    rng = SplitMix64(77)
    for seed in range(50):
        n, edges = random_connected_graph(8 + seed % 5, 4, 7000 + seed)
        tw = treewidth_exact(make_graph(n, edges))
        u, v = edges[int(rng.uniform() * len(edges))]
        sub_edges = [e for e in edges if e != (u, v)] + [(u, n + 1), (v, n + 1)]
        assert treewidth_exact(make_graph(n + 1, sub_edges)) <= max(tw, 1)


def test_consecutive_pattern_monotonicity_small():
    rng = SplitMix64(5150)
    for trial in range(20):
        trace = sample_trace(9, 0.8, derive(31, trial))
        pi = mallows_process(trace)
        k = 3 + int(rng.uniform() * 3)
        start = int(rng.uniform() * (9 - k))
        pattern = standardize(pi.image[start : start + k])
        assert treewidth_exact(build_tangled(pattern)) <= treewidth_exact(
            build_tangled(pi)
        )


# ---------------------------------------------------------------------------
# cutwidth
# ---------------------------------------------------------------------------


def test_cutwidth_knowns():
    assert cutwidth_exact(make_graph(*path_graph(10))) == 1
    assert cutwidth_exact(make_graph(*complete_graph(5))) == 6
    assert cutwidth_exact(make_graph(*cycle_graph(6))) == 2
    assert cutwidth_exact(make_graph(*star_graph(4))) == 2


def test_cutwidth_matches_brute():
    for seed in range(10):
        n, edges = random_connected_graph(6, 5, 5000 + seed)
        assert cutwidth_exact(make_graph(n, edges)) == brute_cutwidth(n, edges)


def _assert_subset_dps_match_reference(g):
    n, edges = g.n, edge_pairs(g)
    eb, vb = reference_edge_boundary(n, edges), reference_vertex_boundary(n, edges)
    assert np.array_equal(_edge_boundary(g), eb), edges
    assert np.array_equal(_vertex_boundary(g), vb), edges
    assert cutwidth_exact(g) == reference_cutwidth(n, edges), edges
    if n >= 2:
        assert edge_iso(g) == reference_iso(n, eb), edges
        assert vertex_iso(g) == reference_iso(n, vb), edges


def test_subset_dps_match_masked_references():
    """Boundaries built by top bit and the one-gather cutwidth layers against
    the per-edge, per-vertex masked routes: every distinct tangled graph of
    n <= 7, seeded tangled graphs at n = 8 and 9, and random graphs of
    n <= 12, edgeless, disconnected and complete ones included."""
    traces = (t for n in range(1, 8) for t, _ in enumerate_traces(n, 1.0))
    graphs = list({edge_pairs(g): g
                   for g in (build_tangled(mallows_process(t)) for t in traces)}.values())
    graphs += [_tangled(n, q, derive(15, n, s)) for n in (8, 9) for q in (0.5, 0.9, 1.0)
               for s in range(8)]
    graphs += [make_graph(*random_graph(n, d, 9100 + 13 * n + s))
               for n in range(1, 13) for s, d in enumerate((0.0, 0.15, 0.4, 0.7, 1.0))]
    assert any(not edge_pairs(g) for g in graphs)
    assert any(len(edge_pairs(g)) == g.n * (g.n - 1) // 2 == 66 for g in graphs)
    for g in graphs:
        _assert_subset_dps_match_reference(g)


@pytest.mark.parametrize("q", [0.5, 0.9, 1.0])
def test_subset_dps_match_masked_references_at_cap(q):
    _assert_subset_dps_match_reference(_tangled(20, q, derive(15, 20)))


def test_subset_dps_memory_at_cap():
    """tracemalloc peaks at n = 20 stay within those of the masked routes:
    36 MB for cutwidth_exact and edge_iso, 26 MB for vertex_iso."""
    g = _tangled(20, 0.9, derive(15, 20))
    for f, bound in ((cutwidth_exact, 36), (edge_iso, 36), (vertex_iso, 26)):
        tracemalloc.start()
        try:
            f(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20, (f.__name__, peak)


def test_cutwidth_identity_profile():
    g = _tangled(15, 0.5, 8)
    width, profile = cutwidth_identity(g)
    assert len(profile) == g.n - 1
    for i in range(1, g.n):
        manual = sum(1 for u, v in edge_pairs(g) if u <= i < v)
        assert profile[i - 1] == manual
    assert width == max(profile)
    assert cutwidth_exact(_tangled(12, 0.5, 8)) <= cutwidth_identity(_tangled(12, 0.5, 8))[0]
    # n <= 10, possibly disconnected, isolated vertices: the per-cut loop
    # over the input edge list
    for seed in range(60):
        n, edges = random_graph(1 + seed % 10, (seed % 5) / 6, 8200 + seed)
        width, profile = cutwidth_identity(make_graph(n, edges))
        manual = tuple(sum(1 for u, v in edges if u <= i < v) for i in range(1, n))
        assert profile == manual and width == max(manual, default=0), (n, edges)
        assert all(type(x) is int for x in (width, *profile))


def test_cutwidth_identity_path():
    width, profile = cutwidth_identity(make_graph(*path_graph(10)))
    assert width == 1 and profile == (1,) * 9


# ---------------------------------------------------------------------------
# isoperimetric ratios
# ---------------------------------------------------------------------------


def test_iso_knowns():
    assert vertex_iso(make_graph(*path_graph(4))) == Fraction(1, 2)
    assert edge_iso(make_graph(*complete_graph(4))) == Fraction(2, 1)
    assert vertex_iso(make_graph(*cycle_graph(8))) == Fraction(1, 2)


def test_vertex_iso_matches_brute():
    for seed in range(12):
        n, edges = random_connected_graph(8, 4, 6000 + seed)
        assert vertex_iso(make_graph(n, edges)) == brute_vertex_iso(n, edges)


def test_iso_rejects_tiny():
    with pytest.raises(ValueError):
        vertex_iso(make_graph(1, []))


def test_width_chain_on_tangled_instances():
    """Expansion lower bound and the layout upper chain.

    A (s, 2/3)-separator (A, B, S) with |A| <= |B| has |A| between n/3 - s
    and n/2, and N(A) inside S, so iso <= s / (n/3 - s), giving
    s >= iso * n / (3 (1 + iso)); combined with s - 1 <= tw this is the
    correct form of the expansion-to-treewidth link (the stronger
    floor(iso * n) - 1 <= tw fails even on an 8-cycle, see below).
    """
    for trial in range(25):
        n = 6 + trial % 9
        g = _tangled(n, 0.7, derive(88, trial))
        iso = vertex_iso(g)
        tw = treewidth_exact(g)
        cw = cutwidth_exact(g)
        cwid, _ = cutwidth_identity(g)
        lower = math.ceil(iso * n / (3 * (1 + iso))) - 1
        assert lower <= tw <= cw <= cwid <= len(edge_pairs(g))


def test_iso_times_n_does_not_lower_bound_treewidth():
    """The unscaled inequality floor(iso * n) - 1 <= tw is false in general:
    C8 has iso = 1/2 and treewidth 2, but floor(4) - 1 = 3."""
    g = make_graph(*cycle_graph(8))
    assert vertex_iso(g) == Fraction(1, 2)
    assert treewidth_exact(g) == 2
    assert math.floor(vertex_iso(g) * 8) - 1 > treewidth_exact(g)


# ---------------------------------------------------------------------------
# separators and boundary counts
# ---------------------------------------------------------------------------


def test_unit_separator_goldens():
    # P9: smallest qualifying cut vertex is 3 (sides 2 and 6, both <= 6)
    assert unit_separator(make_graph(*path_graph(9)), 2 / 3) == (3, (2, 6))
    assert unit_separator(make_graph(*complete_graph(5)), 2 / 3) is None
    fig = parse_trace("1 1 3 2 1 1 1 3 2", 0.5)
    g = build_tangled(mallows_process(fig))
    k, (a, b) = unit_separator(g, 2 / 3)
    assert k == 5 and a + b == 8 and max(a, b) <= 6


def test_unit_separator_at_large_n_is_first_balanced_trace_cut():
    """On a tangled graph the sides of cut vertex k are {1..k-1} and {k+1..n},
    so the answer is the first trace-detected cut vertex with both sides at
    most alpha * n."""
    n, alpha = 10**4, 0.55
    trace = sample_trace(n, 0.5, 9)
    cuts = sorted(cut_vertices_from_trace(trace))
    k = next(k for k in cuts if k - 1 <= alpha * n and n - k <= alpha * n)
    assert k > cuts[0]  # the alpha cap rules out the first cut vertices
    assert unit_separator(build_tangled(mallows_process(trace)), alpha) == (k, (min(k - 1, n - k), max(k - 1, n - k)))


def _separator_oracle(n, edges, alpha):
    """Smallest cut vertex whose components, removed from the graph one by
    one, can be grouped into two sides of at most alpha * n vertices each,
    with the most even such split."""
    total = n - 1
    for k in sorted(brute_articulation(n, edges)):
        sums = {0}
        for comp in _components(n, edges, removed={k}):
            sums |= {a + len(comp) for a in sums}
        fits = [a for a in sums if a <= alpha * n and total - a <= alpha * n]
        if fits:
            a = min(fits, key=lambda a: abs(2 * a - total))
            return k, (min(a, total - a), max(a, total - a))
    return None


def test_unit_separator_matches_component_oracle():
    """Connected graphs with n <= 10, among them spiders whose centre leaves
    three or more components, against literal components and subset sums."""
    graphs = [random_connected_graph(n, extra, 8300 + 10 * n + extra)
              for n in range(3, 11) for extra in (0, 1, 3)]
    graphs += [star_graph(k) for k in (2, 3, 5, 9)]
    for legs in ((1, 1, 1), (1, 2, 4), (3, 3, 3), (1, 1, 2, 5), (2, 2, 2, 3)):
        edges, n = [], 1
        for length in legs:
            prev = 1
            for _ in range(length):
                n += 1
                edges.append((prev, n))
                prev = n
        graphs.append((n, edges))
    graphs += [(g.n, list(edge_pairs(g)))
               for g in (_tangled(n, 0.6, 8400 + n) for n in range(3, 11))]
    three_way = 0
    for n, edges in graphs:
        g = make_graph(n, edges)
        for alpha in (Fraction(11, 20), Fraction(2, 3), Fraction(4, 5), Fraction(19, 20)):
            want = _separator_oracle(n, edges, alpha)
            assert unit_separator(g, float(alpha)) == want, (n, edges, alpha)
            if want is not None:
                three_way += len(_components(n, edges, removed={want[0]})) >= 3
    assert three_way >= 10


def test_unit_separator_alpha_validation():
    with pytest.raises(ValueError):
        unit_separator(make_graph(*path_graph(5)), 0.4)


def _path_subsets_by_boundary(n):
    """Count subsets of the path's vertices by exact edge-boundary size."""
    by_boundary = {}
    for bits in range(1 << n):
        cuts = sum(1 for i in range(n - 1) if ((bits >> i) & 1) != ((bits >> (i + 1)) & 1))
        by_boundary[cuts] = by_boundary.get(cuts, 0) + 1
    return by_boundary


def test_boundary_subset_count_formula():
    # {1}, {3}, {1, 2}, {2, 3} on P_3; {1, 3, 5} and {2, 4} on P_5
    assert _path_subsets_by_boundary(3)[1] == 4 == 2 * math.comb(2, 1)
    assert _path_subsets_by_boundary(5)[4] == 2 == 2 * math.comb(4, 4)


@pytest.mark.parametrize("n", [2, 4, 7, 10])
def test_boundary_subset_count_matches_enumeration(n):
    """A path P_n has 2 * C(n - 1, k) vertex subsets with k boundary edges."""
    by_boundary = _path_subsets_by_boundary(n)
    for k in range(1, n):
        assert 2 * math.comb(n - 1, k) == by_boundary.get(k, 0)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_width_report_round_trip():
    g = _tangled(10, 0.5, 4)
    report = build_width_report(g, exact=True)
    assert report.edge_count == len(edge_pairs(g))
    assert report.treewidth == treewidth_exact(g)
    assert report.cutwidth_identity == cutwidth_identity(g)[0]
    assert report.cutwidth_exact == cutwidth_exact(g)
    assert (report.vertex_iso, report.edge_iso) == (vertex_iso(g), edge_iso(g))
    assert not hasattr(report, "to_json") and not hasattr(report, "cutwidth_profile")


def test_width_report_large_uses_bounds():
    g = _tangled(64, 0.5, 4)
    report = build_width_report(g)
    assert report.treewidth == treewidth_bounds(g)
    assert report.cutwidth_exact is None and report.vertex_iso is None


def test_subset_layers_are_kept_for_the_latest_n():
    """_subset_layers(n) equals a fresh sort, with every size's subsets in
    their run; a second call returns the same read-only arrays, and another
    n replaces them: one n is kept at a time."""
    for n in (1, 5, 12):
        order, ends = _subset_layers(n)
        fresh_order, fresh_ends = _subset_layers.__wrapped__(n)
        assert np.array_equal(order, fresh_order) and np.array_equal(ends, fresh_ends)
        sizes = np.bitwise_count(order.astype(np.uint32))
        assert np.array_equal(sizes, np.repeat(np.arange(n + 1), np.diff(ends, prepend=0)))
        again = _subset_layers(n)
        assert again[0] is order and again[1] is ends
        assert not order.flags.writeable and not ends.flags.writeable
        assert _subset_layers.cache_info().currsize == 1
