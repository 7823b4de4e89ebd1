"""Tangled graphs and basic structure: construction, BFS, diameter,
articulation points.

The tangled graph of a permutation sigma of {1..n} is the union of the path
1-2-...-n with the permuted path sigma(1)-sigma(2)-...-sigma(n), with duplicate
edges collapsed.  It is always connected (it contains the path), has at most
2(n-1) edges, and maximum degree at most 4.  Reversing sigma produces the same
graph, which is why process outputs r_n can be used without reversal.

Every routine here and in :mod:`tangledpath.widths` takes a
:class:`TangledGraph` from :func:`build_tangled`, :func:`graph_from_trace`,
:func:`make_graph` (which also builds the reference graphs, such as cycles and
cliques, used to test the width machinery) or :func:`parse_edge_list`.  Those
constructors validate their input; the routines trust it.

:func:`diameter` has one exact route, iFUB: a double sweep and the BFS runs
of a few fringe levels, all in C through scipy.sparse.csgraph, in O(n)
memory.  ``diameter(g, method="sparse")`` is the all-pairs reference that the
tests and the benchmark check it against; it holds an n x n matrix, so it
refuses n above 8192 with :class:`CapabilityError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra
from scipy.sparse.csgraph import shortest_path as _sp_shortest_path

from .errors import CapabilityError
from .mallows import InsertionTrace, Permutation, mallows_process

# Distances one BFS call into C may return: diameter() sends a fringe level's
# sources in blocks of at most this many // n, so its memory stays O(n)
# (32 MB of float64) whatever the size of the level.
_BFS_BLOCK_ENTRIES = 1 << 22

# The all-pairs reference route holds a dense n x n float64 matrix; above
# this size (0.5 GB) it refuses instead of running the machine out of memory.
_ALL_PAIRS_MAX_N = 8192


@dataclass(frozen=True)
class TangledGraph:
    """An undirected graph on {1..n} with sorted, deduplicated edges;
    ``adjacency[v - 1]`` lists the neighbors of vertex v in increasing order."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    # A dict is unhashable; equality still compares it, so equal graphs hash equal.
    provenance: dict | None = field(default=None, hash=False)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v - 1])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v - 1]


def _from_pairs(
    n: int, pairs: Iterable[tuple[int, int]], provenance: dict | None = None
) -> TangledGraph:
    """Graph on 1..n from vertex pairs already known to be valid edges."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in pairs:
        nbrs[a - 1].add(b)
        nbrs[b - 1].add(a)
    adjacency = tuple(tuple(sorted(a)) for a in nbrs)
    edges = tuple((u, w) for u, ns in enumerate(adjacency, 1) for w in ns if u < w)
    return TangledGraph(n, edges, adjacency, provenance)


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> TangledGraph:
    """Build a TangledGraph from an arbitrary 1-based edge list.

    This is where edge lists are validated: vertices must lie in 1..n and
    self-loops are refused; duplicate and reversed edges collapse.
    """
    n = int(n)
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    clean = []
    for u, v in edges:
        u, v = int(u), int(v)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range 1..{n}")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        clean.append((u, v))
    return _from_pairs(n, clean)


def build_tangled(
    sigma: Permutation | Sequence[int],
    trace: InsertionTrace | None = None,
) -> TangledGraph:
    """Union of the path on 1..n with the sigma-permuted path.

    Duplicate edges collapse, so the edge count is at most 2(n-1); every vertex
    keeps degree at most 4 (two path neighbors, two permuted-path neighbors).
    A raw sequence is checked to be a permutation; a :class:`Permutation`
    already is one.  An optional trace is recorded as provenance.
    """
    if isinstance(sigma, Permutation):
        img = sigma.image
    else:
        img = tuple(int(x) for x in sigma)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError("sigma is not a permutation of 1..n")
    n = len(img)
    prov = None
    if trace is not None:
        prov = {"positions": trace.positions, "q": trace.q, "seed": trace.seed}
    pairs = chain(zip(range(1, n), range(2, n + 1)), zip(img, img[1:]))
    return _from_pairs(n, pairs, prov)


def graph_from_trace(trace: InsertionTrace | Sequence[int]) -> TangledGraph:
    """Tangled graph of the process output of ``trace`` (reversal-invariant)."""
    sigma = mallows_process(trace)
    return build_tangled(sigma, trace if isinstance(trace, InsertionTrace) else None)


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------


def bfs_distances(g: TangledGraph, source: int) -> list[int]:
    """Hop distances from ``source`` (1-based), at index v-1 for vertex v;
    -1 marks unreachable vertices."""
    n, adj = g.n, g.adjacency
    if not 1 <= source <= n:
        raise ValueError(f"source {source} outside 1..{n}")
    dist = [-1] * (n + 1)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u - 1]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist[1:]


def is_connected(g: TangledGraph) -> bool:
    return -1 not in bfs_distances(g, 1)


def _csr(g: TangledGraph) -> csr_matrix:
    """The adjacency as a CSR matrix, each edge stored in both directions."""
    indptr = np.zeros(g.n + 1, dtype=np.int32)
    np.cumsum([len(a) for a in g.adjacency], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(g.adjacency), np.int32, indptr[-1]) - 1
    return csr_matrix((np.ones(indices.size), indices, indptr), shape=(g.n, g.n))


def _bfs(csr: csr_matrix, sources) -> np.ndarray:
    """Hop distances in C from 0-based ``sources``: one row per source, or a
    single row for an int; ``inf`` marks unreachable vertices.
    ``directed=True`` because the CSR already holds both directions of every
    edge."""
    return _dijkstra(csr, directed=True, unweighted=True, indices=sources)


def diameter(g: TangledGraph, method: str = "auto") -> int:
    """Exact diameter (max eccentricity); requires a connected graph.

    The default route is iFUB (Crescenzi, Grossi, Habib, Lanzi, Marino, "On
    computing the diameter of real-world undirected graphs", TCS 2013).  A
    double sweep from vertex 1 gives a lower bound lb = d(a, b) and a vertex u
    halfway between a and b.  Then u's BFS levels are walked from the farthest
    one in, each vertex's eccentricity raising lb, until lb >= 2i for the next
    level i: two vertices both within i of u are at most 2i apart, and every
    pair reaching farther out has had an endpoint's eccentricity counted.
    Near-path graphs stop after about four BFS runs; every BFS runs in C on one
    CSR, fringe levels in blocks of at most ``_BFS_BLOCK_ENTRIES // n``
    sources, so memory stays O(n).

    ``method="sparse"`` is the independent reference the tests compare
    against: scipy's all-pairs pass over a dense n x n matrix.  It raises
    :class:`CapabilityError` above n = ``_ALL_PAIRS_MAX_N``.
    """
    if method == "sparse":
        if g.n > _ALL_PAIRS_MAX_N:
            raise CapabilityError(
                f"all-pairs diameter holds an n x n matrix; n={g.n} exceeds {_ALL_PAIRS_MAX_N}"
            )
        dm = _sp_shortest_path(_csr(g), method="D", unweighted=True, directed=False)
        if np.isinf(dm).any():
            raise ValueError("diameter of a disconnected graph is undefined")
        return int(dm.max())
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    csr = _csr(g)
    first = _bfs(csr, 0)
    if np.isinf(first).any():
        raise ValueError("diameter of a disconnected graph is undefined")
    da = _bfs(csr, int(first.argmax()))
    lb = int(da.max())
    db = _bfs(csr, int(da.argmax()))
    half = lb // 2
    du = _bfs(csr, int(np.flatnonzero((da == half) & (db == lb - half))[0]))
    i = int(du.max())
    lb = max(lb, int(db.max()), i)
    block = max(1, _BFS_BLOCK_ENTRIES // g.n)
    while lb < 2 * i:
        level = np.flatnonzero(du == i)
        for k in range(0, level.size, block):
            lb = max(lb, int(_bfs(csr, level[k:k + block]).max()))
        i -= 1
    return lb


# ---------------------------------------------------------------------------
# articulation points
# ---------------------------------------------------------------------------


def articulation_points(g: TangledGraph) -> set[int]:
    """Cut vertices of a connected graph, via one iterative lowpoint DFS.

    Disconnected input is a domain error: articulation structure of separate
    components is not what callers of this package mean.
    """
    n, adj = g.n, g.adjacency
    # Indexed by 1-based vertex; slot 0 is unused, so parent 0 means "root".
    disc = [-1] * (n + 1)
    low = [0] * (n + 1)
    parent = [0] * (n + 1)
    child_count = [0] * (n + 1)
    is_cut = [False] * (n + 1)

    # Explicit stack of (vertex, neighbor iterator index) so deep path-like
    # graphs never hit the recursion limit.
    stack: list[tuple[int, int]] = [(1, 0)]
    disc[1] = low[1] = 0
    timer = 1
    while stack:
        u, ptr = stack[-1]
        nbrs = adj[u - 1]
        if ptr < len(nbrs):
            stack[-1] = (u, ptr + 1)
            w = nbrs[ptr]
            if disc[w] < 0:
                parent[w] = u
                child_count[u] += 1
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, 0))
            elif w != parent[u]:
                low[u] = min(low[u], disc[w])
        else:
            stack.pop()
            p = parent[u]
            if p:
                low[p] = min(low[p], low[u])
                if parent[p] and low[u] >= disc[p]:
                    is_cut[p] = True
    if timer < n:
        raise ValueError("articulation points require a connected graph")
    if child_count[1] >= 2:
        is_cut[1] = True
    return {v for v in range(1, n + 1) if is_cut[v]}


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def format_edge_list(g: TangledGraph) -> str:
    """'n=<n>' on the first line, then one sorted 'u v' pair per line."""
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines)


def parse_edge_list(text: str) -> TangledGraph:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("edge list must start with an 'n=<count>' line")
    n = int(lines[0][2:])
    edges = []
    for ln in lines[1:]:
        u, v = ln.split()
        edges.append((int(u), int(v)))
    return make_graph(n, edges)
