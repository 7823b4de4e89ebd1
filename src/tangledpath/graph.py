"""Tangled graphs and basic structure: construction, BFS, diameter,
articulation points.

The tangled graph of a permutation sigma of {1..n} is the union of the path
1-2-...-n with the permuted path sigma(1)-sigma(2)-...-sigma(n), with duplicate
edges collapsed.  It is always connected (it contains the path), has at most
2(n-1) edges, and maximum degree at most 4.  Reversing sigma produces the same
graph, which is why process outputs r_n can be used without reversal.

A :class:`TangledGraph` is a 0-based CSR adjacency: int32 arrays ``indptr``
(n + 1 row offsets) and ``indices`` (each edge in both directions, every row
sorted, no duplicates), built in numpy by sorting the keys a*n + b of the
vertex pairs and dropping repeats.  Every graph and width routine reads these
arrays, or the scipy matrix built from them on first use and cached, which is
the one BFS engine: :func:`bfs_distances` and :func:`diameter` both run
scipy.sparse.csgraph on it.  The one derived tuple view is ``edges`` (1-based,
each edge once), read by :func:`format_edge_list`.

This is the only module that imports scipy, and it does so on the first call
that traverses a graph: the cached matrix, a BFS, the all-pairs reference, or
the component count that :mod:`tangledpath.widths` reads.  Building a graph
and :func:`articulation_points` are numpy and plain Python, so trace-only
work (sampling, events, exact probabilities, the separator, flush-validate
and displacement sweeps) never loads scipy.  On a 2-vCPU x86 machine,
``import tangledpath`` takes about 29 MB of peak RSS and 0.15 s without it,
against about 61 MB and 0.5 s with it.

Every routine here and in :mod:`tangledpath.widths` takes a
:class:`TangledGraph` from :func:`build_tangled`, :func:`make_graph` (which
also builds the reference graphs, such as cycles and cliques, used to test
the width machinery) or :func:`parse_edge_list`.  Those constructors validate
their input; the routines trust it.

:func:`diameter` has one exact route, iFUB: a double sweep and the BFS runs
of a few fringe levels, all in C through scipy.sparse.csgraph, in O(n)
memory.  ``diameter(g, method="sparse")`` is the all-pairs reference that the
tests and the benchmark check it against; it holds an n x n matrix, so it
refuses n above 8192 with :class:`CapabilityError`.  One lowpoint DFS,
``_cut_sides``, gives every cut vertex k and the component sizes of g - k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ._util import as_int, as_int64
from .errors import CapabilityError
from .mallows import Permutation, _unchecked

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# Distances one BFS call into C may return: diameter() sends a fringe level's
# sources in blocks of at most this many // n, so its memory stays O(n)
# (32 MB of float64) whatever the size of the level.
_BFS_BLOCK_ENTRIES = 1 << 22

# The all-pairs reference route holds a dense n x n float64 matrix; above
# this size (0.5 GB) it refuses instead of running the machine out of memory.
_ALL_PAIRS_MAX_N = 8192


@dataclass(frozen=True, eq=False)
class TangledGraph:
    """An undirected graph on {1..n}: vertex v's neighbors are
    ``indices[indptr[v - 1]:indptr[v]] + 1``, in increasing order.

    Graphs are equal, and hash equal, when n and the edge set are.  Built
    directly, it refuses (ValueError) arrays that are not such an adjacency.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        n = as_int(self.n, "vertex count", 1)
        ptr, idx = (as_int64(a, "CSR arrays") for a in (self.indptr, self.indices))
        if (ptr.shape == (n + 1,) and idx.ndim == 1 and ptr[0] == 0 and ptr[-1] == idx.size
                and (np.diff(ptr) >= 0).all() and (idx >= 0).all() and (idx < n).all()):
            rows = np.repeat(np.arange(n), np.diff(ptr))
            g = _from_pairs(n, rows, idx)  # the same arrays exactly when they are valid
            if (rows != idx).all() and np.array_equal(g.indptr, ptr) and np.array_equal(g.indices, idx):
                self.__dict__.update(indptr=g.indptr, indices=g.indices)
                return
        raise ValueError(f"not a CSR adjacency on {n} vertices; build graphs with the "
                         "checked constructors build_tangled, make_graph or parse_edge_list")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TangledGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.indptr.tobytes(), self.indices.tobytes()))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once, as (u, w) with u < w, in increasing order."""
        u, w = _edge_ends(self)
        return tuple(zip((u + 1).tolist(), (w + 1).tolist()))

    @cached_property
    def _csr(self) -> csr_matrix:
        """The adjacency as a scipy CSR matrix, built once."""
        from scipy.sparse import csr_matrix

        data = np.ones(self.indices.size)
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


def _edge_ends(g: TangledGraph) -> tuple[np.ndarray, np.ndarray]:
    """Every edge once as 0-based end arrays (u, w), u < w, in CSR order."""
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    up = g.indices > rows
    return rows[up], g.indices[up]


def _from_pairs(n: int, a: np.ndarray, b: np.ndarray) -> TangledGraph:
    """Graph on 1..n from int64 arrays of 0-based endpoints of valid edges
    (either orientation, repeats allowed)."""
    keys = np.concatenate([a * n + b, b * n + a])
    keys.sort()
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    keys = keys[keep]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    indices = (keys % n).astype(np.int32)
    indptr.flags.writeable = indices.flags.writeable = False
    return _unchecked(TangledGraph, n=n, indptr=indptr, indices=indices)


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> TangledGraph:
    """Build a TangledGraph from an arbitrary 1-based edge list.

    This is where edge lists are validated: n is an integer, vertices lie in
    1..n, self-loops are refused; duplicate and reversed edges collapse.
    """
    n = as_int(n, "vertex count", 1)
    pairs = list(edges)
    e = as_int64(pairs, "edge endpoints").reshape(len(pairs), 2)
    u, v = e.T
    outside = (u < 1) | (u > n) | (v < 1) | (v > n)
    bad = outside | (u == v)
    if bad.any():
        k = int(bad.argmax())
        a, b = e[k].tolist()
        if outside[k]:
            raise ValueError(f"edge ({a}, {b}) outside vertex range 1..{n}")
        raise ValueError(f"self-loop at {a}")
    return _from_pairs(n, u - 1, v - 1)


def build_tangled(sigma: Permutation | Sequence[int]) -> TangledGraph:
    """Union of the path on 1..n with the sigma-permuted path.

    Duplicate edges collapse, so the edge count is at most 2(n-1); every vertex
    keeps degree at most 4 (two path neighbors, two permuted-path neighbors).
    A raw sequence is checked to be a permutation; a :class:`Permutation`
    already is one.  An empty permutation, with no graph, is refused.
    """
    if not isinstance(sigma, Permutation):
        sigma = Permutation(sigma)
    if not sigma.image:
        raise ValueError("a tangled graph needs a permutation of n >= 1")
    img = np.array(sigma.image, dtype=np.int64) - 1
    path = np.arange(img.size - 1)
    a = np.concatenate([path, img[:-1]])
    b = np.concatenate([path + 1, img[1:]])
    return _from_pairs(img.size, a, b)


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------


def _bfs(csr: csr_matrix, sources) -> np.ndarray:
    """Hop distances in C from 0-based ``sources``: one row per source, or a
    single row for an int; ``inf`` marks unreachable vertices.
    ``directed=True`` because the CSR already holds both directions of every
    edge."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(csr, directed=True, unweighted=True, indices=sources)


def _component_count(g: TangledGraph) -> int:
    """Number of connected components, found in C on the cached matrix.  The
    CSR holds both directions of every edge, so its strong components are the
    components, found without the transpose the weak route builds."""
    from scipy.sparse.csgraph import connected_components

    return connected_components(g._csr, connection="strong")[0]


def bfs_distances(g: TangledGraph, source: int) -> list[int]:
    """Hop distances from ``source`` (1-based), at index v-1 for vertex v;
    -1 marks unreachable vertices."""
    source = as_int(source, "source", 1, g.n)
    d = _bfs(g._csr, source - 1)
    d[np.isinf(d)] = -1
    return d.astype(np.int64).tolist()


def diameter(g: TangledGraph, method: str = "auto") -> int:
    """Exact diameter (max eccentricity); requires a connected graph.

    The default route is iFUB (Crescenzi, Grossi, Habib, Lanzi, Marino, "On
    computing the diameter of real-world undirected graphs", TCS 2013).  A
    double sweep from vertex 1 gives a lower bound lb = d(a, b) and a vertex u
    halfway between a and b.  Then u's BFS levels are walked from the farthest
    one in, each vertex's eccentricity raising lb, until lb >= 2i for the next
    level i: two vertices both within i of u are at most 2i apart, and every
    pair reaching farther out has had an endpoint's eccentricity counted.
    Near-path graphs stop after about four BFS runs; every BFS runs in C on the
    graph's one CSR matrix, fringe levels in blocks of at most
    ``_BFS_BLOCK_ENTRIES // n`` sources, so memory stays O(n).

    ``method="sparse"`` is the independent reference the tests compare
    against: scipy's all-pairs pass over a dense n x n matrix.  It raises
    :class:`CapabilityError` above n = ``_ALL_PAIRS_MAX_N``.
    """
    if method == "sparse":
        if g.n > _ALL_PAIRS_MAX_N:
            raise CapabilityError(
                f"all-pairs diameter holds an n x n matrix; n={g.n} exceeds {_ALL_PAIRS_MAX_N}"
            )
        from scipy.sparse.csgraph import shortest_path

        dm = shortest_path(g._csr, method="D", unweighted=True, directed=False)
        if np.isinf(dm).any():
            raise ValueError("diameter of a disconnected graph is undefined")
        return int(dm.max())
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    csr = g._csr
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


def _cut_sides(g: TangledGraph) -> dict[int, list[int]]:
    """{0-based cut vertex k: component sizes of g - k} of a connected graph,
    by one iterative lowpoint DFS (Hopcroft-Tarjan, CACM 1973) over flat lists.

    A child u with low[u] >= disc[p] is a component of size[u] vertices once p
    goes; a non-root p also leaves the rest, n - 1 minus those.  The root cuts
    only with two or more children.  Disconnected input is a domain error."""
    n = g.n
    ptr, nbr = g.indptr.tolist(), g.indices.tolist()
    nxt = ptr[:-1]  # next unread slot of each vertex's row
    # 0-based vertices; the root 0 has parent -1.
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    size = [1] * n
    sides: dict[int, list[int]] = {}

    # An explicit stack, so deep path-like graphs never hit the recursion limit.
    stack = [0]
    disc[0] = 0
    timer = 1
    while stack:
        u = stack[-1]
        k, end, lu = nxt[u], ptr[u + 1], low[u]
        while k < end:  # read u's row up to its next unvisited neighbor
            w = nbr[k]
            k += 1
            if disc[w] < 0:
                break
            if disc[w] < lu and w != parent[u]:
                lu = disc[w]
        else:  # row done: u's subtree is finished
            low[u] = lu
            stack.pop()
            p = parent[u]
            if p >= 0:
                size[p] += size[u]
                if lu < low[p]:
                    low[p] = lu  # then lu < disc[p]: no cut below p
                elif lu >= disc[p]:
                    sides.setdefault(p, []).append(size[u])
            continue
        nxt[u], low[u] = k, lu
        parent[w] = u
        disc[w] = low[w] = timer
        timer += 1
        stack.append(w)
    if timer < n:
        raise ValueError("articulation points require a connected graph")
    if len(sides.get(0, ())) < 2:
        sides.pop(0, None)
    for p, s in sides.items():
        if p:
            s.append(n - 1 - sum(s))
    return sides


def articulation_points(g: TangledGraph) -> set[int]:
    """Cut vertices (1-based) of a connected graph, read off the graph alone."""
    return {v + 1 for v in _cut_sides(g)}


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
