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
arrays, or the scipy matrix built from them on first use and cached, whose one
traversal, ``csgraph.breadth_first_order``, gives :func:`bfs_distances` and
:func:`diameter` every hop distance.  The one derived tuple view is ``edges``
(1-based, each edge once); :func:`format_edge_list` writes the same pairs
from the arrays.

This is the only module that imports scipy, and it does so on the first call
that traverses a graph: the cached matrix, a BFS or the all-pairs reference.
Building a graph, :func:`articulation_points` and every width routine are
numpy and plain Python, so trace-only work (sampling, events, exact
probabilities, the separator, flush-validate and displacement sweeps) and
the width and expansion sweeps never load scipy.  On a 2-vCPU x86 machine,
``import tangledpath`` takes about 29 MB of peak RSS and 0.15 s without it,
against about 61 MB and 0.5 s with it.

Every routine here and in :mod:`tangledpath.widths` takes a
:class:`TangledGraph` from :func:`build_tangled`, :func:`make_graph` (which
also builds the reference graphs, such as cycles and cliques, used to test
the width machinery) or :func:`parse_edge_list`.  Those constructors validate
their input; the routines trust it.

:func:`diameter` has one exact route, iFUB: a double sweep and the BFS runs
of a few fringe levels, each read off its order and tree, in O(n) memory.
``diameter(g, method="sparse")`` is the all-pairs reference that the tests
and the benchmark check it against; it holds an n x n matrix, so it refuses
n above 8192 with :class:`CapabilityError`.  One lowpoint DFS,
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


def _bfs(g: TangledGraph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """One O(n + m) BFS in C from 0-based ``source``: the vertices it reaches
    in BFS order, and each vertex's BFS-tree parent (negative at the source and
    where unreached); ``directed=True``, as the CSR holds both arc directions."""
    from scipy.sparse.csgraph import breadth_first_order

    return breadth_first_order(g._csr, source, directed=True, return_predecessors=True)


def _tree_path(pred: np.ndarray, v: int) -> list[int]:
    """v and its BFS-tree ancestors back to the source: a shortest path."""
    up, path = memoryview(pred), [v]
    while (v := up[v]) >= 0:
        path.append(v)
    return path


def _levels(g: TangledGraph, source: int) -> tuple[np.ndarray, list[int]]:
    """The BFS order from ``source``, and where each level starts in it, then
    its size.  BFS lists level i + 1 as the children of level i, parent by
    parent, so it ends after the children of every vertex before level i's end."""
    order, pred = _bfs(g, source)
    kids = np.bincount(pred[order[1:]], minlength=pred.size)[order]
    ends = memoryview(np.concatenate(([1], np.cumsum(kids) + 1)))
    s, starts = 0, [0]
    while s < order.size:
        starts.append(s := ends[s])
    return order, starts


def bfs_distances(g: TangledGraph, source: int) -> list[int]:
    """Hop distances from ``source`` (1-based), at index v-1 for vertex v;
    -1 marks unreachable vertices."""
    order, starts = _levels(g, as_int(source, "source", 1, g.n) - 1)
    d = np.full(g.n, -1)
    d[order] = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    return d.tolist()


def diameter(g: TangledGraph, method: str = "auto") -> int:
    """Exact diameter (max eccentricity); requires a connected graph.

    The default route is iFUB (Crescenzi, Grossi, Habib, Lanzi, Marino, "On
    computing the diameter of real-world undirected graphs", TCS 2013).  A
    double sweep from vertex 1 gives a lower bound lb = d(a, b), a and b each
    the last vertex of a BFS order, and u halfway along b's BFS-tree path back
    to a.  Then u's BFS levels are walked from the farthest one in, each
    vertex's eccentricity (the tree path of its BFS order's last vertex)
    raising lb, until lb >= 2i for the next level i: two vertices both within
    i of u are at most 2i apart, and every pair reaching farther out has had
    an endpoint's eccentricity counted.  Every BFS is one plain pass in C, in
    O(n) memory; near-path graphs stop after about four of them.

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
    order, _ = _bfs(g, 0)
    if order.size < g.n:
        raise ValueError("diameter of a disconnected graph is undefined")
    order, pred = _bfs(g, int(order[-1]))
    path = _tree_path(pred, int(order[-1]))  # from b back to a
    lb = len(path) - 1
    order, starts = _levels(g, path[lb - lb // 2])
    i = len(starts) - 2
    lb = max(lb, i)
    while lb < 2 * i:
        for v in order[starts[i]:starts[i + 1]].tolist():
            far, pred = _bfs(g, v)
            lb = max(lb, len(_tree_path(pred, int(far[-1]))) - 1)
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
    u, w = _edge_ends(g)
    lines = [f"n={g.n}"]
    lines.extend(map("{} {}".format, (u + 1).tolist(), (w + 1).tolist()))
    return "\n".join(lines)


def parse_edge_list(text: str) -> TangledGraph:
    """Read :func:`format_edge_list`'s text; a bad edge line is named."""
    lines = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("n="):
        raise ValueError("edge list must start with an 'n=<count>' line")
    edges = []
    for k, ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"edge list line {k} is not 'u v': {ln!r}") from None
        edges.append((u, v))
    return make_graph(int(lines[0][1][2:]), edges)
