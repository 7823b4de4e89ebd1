"""Exact width parameters at desk scale: treewidth, cutwidth, isoperimetry.

Exact solvers (treewidth_exact, cutwidth_exact, vertex_iso, edge_iso) cap at
n = 20 and refuse larger inputs with :class:`CapabilityError` so callers always
know which numbers are exact.  Past the cap build_width_report takes
treewidth_bounds (n <= 1024); the width sweep reads cutwidth_identity at any n.

On every graph treewidth <= cutwidth_exact <= cutwidth_identity <= |E|, the
identity layout being one candidate ordering.  floor(vertex_iso * n) - 1 <=
treewidth is false in general: the 8-cycle has iso 1/2, so the left side is
3, and treewidth 2 (README, "Known failing check").

Every routine takes a :class:`~tangledpath.graph.TangledGraph` from
``build_tangled``, ``make_graph`` or ``parse_edge_list`` and reads its CSR
arrays: neighbor sets off the rows for the treewidth heuristics and the
subset boundaries, the edge-end arrays for the identity-layout profile, and
the component count from :mod:`tangledpath.graph` for the forest test.
:func:`unit_separator` takes the sides of every cut vertex from the one
lowpoint DFS in :mod:`tangledpath.graph`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import ALPHA_EPS, alpha_cut_range, as_int
from .errors import CapabilityError
from .graph import TangledGraph, _component_count, _cut_sides, _edge_ends

EXACT_CAP = 20

# treewidth_bounds runs min-fill, which is cubic-ish with fill-in; this soft cap
# keeps the "any n" contract honest about what finishes at a desk.
BOUNDS_CAP = 1024


def _require_small(n: int, what: str) -> None:
    if n > EXACT_CAP:
        raise CapabilityError(
            f"{what} is exact-only and supports n <= {EXACT_CAP}; "
            f"got n={n} (use treewidth_bounds / cutwidth_identity at this size)"
        )


# ---------------------------------------------------------------------------
# treewidth
# ---------------------------------------------------------------------------


def _neighbor_sets(g: TangledGraph) -> dict[int, set[int]]:
    """0-based vertex -> the set of its neighbors, read off the CSR rows."""
    flat, ptr = g.indices.tolist(), g.indptr.tolist()
    return {v: set(flat[ptr[v]:ptr[v + 1]]) for v in range(g.n)}


def _is_forest(g: TangledGraph) -> bool:
    """A graph is a forest iff |E| + (number of components) = n."""
    return g.indices.size // 2 + _component_count(g) == g.n


def _series_reduce(g: TangledGraph) -> list[dict[int, set[int]]]:
    """Strip degree <= 2 vertices (valid once tw >= 2) and split into cores.

    Degree-0/1 removal never changes treewidth; contracting a degree-2 vertex
    preserves it as long as the graph keeps treewidth >= 2, which the caller
    guarantees by only reducing graphs that contain a cycle.  Returns the
    connected components of the residue, each with minimum degree >= 3.
    """
    nbrs = _neighbor_sets(g)
    queue = [v for v, ns in nbrs.items() if len(ns) <= 2]
    while queue:
        v = queue.pop()
        if v not in nbrs or len(nbrs[v]) > 2:
            continue
        ns = nbrs.pop(v)
        for a in ns:
            nbrs[a].discard(v)
        if len(ns) == 2:
            a, b = ns
            if b not in nbrs[a]:
                nbrs[a].add(b)
                nbrs[b].add(a)
        for a in ns:
            if a in nbrs and len(nbrs[a]) <= 2:
                queue.append(a)

    cores: list[dict[int, set[int]]] = []
    todo = set(nbrs)
    while todo:
        start = todo.pop()
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in nbrs[x]:
                if y not in comp:
                    comp.add(y)
                    frontier.append(y)
        todo -= comp
        cores.append({v: set(nbrs[v]) for v in comp})
    return cores


def _degeneracy(nbrs: dict[int, Collection[int]]) -> int:
    work = {v: set(ns) for v, ns in nbrs.items()}
    best = 0
    while work:
        v = min(work, key=lambda x: (len(work[x]), x))
        best = max(best, len(work[v]))
        for a in work[v]:
            work[a].discard(v)
        del work[v]
    return best


def _minfill_width(nbrs: dict[int, Collection[int]]) -> int:
    """Width of the greedy minimum-fill elimination order (treewidth upper bound)."""
    work = {v: set(ns) for v, ns in nbrs.items()}
    width = 0
    while work:
        best_v, best_key = -1, None
        for v, ns in work.items():
            lst = list(ns)
            fill = sum(
                1
                for i, a in enumerate(lst)
                for b in lst[i + 1 :]
                if b not in work[a]
            )
            key = (fill, len(ns), v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        ns = work.pop(best_v)
        width = max(width, len(ns))
        for a in ns:
            work[a].discard(best_v)
            work[a].update(ns - {a})
    return width


def _elimination_cost(adj: list[int], elim: int, v: int) -> int:
    """Degree of v after eliminating the set ``elim``: neighbors reachable from
    v through eliminated vertices only.  Equivalent to v's clique size in the
    fill graph, without maintaining fill edges."""
    comp = 1 << v
    reach = adj[v]
    while True:
        grow = reach & elim & ~comp
        if not grow:
            break
        comp |= grow
        m = grow
        while m:
            b = m & -m
            reach |= adj[b.bit_length() - 1]
            m ^= b
    return (reach & ~elim & ~(1 << v)).bit_count()


def _tw_decide(adj: list[int], t: int) -> bool:
    """Is there an elimination order of width <= t?  Memoized depth-first
    search over eliminated-subset states."""
    n = len(adj)
    full = (1 << n) - 1
    failed: set[int] = set()

    def dfs(elim: int, remaining: int) -> bool:
        if remaining <= t + 1:
            return True
        if elim in failed:
            return False
        rest = full & ~elim
        costs: list[tuple[int, int]] = []
        m = rest
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            c = _elimination_cost(adj, elim, v)
            if c <= 1:
                # A vertex of fill-degree <= 1 is simplicial; eliminating it
                # first never hurts, so commit without branching.
                ok = dfs(elim | (1 << v), remaining - 1)
                if not ok:
                    failed.add(elim)
                return ok
            costs.append((c, v))
        costs.sort()
        for c, v in costs:
            if c > t:
                break
            if dfs(elim | (1 << v), remaining - 1):
                return True
        failed.add(elim)
        return False

    return dfs(0, n)


def treewidth_exact(g: TangledGraph) -> int:
    """Exact treewidth for n <= 20.

    Forests are answered directly; otherwise degree <= 2 reductions shrink the
    graph, and each residual core is solved by iterative deepening on the
    elimination-order decision problem (memoized over vertex subsets).
    """
    _require_small(g.n, "treewidth_exact")
    if g.indices.size == 0:
        return 0
    if _is_forest(g):
        return 1
    best = 2
    for core in _series_reduce(g):
        labels = sorted(core)
        index = {v: i for i, v in enumerate(labels)}
        adj = [0] * len(labels)
        for v, ns in core.items():
            for w in ns:
                adj[index[v]] |= 1 << index[w]
        lb = max(3, _degeneracy(core))
        ub = _minfill_width(core)
        ans = ub
        for t in range(lb, ub):
            if _tw_decide(adj, t):
                ans = t
                break
        best = max(best, ans)
    return best


def treewidth_bounds(g: TangledGraph) -> tuple[int, int]:
    """(degeneracy lower bound, min-fill upper bound); brackets the exact value."""
    if g.n > BOUNDS_CAP:
        raise CapabilityError(
            f"treewidth_bounds supports n <= {BOUNDS_CAP}; got n={g.n}"
        )
    if g.indices.size == 0:
        return 0, 0
    nbrs = _neighbor_sets(g)
    return _degeneracy(nbrs), _minfill_width(nbrs)


# ---------------------------------------------------------------------------
# cutwidth
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _subset_layers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex subset as a bitmask (bit v for 0-based vertex v), in
    stable size order, and ends: size s runs from ends[s - 1] to ends[s].
    Kept for the latest n only (8 MB at n = 20), read-only: an exact width
    report asks for it three times, and the sort took 13 ms at n = 20."""
    order = np.argsort(np.bitwise_count(np.arange(1 << n, dtype=np.uint32)), kind="stable")
    ends = np.cumsum([math.comb(n, s) for s in range(n + 1)])
    for a in (order, ends):
        a.flags.writeable = False
    return order, ends


def _edge_boundary(g: TangledGraph) -> np.ndarray:
    """Edges between S and its complement, indexed by the mask S; by top
    bit, adding v to S below v's bit adds deg(v) - 2 |N(v) & S|."""
    low = np.arange(1 << (g.n - 1), dtype=np.uint32)
    out = np.zeros(1 << g.n, dtype=np.int32)
    for v, nbrs in _neighbor_sets(g).items():
        nb = sum(1 << w for w in nbrs)
        out[1 << v:2 << v] = out[:1 << v] + len(nbrs) - 2 * np.bitwise_count(low[:1 << v] & nb)
    return out


def cutwidth_exact(g: TangledGraph) -> int:
    """Minimum over all vertex orderings of the maximum cut, for n <= 20.

    Subset DP: cost(S) = max(boundary(S), min over v in S of cost(S - v)),
    where boundary(S) counts edges between S and its complement.  One size
    at a time, one gather of cost(S ^ v) over all v; unreached supersets
    hold a large cost.  Runs of 2^20 / n sets bound the gather at the cap.
    """
    n = g.n
    _require_small(n, "cutwidth_exact")
    if n == 1 or g.indices.size == 0:
        return 0
    order, ends = _subset_layers(n)
    boundary = _edge_boundary(g)
    cost = np.full(1 << n, 2**30, dtype=np.int32)
    cost[0] = 0
    bits = (1 << np.arange(n))[:, None]
    step = (1 << EXACT_CAP) // n
    for lo, hi in zip(ends[:-1].tolist(), ends[1:].tolist()):
        for a in range(lo, hi, step):
            idx = order[a:min(a + step, hi)]
            cost[idx] = np.maximum(boundary[idx], cost[bits ^ idx].min(axis=0))
    return int(cost[-1])


def cutwidth_identity(g: TangledGraph) -> tuple[int, tuple[int, ...]]:
    """Cut profile of the layout 1, 2, ..., n: value at x = i + 0.5 counts the
    edges {u, v} with u <= i < v.  Returns (max, per-cut profile)."""
    n = g.n
    if n == 1:
        return 0, ()
    u, w = _edge_ends(g)
    steps = np.bincount(u, minlength=n) - np.bincount(w, minlength=n)
    profile = np.cumsum(steps)[:-1].tolist()
    return max(profile), tuple(profile)


# ---------------------------------------------------------------------------
# isoperimetric numbers
# ---------------------------------------------------------------------------


def _vertex_boundary(g: TangledGraph) -> np.ndarray:
    """|N(S) \\ S|, indexed by the mask S; N(S) is built by top bit, as
    N(S + v) = N(S) | N(v) for S over the masks below v's bit."""
    nb = np.zeros(1 << g.n, dtype=np.uint32)
    for v, nbrs in _neighbor_sets(g).items():
        np.bitwise_or(nb[:1 << v], sum(1 << w for w in nbrs), out=nb[1 << v:2 << v])
    return np.bitwise_count(nb & ~np.arange(1 << g.n, dtype=np.uint32))


def _isoperimetric(g: TangledGraph, what: str, boundary) -> Fraction:
    """min over 0 < |S| <= n/2 of boundary(g, S) / |S|, as an exact rational."""
    n = g.n
    _require_small(n, what)
    as_int(n, "vertex count", 2)
    order, ends = _subset_layers(n)
    per_size = np.minimum.reduceat(boundary(g)[order[:ends[n // 2]]], ends[:n // 2])
    return min(Fraction(int(b), s) for s, b in enumerate(per_size.tolist(), 1))


def vertex_iso(g: TangledGraph) -> Fraction:
    """min over 0 < |S| <= n/2 of |N(S) \\ S| / |S|, as an exact rational."""
    return _isoperimetric(g, "vertex_iso", _vertex_boundary)


def edge_iso(g: TangledGraph) -> Fraction:
    """min over 0 < |S| <= n/2 of (edges leaving S) / |S|, as an exact rational."""
    return _isoperimetric(g, "edge_iso", _edge_boundary)


# ---------------------------------------------------------------------------
# separators
# ---------------------------------------------------------------------------


def unit_separator(g: TangledGraph, alpha: float) -> tuple[int, tuple[int, int]] | None:
    """Smallest cut vertex k whose removal splits g into sides each <= alpha*n.

    The removed components may be grouped into two parts; the returned side
    sizes are the achievable split closest to even.  For tangled graphs the
    parts are always {1..k-1} and {k+1..n}.  Returns None when no cut vertex
    qualifies.
    """
    n = g.n
    alpha_cut_range(n, alpha)  # refuses alpha outside (1/2, 1)
    total = n - 1
    for k, sides in sorted(_cut_sides(g).items()):
        reach = 1  # bit a set: some of the components of g - k hold a vertices
        for s in sides:
            reach |= reach << s
        # The sides sum to n - 1, so a is reachable iff n - 1 - a is; the most
        # even split, the largest reachable a <= (n-1)/2, fits if any split does.
        best = (reach & ((2 << (total // 2)) - 1)).bit_length() - 1
        if total - best <= alpha * n + ALPHA_EPS:
            return k + 1, (best, total - best)
    return None


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


@dataclass
class WidthReport:
    """Widths of one graph.

    ``treewidth`` is an exact int when the solver ran, else a (lower, upper)
    pair from the bounds route; iso entries stay exact rationals so chain
    arithmetic like floor(iso * n) never sees float rounding.
    """

    edge_count: int
    treewidth: int | tuple[int, int]
    cutwidth_identity: int
    cutwidth_exact: int | None = None
    vertex_iso: Fraction | None = None
    edge_iso: Fraction | None = None


def build_width_report(g: TangledGraph, exact: bool | None = None) -> WidthReport:
    """Compute the widths that are feasible at |g|'s size.

    ``exact=None`` picks exact solvers iff n <= 20; True forces them (refusing
    beyond the cap); False forces the bounds route.
    """
    n = g.n
    use_exact = n <= EXACT_CAP if exact is None else exact
    return WidthReport(
        edge_count=g.indices.size // 2,
        treewidth=treewidth_exact(g) if use_exact else treewidth_bounds(g),
        cutwidth_identity=cutwidth_identity(g)[0],
        cutwidth_exact=cutwidth_exact(g) if use_exact else None,
        vertex_iso=vertex_iso(g) if use_exact and n >= 2 else None,
        edge_iso=edge_iso(g) if use_exact and n >= 2 else None,
    )
