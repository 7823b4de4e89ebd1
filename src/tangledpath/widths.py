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
arrays: one bitmask of neighbors per vertex off the rows for the treewidth
search, its heuristics and forest test, and the subset boundaries; the
edge-end arrays for the identity-layout profile.  :func:`unit_separator`
takes the sides of every cut vertex from the one lowpoint DFS in
:mod:`tangledpath.graph`.  No routine here loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import ALPHA_EPS, alpha_cut_range, as_int
from .errors import CapabilityError
from .graph import TangledGraph, _cut_sides, _edge_ends

EXACT_CAP = 20

# treewidth_bounds runs min-fill, which is cubic-ish with fill-in; this soft cap
# keeps the "any n" contract honest about what finishes at a desk.  On one 2-vCPU
# x86 core it took 0.27 s at n = 300, q = 0.99 and 10.3 s at n = 1024, q = 1.
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


def _adjacency(g: TangledGraph) -> list[int]:
    """Entry v: the bitmask of v's neighbors, 0-based, read off the CSR rows."""
    flat, ptr = g.indices.tolist(), g.indptr.tolist()
    return [sum(1 << w for w in flat[ptr[v]:ptr[v + 1]]) for v in range(g.n)]


def _bits(m: int):
    """The set bits of ``m``, low to high."""
    while m:
        b = m & -m
        yield b.bit_length() - 1
        m ^= b


def _series_reduce(adj: list[int]) -> tuple[bool, list[list[int]]]:
    """Strip degree <= 2 vertices (valid once tw >= 2) and split into cores.

    Degree-0/1 removal never changes treewidth; contracting a degree-2 vertex
    preserves it as long as the graph has a cycle (treewidth >= 2).  Every
    step keeps |E| - n + (components) but one, which lowers it by one: a
    degree-2 vertex whose neighbors are already adjacent.  So the graph has a
    cycle iff that step happens or a core is left.  Returns that flag and the
    components of the residue, each of minimum degree >= 3, as masks over its
    own vertices in increasing order.  Consumes ``adj``.
    """
    alive = (1 << len(adj)) - 1
    cycles = 0
    queue = [v for v, m in enumerate(adj) if m.bit_count() <= 2]
    while queue:
        v = queue.pop()
        m = adj[v]
        if not alive >> v & 1 or m.bit_count() > 2:
            continue
        alive ^= 1 << v
        ends = list(_bits(m))
        for a in ends:
            adj[a] ^= 1 << v
        if len(ends) == 2:
            a, b = ends
            cycles += adj[a] >> b & 1
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        queue.extend(a for a in ends if adj[a].bit_count() <= 2)

    cores: list[list[int]] = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= adj[v]
            frontier = reach & ~comp
            comp |= frontier
        alive ^= comp
        index = {v: i for i, v in enumerate(_bits(comp))}
        cores.append([sum(1 << index[w] for w in _bits(adj[v])) for v in index])
    return bool(cycles or cores), cores


def _degeneracy(adj: list[int]) -> int:
    work, best = dict(enumerate(adj)), 0
    while work:
        v = min(work, key=lambda x: work[x].bit_count())
        m = work.pop(v)
        best = max(best, m.bit_count())
        for a in _bits(m):
            work[a] ^= 1 << v
    return best


def _minfill_width(adj: list[int]) -> int:
    """Width of the greedy minimum-fill elimination order (treewidth upper
    bound); ties go to fewer neighbors, then to the lower vertex."""
    work = dict(enumerate(adj))

    def key(v: int) -> tuple[int, int]:
        m = work[v]
        fill = sum((m & ~work[a]).bit_count() - 1 for a in _bits(m)) // 2
        return fill, m.bit_count()

    width = 0
    while work:
        v = min(work, key=key)
        m = work.pop(v)
        width = max(width, m.bit_count())
        for a in _bits(m):
            work[a] = (work[a] | m) & ~(1 << a | 1 << v)
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

    Degree <= 2 reductions shrink the graph and tell a forest, answered
    directly; each residual core is solved by iterative deepening on the
    elimination-order decision problem (memoized over vertex subsets).
    """
    _require_small(g.n, "treewidth_exact")
    if g.indices.size == 0:
        return 0
    cycle, cores = _series_reduce(_adjacency(g))
    if not cycle:
        return 1
    best = 2
    for adj in cores:  # the least width the search decides, else min-fill's
        lb, ub = max(3, _degeneracy(adj)), _minfill_width(adj)
        best = max(best, next((t for t in range(lb, ub) if _tw_decide(adj, t)), ub))
    return best


def treewidth_bounds(g: TangledGraph) -> tuple[int, int]:
    """(degeneracy lower bound, min-fill upper bound); brackets the exact value."""
    if g.n > BOUNDS_CAP:
        raise CapabilityError(
            f"treewidth_bounds supports n <= {BOUNDS_CAP}; got n={g.n}"
        )
    if g.indices.size == 0:
        return 0, 0
    adj = _adjacency(g)
    return _degeneracy(adj), _minfill_width(adj)


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
    for v, nb in enumerate(_adjacency(g)):
        out[1 << v:2 << v] = out[:1 << v] + nb.bit_count() - 2 * np.bitwise_count(low[:1 << v] & nb)
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
    reach = np.zeros(1 << g.n, dtype=np.uint32)
    for v, nb in enumerate(_adjacency(g)):
        np.bitwise_or(reach[:1 << v], nb, out=reach[1 << v:2 << v])
    return np.bitwise_count(reach & ~np.arange(1 << g.n, dtype=np.uint32))


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
