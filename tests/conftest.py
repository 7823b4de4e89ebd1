"""Shared graph builders, a scalar random stream, slow-but-obvious
reference oracles, and the reference code only the tests read.

The oracles here are deliberately written in the most literal style possible
(double loops over definitions, exhaustive subset or ordering enumeration) so
that agreement with the fast library implementations is meaningful.  The
Mallows pmf, the truncated geometric, reversal, the pattern search and the
analytic bounds at the end are the package's own definitions, kept here
because no library code, CLI command, sweep or benchmark calls them;
``edge_pairs`` is the tests' view of a graph's edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from tangledpath._util import as_int, as_int64, as_real, clamp01
from tangledpath.graph import TangledGraph, _edge_ends
from tangledpath.mallows import (
    InsertionTrace,
    Permutation,
    _decoded,
    _positions_of,
    _unchecked,
    trace_table,
)
from tangledpath.rng import GOLDEN, MASK64, mix64, stream_u64


# ---------------------------------------------------------------------------
# scalar random stream: the independent reference for rng.uniform_matrix
# ---------------------------------------------------------------------------


class SplitMix64:
    """A sequential view of the counter stream, for scalar sampling paths.

    The i-th call to :meth:`next_u64` returns ``mix64(seed + i * GOLDEN)``, so a
    stream can be reproduced either by replaying calls or by jumping straight to
    a counter with :func:`stream_u64`.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed):
        self.seed = seed & MASK64
        self.counter = 0

    def next_u64(self):
        self.counter += 1
        return mix64((self.seed + self.counter * GOLDEN) & MASK64)

    def uniform(self):
        """Next double in [0, 1), using the top 53 bits of the next word."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, count):
        """Vectorized batch of the next ``count`` uniforms (advances the stream)."""
        out = stream_u64(self.seed, self.counter, count)
        self.counter += count
        return (out >> np.uint64(11)).astype(np.float64) * 2.0**-53


# ---------------------------------------------------------------------------
# graph builders (n, edge list) in the library's 1-based convention
# ---------------------------------------------------------------------------


def edge_pairs(g: TangledGraph) -> tuple[tuple[int, int], ...]:
    """Every edge of g once, as 1-based (u, w) with u < w, in increasing order."""
    u, w = _edge_ends(g)
    return tuple(zip((u + 1).tolist(), (w + 1).tolist()))


def path_graph(n):
    return n, [(i, i + 1) for i in range(1, n)]


def cycle_graph(n):
    return n, [(i, i + 1) for i in range(1, n)] + [(1, n)]


def complete_graph(n):
    return n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def star_graph(leaves):
    return leaves + 1, [(1, i) for i in range(2, leaves + 2)]


def grid_graph(rows, cols):
    def vid(r, c):
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return rows * cols, edges


def petersen_graph():
    outer = [(i + 1, (i + 1) % 5 + 1) for i in range(5)]
    spokes = [(i + 1, i + 6) for i in range(5)]
    inner = [(i + 6, (i + 2) % 5 + 6) for i in range(5)]
    return 10, outer + spokes + inner


def random_connected_graph(n, extra_edges, seed):
    """Random spanning tree plus `extra_edges` random chords."""
    rng = SplitMix64(seed)
    edges = set()
    for v in range(2, n + 1):
        u = 1 + int(rng.uniform() * (v - 1))
        edges.add((min(u, v), max(u, v)))
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 50 * (extra_edges + 1):
        attempts += 1
        u = 1 + int(rng.uniform() * n)
        v = 1 + int(rng.uniform() * n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def random_graph(n, density, seed):
    """Each of the C(n, 2) pairs is an edge with probability ``density``, so
    the graph may be disconnected and have isolated vertices."""
    rng = SplitMix64(seed)
    return n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
               if rng.uniform() < density]


def random_forest(n, density, seed):
    """Vertex v >= 2 hangs off a random earlier vertex with probability
    ``density``, else starts a new tree."""
    rng = SplitMix64(seed)
    edges = []
    for v in range(2, n + 1):
        if rng.uniform() < density:
            edges.append((1 + int(rng.uniform() * (v - 1)), v))
    return n, edges


# ---------------------------------------------------------------------------
# event oracle: literal definitions, one k at a time
# ---------------------------------------------------------------------------


def naive_flush(v, k):
    n = len(v)
    return all(i - v[i - 1] >= k for i in range(k + 1, n + 1))


def naive_reverse_flush(v, k):
    n = len(v)
    return all(v[i - 1] > k for i in range(k + 1, n + 1))


def naive_local_flush(v, k, b):
    n = len(v)
    return all(v[i - 1] <= i - k for i in range(k + 1, min(k + b, n) + 1))


def naive_cut_forward(v, k):
    return naive_flush(v, k) and v[k - 1] == 1


def naive_cut_reverse(v, k):
    return naive_reverse_flush(v, k) and v[k - 1] == k


def naive_cut_set(v):
    n = len(v)
    return {
        k
        for k in range(2, n)
        if naive_cut_forward(v, k) or naive_cut_reverse(v, k)
    }


def naive_sparse_flush(v, k, b, ell):
    """Try every b-subset of the window; exponential, for tiny windows only."""
    n = len(v)
    window = range(k, min(k + ell, n) + 1)
    for combo in itertools.combinations(window, b):
        if all(v[t - 1] <= i for i, t in enumerate(combo, start=1)):
            return True
    return False


def reference_event_flags(v, first=0, tail=None):
    """event_flag_matrix by one reversed cumulative minimum per family over
    whole rows: column j is flagged from the minima over columns j + 1 ..
    and the tail."""
    v = np.asarray(v, dtype=np.int64)
    m, ncols = v.shape
    i_grid = np.arange(first + 1, first + ncols + 1, dtype=np.int64)
    d = np.empty((m, ncols + 1), dtype=np.int64)
    w = np.empty((m, ncols + 1), dtype=np.int64)
    np.subtract(i_grid, v, out=d[:, :ncols])
    w[:, :ncols] = v
    if tail is None:
        d[:, ncols] = w[:, ncols] = 1 << 60
    else:
        d[:, ncols], w[:, ncols] = tail
    suffix_d = np.minimum.accumulate(d[:, ::-1], axis=1)[:, ::-1]
    suffix_v = np.minimum.accumulate(w[:, ::-1], axis=1)[:, ::-1]
    flush = suffix_d[:, 1:] >= i_grid
    reverse_flush = suffix_v[:, 1:] > i_grid
    cut_forward = flush & (v == 1)
    cut_reverse = reverse_flush & (v == i_grid)
    cut = cut_forward | cut_reverse
    if first == 0:
        cut[:, 0] = False
    if tail is None:
        cut[:, -1] = False
    return {
        "flush": flush,
        "reverse_flush": reverse_flush,
        "cut_forward": cut_forward,
        "cut_reverse": cut_reverse,
        "cut": cut,
        "tail": (suffix_d[:, 0], suffix_v[:, 0]),
    }


# ---------------------------------------------------------------------------
# graph oracles
# ---------------------------------------------------------------------------


def _components(n, edges, removed=()):
    adj = {v: [] for v in range(1, n + 1) if v not in removed}
    for u, v in edges:
        if u not in removed and v not in removed:
            adj[u].append(v)
            adj[v].append(u)
    seen = set()
    comps = []
    for s in adj:
        if s in seen:
            continue
        stack, comp = [s], set()
        seen.add(s)
        while stack:
            x = stack.pop()
            comp.add(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def brute_articulation(n, edges):
    """A vertex is an articulation point iff removing it increases the
    component count among the remaining vertices."""
    base = len(_components(n, edges))
    out = set()
    for v in range(1, n + 1):
        if n > 1 and len(_components(n, edges, removed={v})) > base:
            out.add(v)
    return out


def brute_distance_matrix(n, edges):
    from collections import deque

    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {}
    for s in range(1, n + 1):
        d = {s: 0}
        dq = deque([s])
        while dq:
            x = dq.popleft()
            for y in adj[x]:
                if y not in d:
                    d[y] = d[x] + 1
                    dq.append(y)
        dist[s] = d
    return dist


# ---------------------------------------------------------------------------
# width oracles
# ---------------------------------------------------------------------------


def reference_treewidth(n, edges):
    """Elimination-order subset DP, n <= 14.

    f(S) = best achievable width having eliminated exactly the vertices of S,
    where eliminating v costs the number of vertices reachable from v through
    S (v's neighbors in the partially eliminated graph).
    """
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)

    def cost(eliminated, v):
        seen = adj[v]
        frontier = seen & eliminated
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grow |= adj[low.bit_length() - 1]
            new = grow & ~seen
            seen |= grow
            frontier = new & eliminated
        return bin(seen & ~eliminated & ~(1 << v)).count("1")

    full = (1 << n) - 1
    f = [0] * (1 << n)
    for s in range(1, 1 << n):
        best = n
        t = s
        while t:
            low = t & -t
            t ^= low
            v = low.bit_length() - 1
            best = min(best, max(f[s ^ low], cost(s ^ low, v)))
        f[s] = best
    return f[full]


def brute_treewidth_orders(n, edges):
    """Try every elimination order outright; n <= 7."""
    adj0 = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj0[u].add(v)
        adj0[v].add(u)
    best = n
    for order in itertools.permutations(range(1, n + 1)):
        adj = {v: set(nb) for v, nb in adj0.items()}
        width = 0
        for v in order:
            nb = adj.pop(v)
            width = max(width, len(nb))
            for a in nb:
                adj[a].discard(v)
                adj[a] |= nb - {a}
        best = min(best, width)
        if best == 0:
            break
    return best


def brute_cutwidth(n, edges):
    """Minimum over all orderings of the maximum cut; n <= 7."""
    best = None
    for order in itertools.permutations(range(1, n + 1)):
        pos = {v: i for i, v in enumerate(order)}
        worst = 0
        for cut in range(n - 1):
            worst = max(
                worst,
                sum(1 for u, v in edges if (pos[u] <= cut) != (pos[v] <= cut)),
            )
        if best is None or worst < best:
            best = worst
    return best


def brute_vertex_iso(n, edges):
    from fractions import Fraction

    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = None
    verts = list(range(1, n + 1))
    for r in range(1, n // 2 + 1):
        for sub in itertools.combinations(verts, r):
            s = set(sub)
            boundary = set().union(*(adj[v] for v in s)) - s
            ratio = Fraction(len(boundary), len(s))
            if best is None or ratio < best:
                best = ratio
    return best


# ---------------------------------------------------------------------------
# subset-DP references: masked passes over every subset mask S, bit v - 1
# standing for vertex v
# ---------------------------------------------------------------------------


def reference_edge_boundary(n, edges):
    """Edges between S and its complement, for every mask S: one pass per
    edge, adding 1 where exactly one end lies in S."""
    masks = np.arange(1 << n, dtype=np.uint32)
    boundary = np.zeros(masks.size, dtype=np.int64)
    for u, w in edges:
        crossing = (masks >> np.uint32(u - 1)) ^ (masks >> np.uint32(w - 1))
        boundary += (crossing & np.uint32(1)).astype(np.int64)
    return boundary


def reference_vertex_boundary(n, edges):
    """|N(S) \\ S| for every mask S: one masked OR of N(v) per vertex v."""
    masks = np.arange(1 << n, dtype=np.uint32)
    nbrs = [0] * n
    for u, w in edges:
        nbrs[u - 1] |= 1 << (w - 1)
        nbrs[w - 1] |= 1 << (u - 1)
    nb = np.zeros(masks.size, dtype=np.uint32)
    for v in range(n):
        sel = ((masks >> np.uint32(v)) & np.uint32(1)).astype(bool)
        nb[sel] |= np.uint32(nbrs[v])
    return np.bitwise_count(nb & ~masks).astype(np.int64)


def reference_cutwidth(n, edges):
    """cost(S) = max(boundary(S), min over v in S of cost(S - v)), one
    subset size at a time and, within it, one masked gather per vertex."""
    masks = np.arange(1 << n, dtype=np.uint32)
    sizes = np.bitwise_count(masks)
    boundary = reference_edge_boundary(n, edges)
    cost = np.zeros(masks.size, dtype=np.int64)
    for layer in range(1, n + 1):
        idx = np.nonzero(sizes == layer)[0]
        cand = np.full(idx.size, np.iinfo(np.int64).max)
        for v in range(n):
            sel = ((idx >> v) & 1).astype(bool)
            cand[sel] = np.minimum(cand[sel], cost[idx[sel] ^ (1 << v)])
        cost[idx] = np.maximum(boundary[idx], cand)
    return int(cost[-1])


def reference_iso(n, boundary):
    """min over 0 < |S| <= n/2 of boundary[S] / |S|, from per-size minima
    gathered by np.minimum.at."""
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    per_size = np.full(n + 1, np.iinfo(np.int64).max)
    np.minimum.at(per_size, sizes, boundary)
    return min(Fraction(int(per_size[s]), s) for s in range(1, n // 2 + 1))


# ---------------------------------------------------------------------------
# the Mallows law, the truncated geometric, reversal and consecutive patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedGeometric:
    """The law of a single insertion position: P(j) = (1-q) q^(j-1) / (1-q^n).

    q = 1 is the uniform law on {1..n}; q = 0 is the point mass at 1.
    """

    n: int
    q: float

    def __post_init__(self) -> None:
        as_int(self.n, "n", 1)
        as_real(self.q, "q", 0, 1)

    def pmf(self, j: int) -> float:
        j = as_int(j, "j")
        if not 1 <= j <= self.n:
            return 0.0
        if self.q == 1.0:
            return 1.0 / self.n
        if self.q == 0.0:
            return 1.0 if j == 1 else 0.0
        denom = -math.expm1(self.n * math.log(self.q))
        return (1.0 - self.q) * self.q ** (j - 1) / denom

    def pmf_vector(self) -> np.ndarray:
        return np.array([self.pmf(j) for j in range(1, self.n + 1)])


def _image_of(p: Permutation | Sequence[int]) -> tuple[int, ...]:
    img = p.image if isinstance(p, Permutation) else as_int64(p, "permutation entries").tolist()
    return tuple(img)


def reverse(p: Permutation | Sequence[int]) -> Permutation:
    """sigma^R with sigma^R(i) = sigma(n + 1 - i).

    inv(sigma^R) = C(n, 2) - inv(sigma), so reversal swaps the roles of q and
    1/q under the Mallows measure; it is how process outputs r_n turn into
    mu_{n,q} samples.  A raw sequence is checked to be a permutation.
    """
    img = (p if isinstance(p, Permutation) else Permutation(p)).image
    return _unchecked(Permutation, image=img[::-1])


def inversions(p: Permutation | Sequence[int]) -> int:
    """Number of pairs i < j with p(i) > p(j) (ties count none), by a Fenwick
    tree over dense ranks: O(n log n) time, O(n) memory."""
    ranks = np.unique(np.asarray(_image_of(p)), return_inverse=True)[1].ravel() + 1
    tree = [0] * (ranks.size + 1)
    total = 0
    for seen, r in enumerate(ranks.tolist()):
        total += seen  # earlier entries, less those of rank <= r below
        j = r
        while j:
            total -= tree[j]
            j &= j - 1
        while r < len(tree):
            tree[r] += 1
            r += r & -r
    return total


def standardize(window: Sequence[int]) -> Permutation:
    """Rank-transform distinct numbers to a permutation: (5,7,4,2,9) -> (3,4,2,1,5)."""
    vals = list(window)
    if len(set(vals)) != len(vals):
        raise ValueError("window entries must be distinct")
    rank = {v: r for r, v in enumerate(sorted(vals), 1)}
    return _unchecked(Permutation, image=tuple(rank[v] for v in vals))


def contains_consecutively(
    pi: Permutation | Sequence[int], sigma: Permutation | Sequence[int]
) -> int | None:
    """Smallest 1-based index i with standardize(pi(i..i+k-1)) == sigma, else None."""
    big = _image_of(pi)
    pat = _image_of(sigma)
    k = len(pat)
    if k == 0 or k > len(big):
        return None
    for i in range(len(big) - k + 1):
        if standardize(big[i : i + k]).image == pat:
            return i + 1
    return None


def log_partition_function(n: int, q: float) -> float:
    """log Z_{n,q} where Z_{n,q} = prod_{i=1..n} (1 + q + ... + q^{i-1}).

    Accumulated in log space so large n never overflows.
    """
    n = as_int(n, "n", 0)
    as_real(q, "q", 0, 1)
    if q == 1.0:
        return math.lgamma(n + 1)
    if q == 0.0:
        return 0.0
    logq = math.log(q)
    log_1mq = math.log1p(-q)
    return sum(math.log(-math.expm1(i * logq)) - log_1mq for i in range(1, n + 1))


def mallows_pmf(p: Permutation | Sequence[int], q: float) -> float:
    """mu_{n,q}(p) = q^inv(p) / Z_{n,q}; point mass at the identity when q = 0.
    A raw sequence is checked to be a permutation."""
    img = (p if isinstance(p, Permutation) else Permutation(p)).image
    n = len(img)
    as_real(q, "q", 0, 1)
    if q == 0.0:
        return 1.0 if img == tuple(range(1, n + 1)) else 0.0
    if q == 1.0:
        return math.exp(-math.lgamma(n + 1))
    return math.exp(inversions(img) * math.log(q) - log_partition_function(n, q))


def enumerate_traces(
    n: int, q: float
) -> Iterator[tuple[InsertionTrace, float]]:
    """The rows of :func:`trace_table` one at a time, as (trace, weight)."""
    V, w = trace_table(n, q)
    for positions, weight in zip(V.tolist(), w):
        yield _unchecked(InsertionTrace, positions=tuple(positions), q=q), weight


def tv_distance_to_uniform(k: int, q: float) -> float:
    """Total variation distance between the truncated geometric on {1..k} and uniform."""
    k = as_int(k, "k", 1)
    dist = TruncatedGeometric(k, q)
    return 0.5 * sum(abs(dist.pmf(j) - 1.0 / k) for j in range(1, k + 1))


# ---------------------------------------------------------------------------
# analytic bounds and the bad-edge split
# ---------------------------------------------------------------------------


_EULER_TOL = 1e-15


def euler_log_product(q: float) -> float:
    """sum_{i>=1} log(1 - q^i), truncated at the first |log(1-q^i)| below
    _EULER_TOL."""
    as_real(q, "q", 0, 1, "()")
    total = 0.0
    i = 1
    while True:
        term = math.log1p(-(q**i))
        total += term
        if abs(term) < _EULER_TOL:
            return total
        i += 1


def bad_edge_classification(
    trace: InsertionTrace | Sequence[int], i: int, ell: int, L: int
) -> tuple[list[tuple[int, int]], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Edges of the permuted path that straddle vertex i, and the A/B/C split.

    A permuted-path edge {j, k} is bad for i when j < i < k.  The indices
    above i partition into A_i = {i+1 .. i+L : v > ell} (late-insertion
    candidates), B_i = the rest of that window, and C_i = {i+L+1 .. n}.
    """
    positions, _ = _positions_of(trace)
    n = len(positions)
    i, ell = as_int(i, "i", 1, n), as_int(ell, "ell")
    L = as_int(L, "L", ell)
    image = _decoded(positions)
    bad = sorted(
        (min(a, b), max(a, b))
        for a, b in zip(image, image[1:])
        if min(a, b) < i < max(a, b)
    )
    window = range(i + 1, min(i + L, n) + 1)
    a_set = tuple(k for k in window if positions[k - 1] > ell)
    b_set = tuple(k for k in window if positions[k - 1] <= ell)
    c_set = tuple(range(i + L + 1, n + 1))
    return bad, a_set, b_set, c_set


def janson_tail_bound(lam: float, mu: float, p_star: float) -> float:
    """Tail bound lam^{-1} (1-p_star)^{mu (lam - 1 - log lam)} for sums of
    independent geometrics with success probs >= p_star and mean mu."""
    as_real(lam, "lambda", 1)
    as_real(mu, "mu", 0)
    as_real(p_star, "p_star", 0, 1, "(]")
    exponent = mu * (lam - 1.0 - math.log(lam))
    if p_star == 1.0:
        power = 1.0 if exponent == 0.0 else 0.0
    else:
        power = math.exp(exponent * math.log1p(-p_star))
    return clamp01(power / lam)


def chernoff_bound(mu: float, delta: float) -> float:
    """Poisson-style upper tail (e^delta / (1+delta)^{1+delta})^mu."""
    as_real(mu, "mu", 0)
    as_real(delta, "delta", 0, ends="(]")
    return clamp01(math.exp(mu * (delta - (1.0 + delta) * math.log1p(delta))))


def sparse_flush_bound(
    n: int, b: int, q: float, lam: float
) -> tuple[float, float]:
    """(ell, bound): window length ell = lam (b + q/(1-q) + log((1-q)/(1-q^b))/log q)
    and the failure bound Pr[S(k, b, ell)^c] <= ((1-q) q^b / (1-q^b))^{lam-1-log lam}.

    ell may exceed n; the event is then evaluated on the truncated window and
    the bound still applies.
    """
    as_real(q, "q", 0, 1, "()")
    b = as_int(b, "b", 1)
    as_real(lam, "lambda", 1)
    as_int(n, "n", 1)
    logq = math.log(q)
    log_1mqb = math.log(-math.expm1(b * logq))
    ell = lam * (b + q / (1.0 - q) + (math.log1p(-q) - log_1mqb) / logq)
    log_base = math.log1p(-q) + b * logq - log_1mqb
    bound = clamp01(math.exp((lam - 1.0 - math.log(lam)) * log_base))
    return ell, bound


# ---------------------------------------------------------------------------
# edge values shared by the CLI and public-function input harnesses: sizes at
# the float and int64 limits, q as CLI text, alpha at and inside its ends
# ---------------------------------------------------------------------------

EDGE_NS = (0, 1, 2, 3, 16, 2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63 + 1, 10**30)
EDGE_QS = ("0", "5e-324", "0.5", repr(1 - 2**-53), "1", "nan", "inf", "-0.0")
EDGE_ALPHAS = ("0.5", repr(2 / 3), "1", "0.9999999999")
