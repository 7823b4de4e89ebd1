"""Flush-family events on insertion traces, their exact probabilities, and the
analytic bounds that locate the separator threshold.

The events, for a trace (v_1, ..., v_n):

* flush F_k: every later insertion stays k slots clear of the right end,
  v_i <= i - k for all i > k.  After F_k the first k values occupy the last k
  positions of r_n in reversed order.
* reverse flush R_k: every later insertion lands right of slot k, v_i > k for
  all i > k.
* forward cut event C_k^F = F_k and v_k = 1; reverse cut event C_k^R = R_k and
  v_k = k.  For 2 <= k <= n-1, vertex k is a cut vertex of the tangled graph
  exactly when C_k^F or C_k^R holds, which is what makes O(n) trace scans a
  substitute for graph algorithms.
* local flush L_k: the F_k condition restricted to k < i <= k + b(q) with
  b(q) = ceil(8 log n / log(1/q)).
* sparse flush S(k, b, ell): some k <= t_1 < ... < t_b <= k + ell with
  v_{t_i} <= i.

The cut rule lives in :func:`event_flag_matrix` alone, as its ``"cut"`` array.
All detectors run in O(n) per trace: F/R/C by windowed and suffix minima
across trial batches, L_k by a difference array, S(k, b, ell) by a greedy
window scan.  The F/R/C flags also run block by block: a column block of the
traces, flagged right to left, needs only the pair (min of i - v_i, min of
v_i) over the columns right of it, and hands the same pair at its own left
edge on to the block before it, so a long trace is flagged in memory of one
block.
Probabilities are computed in log space and clamped to [0, 1] within 1e-12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ._util import INDEX_MAX, alpha_cut_range, as_int, as_real, clamp01, column, scratch
from .errors import CapabilityError
from .mallows import InsertionTrace, _positions_of

_PI2_6 = math.pi * math.pi / 6.0


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


# Blocks below this many entries skip the window passes, whose calls cost more.
_SCAN_ENTRIES = 2**14

_NO_TAIL = 1 << 60

# The flag arrays in the order _flag_block writes them: R_k and C_k^R last,
# side by side, so the window passes clear both in one call.
_FLAG_SLOTS = ("flush", "cut_forward", "cut", "reverse_flush", "cut_reverse")


def event_flag_matrix(
    v: np.ndarray, first: int = 0, tail: tuple[np.ndarray, np.ndarray] | None = None
) -> dict[str, np.ndarray]:
    """Per-k event flags for a batch of traces, or for one column block of it.

    ``v`` has shape (m, ncols), row = one trace, and holds the columns
    ``first ..`` of each trace (all of it by default).  ``tail`` is the pair
    (min of i - v_i, min of v_i) per row over the columns right of the block,
    or None when the block ends the trace.  Returns boolean (m, ncols) arrays
    keyed "flush", "reverse_flush", "cut_forward", "cut_reverse" and "cut"
    (the cut vertices: C_k^F or C_k^R with 2 <= k <= n-1), where column j
    holds the flag for index k = first + j + 1, and under "tail" the same
    pair at the block's left edge, to pass with the block left of it.  Uses
    that F_k is equivalent to min_{i>k} (i - v_i) >= k and R_k to
    min_{i>k} v_i > k (see :func:`_flag_block`).
    """
    v = np.asarray(v, dtype=np.int64)
    out = scratch("flags", (5, *v.shape), bool)
    flags = dict(zip(_FLAG_SLOTS, out))
    pair = (np.full(len(v), _NO_TAIL, dtype=np.int64),) * 2 if tail is None else tail
    flags["tail"] = _flag_block(v, first, pair, out)
    if first == 0:
        flags["cut"][:, :1] = False
    if tail is None:
        flags["cut"][:, -1:] = False
    return flags


def _flag_block(v: np.ndarray, first: int, tail: tuple, out: np.ndarray) -> tuple:
    """Write the five flag arrays of ``v`` into ``out``, a (5, m, ncols)
    array in _FLAG_SLOTS order; return its tail pair.

    With V the largest v_i, F_k is decided by the tail d and the minimum of
    d_i = i - v_i over k < i <= k + V (later i have i - v_i > k), which
    ceil(log2 V) passes of np.minimum on shifted copies give; R_k can hold
    only for k < V, a prefix flagged on its own, and in the last column.
    Where V spans the block, or it is small, one reversed cumulative minimum
    of d and of v is cheaper."""
    flush, cut_forward, cut, reverse_flush, cut_reverse = out
    m, ncols = v.shape
    tail_d, tail_v = tail
    last = first + ncols
    big = int(v.max(initial=1))
    span, p = 1 << (big - 1).bit_length(), big - first - 1
    if span >= ncols or v.size < _SCAN_ENTRIES:
        i_grid = np.arange(first + 1, last + 1, dtype=np.int64)
        dv = np.empty((2, m, ncols + 1), dtype=np.int64)
        np.subtract(i_grid, v, out=dv[0, :, :ncols])
        dv[1, :, :ncols] = v
        dv[0, :, ncols], dv[1, :, ncols] = tail_d, tail_v
        dv = np.minimum.accumulate(dv[:, :, ::-1], axis=2)[:, :, ::-1]
        np.greater_equal(dv[0, :, 1:], i_grid, out=flush)
        np.greater(dv[1, :, 1:], i_grid, out=reverse_flush)
        np.logical_and(reverse_flush, v == i_grid, out=cut_reverse)
        np.equal(v, 1, out=cut_forward)
        left_tail = dv[0, :, 0], dv[1, :, 0]
    elif p > 0:
        right = _flag_block(v[:, p:], first + p, tail, out[:, :, p:])
        return _flag_block(v[:, :p], first, right, out[:, :, :p])
    else:
        # d - first, which lies in 1 - V .. ncols, in int16 or int32; each row
        # padded with `span` copies of the last i, which breaks no F_k here:
        # the passes run flat, no window read reaching a next row, and no
        # pass reads the tail the one before left unwritten; the pair takes
        # uniform_matrix's "words" buffer, free once it returned
        dtype = np.int16 if ncols < 2**15 else np.int32 if ncols < 2**31 else np.int64
        j_grid = column(f"k - first {dtype.__name__}", ncols,
                        lambda c: np.arange(1, c + 1, dtype=dtype))
        a, b = scratch("words", (2, m, ncols + span), dtype)
        np.subtract(j_grid, v, out=a[:, :ncols], dtype=dtype)
        a[:, ncols:] = ncols
        a, b, w = a.ravel(), b.ravel(), 1
        while w < span:  # then a[x] = min of d[x : x + 2w]
            np.minimum(a[:-w], a[w:], out=b[:-w])
            a, b, w = b, a, 2 * w
        a = a.reshape(m, ncols + span)
        np.greater_equal(a[:, 1 : ncols + 1], j_grid, out=flush)
        # F_k also needs tail d >= k, which fails only for k > the least tail d
        c = min(max(int(tail_d.min()) - first, 0), ncols)
        flush[:, c:] &= (tail_d - first)[:, None] >= j_grid[c:]
        out[3:, :, :-1] = False  # R_k and C_k^R, outside the last column
        np.greater(tail_v, last, out=reverse_flush[:, -1])
        np.logical_and(reverse_flush[:, -1], v[:, -1] == last, out=cut_reverse[:, -1])
        low_d = np.add(a[:, :ncols:span].min(axis=1), first, dtype=np.int64)
        np.equal(v, 1, out=cut_forward)
        low_v = 1 if cut_forward.any(axis=1).all() else v.min(1)  # no v_i is below 1
        left_tail = np.minimum(low_d, tail_d), np.minimum(low_v, tail_v)
    cut_forward &= flush
    np.logical_or(cut_forward, cut_reverse, out=cut)
    return left_tail


def _fold_tail(v: np.ndarray, first: int, tail: tuple | None) -> tuple:
    """event_flag_matrix(v, first, tail)["tail"], the pair (min of i - v_i, min
    of v_i) per row, without the flags; overwrites ``v`` with i - v_i."""
    low_v = v.min(axis=1)
    np.subtract(np.arange(first + 1, first + v.shape[1] + 1, dtype=np.int64), v, out=v)
    tail_d, tail_v = tail or (_NO_TAIL, _NO_TAIL)
    return np.minimum(v.min(axis=1), tail_d), np.minimum(low_v, tail_v)


def b_value(n: int, q: float) -> int:
    """b(q) = ceil(8 log n / log(1/q)); finite only for 0 < q < 1."""
    if not 0.0 < q < 1.0:
        raise CapabilityError(f"b(q) is undefined at q={q}; needs 0 < q < 1")
    n = as_int(n, "n", 1)
    return math.ceil(8.0 * math.log(n) / math.log(1.0 / q))


def sparse_flush_holds(
    trace: InsertionTrace | Sequence[int], k: int, b: int, ell: int
) -> bool:
    """Does S(k, b, ell) hold: indices k <= t_1 < ... < t_b <= k + ell with
    v_{t_i} <= i?

    Greedy earliest match is exact here: the i-th threshold v_t <= i only
    loosens as i grows, so taking the first index satisfying the current
    threshold can never block a later match that some other selection would
    have allowed.  A raw sequence is checked as a trace.
    """
    positions, _ = _positions_of(trace)
    n = len(positions)
    b, ell, k = as_int(b, "b", 1), as_int(ell, "ell", 0), as_int(k, "k", 1, n)
    need = 1
    for t in range(k, min(k + ell, n) + 1):
        if positions[t - 1] <= need:
            need += 1
            if need > b:
                return True
    return False


@dataclass(frozen=True)
class EventReport:
    """Flags for every index of one trace, plus the derived cut set.

    Arrays are indexed by k-1.  ``local_flush`` and ``b`` are None when b(q)
    is undefined (q = 0 or 1, or a raw sequence without q); ``sparse`` holds
    one entry per requested (k, b, ell) triple.
    """

    n: int
    q: float
    flush: tuple[bool, ...]
    reverse_flush: tuple[bool, ...]
    cut_forward: tuple[bool, ...]
    cut_reverse: tuple[bool, ...]
    cut_set: tuple[int, ...]
    local_flush: tuple[bool, ...] | None = None
    b: int | None = None
    sparse: dict = field(default_factory=dict)


def detect_events(
    trace: InsertionTrace | Sequence[int],
    *,
    local: bool = False,
    sparse: Iterable[tuple[int, int, int]] = (),
) -> EventReport:
    """Evaluate every per-k event family on one trace.

    F/R/C flags are always computed, and L_k whenever b(q) is finite
    (0 < q < 1).  ``local=True`` demands L_k, refusing at q in {0, 1}.
    ``sparse`` is an iterable of (k, b, ell) triples to evaluate for
    S(k, b, ell); requesting any at q in {0, 1} is refused since the natural b
    is undefined there.
    """
    positions, q = _positions_of(trace)
    n = len(positions)
    v = np.asarray(positions, dtype=np.int64)
    flags = {key: f[0] for key, f in event_flag_matrix(v[None, :]).items()}
    sparse = tuple(sparse)

    bval: int | None = None
    local_flush: tuple[bool, ...] | None = None
    if q is not None and (0.0 < q < 1.0 or local or sparse):
        bval = b_value(n, q)  # refuses at q in {0, 1}
        # Index i breaks L_k for max(i - v_i + 1, i - b) <= k <= i - 1; L_k
        # holds where no such interval covers k (a difference array).
        i = np.arange(1, n + 1, dtype=np.int64)
        lo = np.maximum(i - v + 1, i - bval)
        broken = lo < i
        cover = np.bincount(lo[broken], minlength=n + 1) - np.bincount(i[broken], minlength=n + 1)
        local_flush = tuple((np.cumsum(cover)[1:] == 0).tolist())
    elif local or sparse:
        raise ValueError("local and sparse flush need a trace carrying q; wrap in InsertionTrace")

    return EventReport(
        n=n,
        q=q if q is not None else float("nan"),
        flush=tuple(flags["flush"].tolist()),
        reverse_flush=tuple(flags["reverse_flush"].tolist()),
        cut_forward=tuple(flags["cut_forward"].tolist()),
        cut_reverse=tuple(flags["cut_reverse"].tolist()),
        cut_set=tuple((np.flatnonzero(flags["cut"]) + 1).tolist()),
        local_flush=local_flush,
        b=bval,
        sparse={(k, b, ell): sparse_flush_holds(trace, k, b, ell) for k, b, ell in sparse},
    )


def cut_vertices_from_trace(trace: InsertionTrace | Sequence[int]) -> set[int]:
    """Cut vertices of the tangled graph of ``trace``, read off the trace alone.

    Equals articulation_points(build_tangled(mallows_process(trace))) for every
    trace; n < 3 has no internal vertices, so the set is empty.
    """
    positions, _ = _positions_of(trace)
    cut = event_flag_matrix(np.asarray(positions, dtype=np.int64)[None, :])["cut"][0]
    return set((np.flatnonzero(cut) + 1).tolist())


# ---------------------------------------------------------------------------
# exact probabilities
# ---------------------------------------------------------------------------


# np.sum adds a contiguous float64 array pairwise (Higham, "The accuracy of
# floating point summation", SIAM J. Sci. Comput. 14, 1993): a range of more
# than 128 terms is split at n//2 - (n//2) % 8 and each side summed alike.  The
# exact sums below replay that order over terms built on demand, at most
# _BLOCK at a time, so they keep np.sum's bits in O(_BLOCK) memory;
# tests/test_events.py pins the rule against np.sum.
_BLOCK = 2**14
# e^-40 is below a quarter ulp of 1, so log(1 - q^i) is 0.0 once i ln q <= -40.
_ZERO_EXPONENT = -40.0
# The most nonzero terms of log(1 - q^i) one exact probability builds (about
# 6 s of work on 2 vCPUs); more are needed only at n > ~2e8, 1 - q < ~1.5e-7.
_EXACT_TERMS = 2**28


def _pairwise(lo: int, hi: int, leaf, skip):
    """np.sum of the terms at lo .. hi-1, in numpy's order of additions.

    ``leaf(lo, hi)`` is np.sum of at most _BLOCK terms; ``skip(lo, hi)`` is
    the sum of a range found without its terms, or None."""
    found = skip(lo, hi)
    if found is not None:
        return found
    if hi - lo <= _BLOCK:
        return leaf(lo, hi)
    mid = lo + (hi - lo) // 2 - (hi - lo) // 2 % 8
    return _pairwise(lo, mid, leaf, skip) + _pairwise(mid, hi, leaf, skip)


@functools.lru_cache(maxsize=1024)
def _repeat_sum(value: float, count: int) -> float:
    """np.sum of ``count`` copies of ``value``: numpy's split depends on the
    length alone, so this takes O(log count) lengths."""
    if count <= _BLOCK:
        return np.full(count, value).sum()
    half = count // 2 - count // 2 % 8
    return _repeat_sum(value, half) + _repeat_sum(value, count - half)


def _check_terms(count: int, what: str) -> None:
    if count > _EXACT_TERMS:
        raise CapabilityError(
            f"{what} needs {count:.3g} nonzero terms of log(1 - q^i), above the "
            f"exact cap of 2^28 = {_EXACT_TERMS}"
        )


def _log1m_qpow(lo: int, hi: int, logq: float) -> np.ndarray:
    """log(1 - q^i) for lo <= i < hi, via expm1 for accuracy."""
    return np.log(-np.expm1(np.arange(lo, hi, dtype=np.float64) * logq))


def _log1m_qpow_prefix(logq: float, m: int, n: int):
    """A(i) = sum_{j <= i} log(1 - q^j) as np.cumsum adds it, as a function
    (lo, hi) -> A(i) for lo <= i < hi, and the index s where A stops moving.

    np.cumsum adds the shrinking terms |log(1 - q^i)| <= 2 q^i in order, so
    past the first within a quarter ulp of the sum the sum stays put: where
    m < n, A(i) = A(s) for i >= s, and s <= m.  A is held as its value at
    every _BLOCK-th index; a block is rebuilt by carrying that value into its
    terms, and the last few rebuilt blocks are kept."""
    marks, carry, s = [], 0.0, m
    for lo in range(0, m, _BLOCK):
        terms = _log1m_qpow(lo + 1, min(m, lo + _BLOCK) + 1, logq)
        sums = np.cumsum(np.concatenate(([carry], terms)))
        marks.append(carry)
        stall = np.flatnonzero(-terms <= np.spacing(-sums[:-1]) / 4) if m < n else ()
        if len(stall):
            s = lo + int(stall[0])
            break
        carry = sums[-1]
    else:
        marks.append(carry)

    @functools.lru_cache(maxsize=4)
    def block(j: int) -> np.ndarray:
        """A(i) for j * _BLOCK <= i <= min((j + 1) * _BLOCK, s)."""
        terms = _log1m_qpow(j * _BLOCK + 1, min(j * _BLOCK + _BLOCK, s) + 1, logq)
        return np.cumsum(np.concatenate(([marks[j]], terms)))

    def prefix(lo: int, hi: int) -> np.ndarray:  # hi - lo <= _BLOCK
        j = min(lo, s) // _BLOCK
        sums = block(j)
        if min(hi - 1, s) // _BLOCK > j:
            sums = np.concatenate((sums[:-1], block(j + 1)))
        return sums.take(np.arange(lo - j * _BLOCK, hi - j * _BLOCK), mode="clip")

    return prefix, s


def _log_flush(n: int, k: int, q: float) -> float:
    """log Pr[F_k] = sum_{i=1..m} [log(1-q^i) - log(1-q^{n-m+i})], m = min(k, n-k).

    The product is symmetric in k <-> n-k, so the shorter side is summed.
    """
    m = min(k, n - k)
    if m == 0 or q == 0.0:
        return 0.0
    if q == 1.0:
        return math.lgamma(k + 1) + math.lgamma(n - k + 1) - math.lgamma(n + 1)
    logq = math.log(q)
    zero = math.ceil(_ZERO_EXPONENT / logq) + 1  # i ln q <= -40 from here on
    _check_terms(min(m, zero) + max(0, min(n, zero) - (n - m)), f"Pr[F_{k}] at n={n}, q={q}")

    def leaf(lo: int, hi: int):
        return _log1m_qpow(lo, hi, logq).sum()

    def zeros(lo: int, hi: int):
        return 0.0 if lo * logq <= _ZERO_EXPONENT else None

    return float(_pairwise(1, m + 1, leaf, zeros) - _pairwise(n - m + 1, n + 1, leaf, zeros))


def flush_prob(n: int, k: int, q: float) -> float:
    """Pr[F_k] = prod_{i=1..k} (1 - q^i) / (1 - q^{n-k+i}), exactly.

    q = 0 gives 1 (all v_i = 1 satisfy every flush); q = 1 is the telescoped
    limit k! (n-k)! / n!, evaluated through lgamma.
    """
    n = as_int(n, "n", 1)
    k = as_int(k, "k", 1, n)
    as_real(q, "q", 0, 1)
    return clamp01(math.exp(_log_flush(n, k, q)))


def reverse_flush_prob(n: int, k: int, q: float) -> float:
    """Pr[R_k] = q^{k(n-k)} * Pr[F_k], evaluated in log space."""
    n = as_int(n, "n", 1)
    k = as_int(k, "k", 1, n)
    as_real(q, "q", 0, 1)
    if q == 0.0:
        return 1.0 if k == n else 0.0
    return clamp01(math.exp(_log_flush(n, k, q) + k * (n - k) * math.log(q)))


def _log_pick_first(k: int, q: float) -> float:
    """log Pr[v_k = 1] = log((1-q)/(1-q^k))."""
    if q == 1.0:
        return -math.log(k)
    return math.log1p(-q) - math.log(-math.expm1(k * math.log(q)))


def cut_event_probs(n: int, k: int, q: float) -> tuple[float, float]:
    """(Pr[C_k^F], Pr[C_k^R]) for an internal vertex 2 <= k <= n-1.

    Pr[C_k^F] = Pr[F_k] * (1-q)/(1-q^k) by independence of v_k from later
    positions; Pr[C_k^R] = q^{k(n-k+1)-1} * Pr[C_k^F].
    """
    n = as_int(n, "n", 1)
    k = as_int(k, "k", 2, n - 1)
    as_real(q, "q", 0, 1)
    if q == 0.0:
        return 1.0, 0.0
    log_pf = _log_flush(n, k, q) + _log_pick_first(k, q)
    log_pr = log_pf + (k * (n - k + 1) - 1) * math.log(q)
    return clamp01(math.exp(log_pf)), clamp01(math.exp(log_pr))


def expected_cuts(n: int, q: float, alpha: float) -> float:
    """E[X_n(alpha)] = sum over k in [ceil((1-alpha)n), floor(alpha n)] of
    Pr[C_k^F] + Pr[C_k^R].  At small n the range can hold an end vertex
    (k = 1 for n = 2, 3 at alpha = 2/3), whose events are no cut vertex."""
    k_lo, k_hi = alpha_cut_range(as_int(n, "n", 1), alpha)
    return expected_cuts_in_range(n, q, k_lo, k_hi)


def expected_cuts_in_range(n: int, q: float, k_lo: int, k_hi: int) -> float:
    """Sum of Pr[C_k^F] + Pr[C_k^R] over k_lo <= k <= k_hi (clamped to [1, n]).

    Through prefix sums of log(1 - q^i): log Pr[F_k] = A(k) + A(n-k) - A(n)
    with A(m) = sum_{i<=m} log(1-q^i).  Summed in blocks, in np.sum's order,
    so the memory is O(block) and a stretch of equal or zero terms costs
    O(log n); refuses with CapabilityError above 2^28 nonzero terms, and
    where k or n - k + 1 reaches 2^63 - 1, as k + 1 would pass int64.
    """
    n, k_lo, k_hi = as_int(n, "n", 1), as_int(k_lo, "k_lo"), as_int(k_hi, "k_hi")
    as_real(q, "q", 0, 1)
    k_lo, k_hi = max(1, k_lo), min(n, k_hi)
    if k_lo > k_hi:
        return 0.0
    if q == 0.0:
        return float(k_hi - k_lo + 1)  # every C_k^F certain, every C_k^R impossible
    if max(k_hi, n - k_lo + 1) > INDEX_MAX:
        raise CapabilityError(
            f"E[cuts] over k={k_lo}..{k_hi} at n={n} indexes terms at or past "
            "2^63 - 1, where k + 1 overflows the int64 blocks the exact sum is built in"
        )
    if q == 1.0:
        lg, top = np.vectorize(math.lgamma), math.lgamma(n + 1)

        def leaf(lo: int, hi: int):
            ks = np.arange(lo, hi, dtype=np.int64)
            return np.exp(lg(ks + 1) + lg(n - ks + 1) - top - np.log(ks)).sum()

        def zeros(lo: int, hi: int):
            # log Pr[C_k^F] = -log(k C(n, k)) is convex in k: a range whose ends
            # lie below -750, by more than its rounding, holds only exp() = 0.0
            ends = (math.lgamma(k + 1) + math.lgamma(n - k + 1) - top - math.log(k)
                    for k in (lo, hi - 1))
            return 0.0 if max(ends) < -750.0 - 16 * math.ulp(top) else None

        return float(2.0 * _pairwise(k_lo, k_hi + 1, leaf, zeros))
    logq, c = math.log(q), math.log1p(-q)
    m = min(n, math.ceil((math.log(-c) - 56 * math.log(2.0)) / logq) + 2)
    zero = math.ceil(_ZERO_EXPONENT / logq) + 1
    run = max(0, min(k_hi, n - m) - max(k_lo, m, zero) + 1)
    _check_terms(m + k_hi - k_lo + 1 - run, f"E[cuts] over k={k_lo}..{k_hi} at n={n}, q={q}")
    prefix, s = _log1m_qpow_prefix(logq, m, n)
    end = prefix(s, s + 1)[0]

    def log_probs(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """log Pr[C_k^F] and log Pr[C_k^R] for lo <= k < hi."""
        ks = np.arange(lo, hi, dtype=np.int64)
        log_flush = prefix(lo, hi) + prefix(n - hi + 1, n - lo + 1)[::-1] - end
        log_pf = log_flush + c - _log1m_qpow(lo, hi, logq)
        if (hi - 1) * (n - lo + 1) < 2**63:
            exponent = ks * (n - ks + 1) - 1
        else:  # k(n-k+1) would wrap in int64: take it exactly from Python ints
            big = ks.astype(object)
            exponent = (big * (n - big + 1) - 1).astype(np.float64)
        return log_pf, log_pf + exponent * logq

    def leaf(lo: int, hi: int) -> np.ndarray:
        return np.array([np.exp(x).sum() for x in log_probs(lo, hi)])

    stalled_pf = None

    def repeats(lo: int, hi: int):
        # Where A has stalled at k and at n - k and k ln q <= -40, every
        # log Pr[C_k^F] is one float; log Pr[C_k^R] is largest at the ends,
        # and where they lie below -750 each of its exp() is 0.0.
        nonlocal stalled_pf
        if lo < s or n - hi + 1 < s or lo * logq > _ZERO_EXPONENT:
            return None
        if stalled_pf is None:
            stalled_pf = log_probs(lo, lo + 1)[0]
        exponent = min(lo * (n - lo + 1), (hi - 1) * (n - hi + 2)) - 1
        if stalled_pf[0] + exponent * logq > -750.0:
            return None
        return np.array([_repeat_sum(np.exp(stalled_pf)[0], hi - lo), 0.0])

    sums = _pairwise(k_lo, k_hi + 1, leaf, repeats)
    return float(sums[0] + sums[1])


# ---------------------------------------------------------------------------
# analytic bounds
# ---------------------------------------------------------------------------


def flush_log_bounds(n: int, k: int, q: float) -> tuple[float, float]:
    """Sandwich for log Pr[F_k]:

        pi^2/(6 log q) - log(1-q)/2 + q log q / (6(1-q))  <=  log Pr[F_k]
        <=  pi^2/(6 log q) - log(1-q)/2
            + 2 q^m / ((1-q)(1 - q^m)) - (1-q)/(q log q),    m = min(n-k, k).

    m = 0 (k = n) makes the event certain and the finite-size correction
    degenerate; the upper bound is +inf there.
    """
    as_real(q, "q", 0, 1, "()")
    n = as_int(n, "n", 1)
    k = as_int(k, "k", 1, n)
    logq = math.log(q)
    center = _PI2_6 / logq - 0.5 * math.log1p(-q)
    lower = center + q * logq / (6.0 * (1.0 - q))
    m = min(n - k, k)
    if m == 0:
        return lower, math.inf
    qm = q**m
    upper = center + 2.0 * qm / ((1.0 - q) * (1.0 - qm)) - (1.0 - q) / (q * logq)
    return lower, upper


def flush_cheap_bound(n: int, k: int, q: float) -> float:
    """Upper bound exp(-q (1 - q^m) / (2(1-q))), m = min(k, n-k), on Pr[F_k]."""
    as_real(q, "q", 0, 1, "()")
    n = as_int(n, "n", 1)
    k = as_int(k, "k", 1, n)
    m = min(k, n - k)
    return clamp01(math.exp(-q * (1.0 - q**m) / (2.0 * (1.0 - q))))


@dataclass(frozen=True)
class CutProbWindow:
    """Closed-form window for Pr[C_k^F]; ``lower`` is None below the size
    hypothesis."""

    lower: float | None
    upper: float


def cut_prob_window(n: int, k: int, q: float, alpha: float) -> CutProbWindow:
    """The k-independent window [e^{-1/6} w, e^5 w], w = sqrt(1-q) exp(-pi^2/(6(1-q))).

    Hypotheses checked: k inside the alpha cut range and 1 <= 1/(1-q) <=
    n^{4/5}.  The size hypothesis n >= (100/(1-alpha))^5 is astronomically
    large for interesting alpha; below it only the upper end is claimed
    (lower is returned as None).
    """
    n, k = as_int(n, "n", 1), as_int(k, "k")
    k_lo, k_hi = alpha_cut_range(n, alpha)
    if not k_lo <= k <= k_hi:
        raise CapabilityError(
            f"k={k} outside the cut range [{k_lo}, {k_hi}] for alpha={alpha}"
        )
    if not 0.0 < q < 1.0:
        raise CapabilityError(f"window needs 0 < q < 1; got q={q}")
    inv1mq = 1.0 / (1.0 - q)
    if not 1.0 <= inv1mq <= n ** 0.8:
        raise CapabilityError(
            f"window needs 1 <= 1/(1-q) <= n^(4/5); got {inv1mq:.4g} vs {n ** 0.8:.4g}"
        )
    w = math.sqrt(1.0 - q) * math.exp(-_PI2_6 * inv1mq)
    lower = math.exp(-1.0 / 6.0) * w if n >= (100.0 / (1.0 - alpha)) ** 5 else None
    return CutProbWindow(lower=lower, upper=math.exp(5.0) * w)


@dataclass(frozen=True)
class ThresholdWindow:
    """q values bracketing the separator threshold at a given n.

    q_critical = 1 - pi^2/(6 log n); the exist/nonexist values push log n by
    margin * log log n in each direction, so q_exist < q_critical < q_nonexist
    whenever margin > 0 (equality at margin 0).
    """

    q_exist: float
    q_critical: float
    q_nonexist: float


def threshold_window(n: int, margin: float) -> ThresholdWindow:
    n = as_int(n, "n", 16)
    as_real(margin, "margin", 0)
    logn = math.log(n)
    llog = math.log(logn)
    denom_exist = logn - margin * llog
    if denom_exist <= 0:
        raise ValueError(
            f"margin {margin} too large at n={n}: log n - margin log log n <= 0"
        )
    q_exist = max(0.0, 1.0 - _PI2_6 / denom_exist)
    q_critical = 1.0 - _PI2_6 / logn
    q_nonexist = 1.0 - _PI2_6 / (logn + margin * llog)
    return ThresholdWindow(q_exist, q_critical, q_nonexist)
