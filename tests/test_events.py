"""Event detection on traces and the exact/analytic probability formulas.

Detection is checked against literal double-loop oracles, the closed-form
probabilities against weighted enumeration over all traces, and every
analytic bound against the exact quantity it claims to bracket.
"""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tangledpath import (
    CapabilityError,
    InsertionTrace,
    b_value,
    cut_event_probs,
    cut_prob_window,
    cut_vertices_from_trace,
    detect_events,
    event_flag_matrix,
    expected_cuts,
    expected_cuts_in_range,
    flush_cheap_bound,
    flush_log_bounds,
    flush_prob,
    mallows_process,
    parse_trace,
    reverse_flush_prob,
    sample_trace_matrix,
    sparse_flush_holds,
    threshold_window,
)
import tangledpath as tp
import tangledpath.events as events
from tangledpath._util import alpha_cut_range, as_real, clamp01
from tangledpath.rng import derive, derive_array
from tangledpath.sweeps import _BLOCK_ENTRIES
from conftest import (
    EDGE_ALPHAS,
    EDGE_NS,
    EDGE_QS,
    SplitMix64,
    reference_event_flags,
    naive_cut_forward,
    naive_cut_reverse,
    naive_cut_set,
    naive_flush,
    naive_local_flush,
    naive_reverse_flush,
    naive_sparse_flush,
    bad_edge_classification,
    chernoff_bound,
    enumerate_traces,
    euler_log_product,
    janson_tail_bound,
    log_partition_function,
    mallows_pmf,
    sparse_flush_bound,
    tv_distance_to_uniform,
)


def all_traces(n):
    return itertools.product(*[range(1, i + 1) for i in range(1, n + 1)])


traces_strategy = st.integers(2, 9).flatmap(
    lambda n: st.tuples(*[st.integers(1, i) for i in range(1, n + 1)])
)


# --- flag detection vs naive oracles ---


def test_flag_matrix_matches_oracles_exhaustive():
    n = 5
    batch = np.array(list(all_traces(n)), dtype=np.int64)
    flags = event_flag_matrix(batch)
    for row, v in enumerate(all_traces(n)):
        for k in range(1, n + 1):
            assert flags["flush"][row, k - 1] == naive_flush(v, k)
            assert flags["reverse_flush"][row, k - 1] == naive_reverse_flush(v, k)
            assert flags["cut_forward"][row, k - 1] == naive_cut_forward(v, k)
            assert flags["cut_reverse"][row, k - 1] == naive_cut_reverse(v, k)
        assert set((np.flatnonzero(flags["cut"][row]) + 1).tolist()) == naive_cut_set(v)


# The sweep's streamed cells flag blocks of _BLOCK_ENTRIES // rows columns.
_ROWS = 4
_B = _BLOCK_ENTRIES // _ROWS


@functools.lru_cache(maxsize=None)
def _traces_and_flags(n, q):
    seeds = np.array([3, 2**64 - 1, 2**63, 11], dtype=np.uint64)
    v = sample_trace_matrix(n, q, seeds)
    return v, event_flag_matrix(v)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_flag_matrix_block_chain_matches_one_call(data):
    """event_flag_matrix over a right-to-left chain of column blocks, each
    passed the tail of the block to its right, gives the one-call flags; and
    _fold_tail gives each block's tail pair without the flags."""
    n = data.draw(st.sampled_from([1, 2, _B - 1, _B, _B + 1, 3 * _B + 5]))
    qs = [0.0, 0.5, 1.0] + ([1 - 1 / (n * math.log(n))] if n > 1 else [])
    q = data.draw(st.sampled_from(qs))
    cuts = data.draw(st.sets(st.integers(1, n - 1), max_size=6)) if n > 1 else set()
    v, whole = _traces_and_flags(n, q)
    edges = [0, *sorted(cuts), n]
    tail = None
    for lo, hi in reversed(list(zip(edges, edges[1:]))):
        flags = event_flag_matrix(v[:, lo:hi], lo, tail)
        for key in ("flush", "reverse_flush", "cut_forward", "cut_reverse", "cut"):
            assert np.array_equal(flags[key], whole[key][:, lo:hi]), (key, lo, hi)
        folded = events._fold_tail(v[:, lo:hi].copy(), lo, tail)
        assert all(np.array_equal(a, b) for a, b in zip(folded, flags["tail"])), (lo, hi)
        tail = flags["tail"]
    d = np.arange(1, n + 1) - v
    assert np.array_equal(tail[0], d.min(axis=1)) and np.array_equal(tail[1], v.min(axis=1))
    assert all(np.array_equal(a, b) for a, b in zip(tail, whole["tail"]))


_FLAG_KEYS = ("flush", "reverse_flush", "cut_forward", "cut_reverse", "cut")


def _assert_flags_equal(got, want, where):
    for key in _FLAG_KEYS:
        assert np.array_equal(got[key], want[key]), (key, where)
    assert all(np.array_equal(a, b) for a, b in zip(got["tail"], want["tail"])), ("tail", where)


def _reference_batches(n):
    """Five sampled traces per q, then the all-ones trace, the trace v_i = i,
    and all-ones traces with spikes v_i = s, each of which alone breaks F_k
    for the s - 1 indices k left of i, so a window one column short shows.
    Each batch is flagged on its own, since the largest v_i over all rows
    picks the route."""
    qs = [0.0, 0.3, 1.0] + ([1 - 1 / (n * math.log(n))] if n > 1 else [])
    qs += [threshold_window(n, 0.0).q_critical] if n >= 16 else []
    seeds = derive_array(17, np.arange(5, dtype=np.uint64))
    spikes = np.ones((6, n), dtype=np.int64)
    for row, s in zip(spikes, (3, 6, 12, 33, 130, 1000)):
        for at in (s + 5, 2 * s + 100, n - 1):
            if s <= at < n:
                row[at] = s
    return [sample_trace_matrix(n, q, seeds) for q in qs] + [
        np.ones((1, n), dtype=np.int64), np.arange(1, n + 1)[None, :], spikes]


@pytest.mark.parametrize("n", [1, 2, 7, 40, 300, 2500])
@pytest.mark.parametrize("scan_entries", [events._SCAN_ENTRIES, 0])
def test_flag_matrix_matches_reference_formula(monkeypatch, n, scan_entries):
    """The windowed routine gives the reversed-accumulate formula's five
    arrays and tail: over right-to-left block chains of width 1, of random
    widths and of the whole row, on blocks whose largest v_i is below and
    at or above their width; and on single blocks with tails below, inside
    and above the block.  ``scan_entries`` 0 sends even small blocks through
    the window passes."""
    monkeypatch.setattr(events, "_SCAN_ENTRIES", scan_entries)
    gen = SplitMix64(n)
    for v in _reference_batches(n):
        chains = [[1] * n] if n <= 300 else []
        widths = []
        while sum(widths) < n:
            widths.append(1 + int(gen.uniform() * max(1, n // 3)))
        chains += [widths, [n]]
        for chain in chains:
            tail, hi = None, n
            for w in chain:
                lo = max(0, hi - w)
                block = v[:, lo:hi]
                got = event_flag_matrix(block, lo, tail)
                _assert_flags_equal(got, reference_event_flags(block, lo, tail), (lo, hi))
                tail, hi = got["tail"], lo
                if hi == 0:
                    break
        for lo in {0, n // 3, n - 1}:
            hi = max(lo + 1, (lo + n) // 2)
            block = v[:, lo:hi]
            for td in (0, lo // 2, (lo + hi) // 2, hi + 5):
                for tv in (1, (lo + hi) // 2 + 1, hi + 3):
                    tail = (np.full(len(v), td), np.full(len(v), tv))
                    want = reference_event_flags(block, lo, tail)
                    _assert_flags_equal(event_flag_matrix(block, lo, tail), want, (lo, td, tv))


def test_flag_window_passes_in_int64_past_2_31(monkeypatch):
    """Past index 2**31 the window passes, which hold i - v_i - first, on an
    8 x 4096 block of q = 0.5 positions at first = 2**31 - 100, with a tail
    pair, give the scan route's five arrays and tail."""
    first, ncols = 2**31 - 100, 4096
    seeds = derive_array(5, np.arange(8, dtype=np.uint64))
    v = sample_trace_matrix(first + ncols, 0.5, seeds, first)
    assert 2 * v.max() < ncols and v.size >= events._SCAN_ENTRIES  # the window route
    last = first + ncols
    tail = (first + np.array([-50, 0, 7, 2000, 4090, 4096, 4100, 10**6]),
            np.array([1, 3, 20, first, last - 1, last, last + 1, 1 << 60]))
    windowed = event_flag_matrix(v, first, tail)
    monkeypatch.setattr(events, "_SCAN_ENTRIES", v.size + 1)
    _assert_flags_equal(windowed, event_flag_matrix(v, first, tail), first)
    assert windowed["flush"].any() and windowed["reverse_flush"].any()


def test_flag_window_tail_of_rows_without_a_one():
    """A window-route block hands on the least v_i of each row as its tail:
    1 for a row that holds one, else the row's own minimum, whether or not
    the other rows hold a 1; with tails below, inside and above the block."""
    first, ncols = 5000, 4500
    v = np.random.default_rng(3).integers(2, 40, size=(4, ncols))
    v[1, 100] = 1
    v[3] = 7
    assert 2 * v.max() < ncols and v.size >= events._SCAN_ENTRIES  # the window route
    for rows in (v, v[[0, 2, 3]], v[[1]]):
        for td, tv in ((first - 9, 1), (first + 4000, 5), (first + ncols + 3, 1 << 60)):
            tail = (np.full(len(rows), td), np.full(len(rows), tv))
            _assert_flags_equal(event_flag_matrix(rows, first, tail),
                                reference_event_flags(rows, first, tail), (len(rows), td, tv))


def test_flag_matrix_of_no_columns_is_empty():
    """A batch of 0 columns has empty flags and hands on the tail it got."""
    for first, tail in ((0, None), (7, (np.arange(3), np.arange(3) + 1))):
        flags = event_flag_matrix(np.empty((3, 0), dtype=np.int64), first, tail)
        assert all(flags[key].shape == (3, 0) for key in _FLAG_KEYS)
        want = tail or (np.full(3, events._NO_TAIL),) * 2
        assert all(np.array_equal(a, b) for a, b in zip(flags["tail"], want))


@given(traces_strategy)
@settings(max_examples=150, deadline=None)
def test_detect_events_matches_oracles(v):
    rep = detect_events(parse_trace(",".join(map(str, v)), 0.5))
    n = len(v)
    for k in range(1, n + 1):
        assert rep.flush[k - 1] == naive_flush(v, k)
        assert rep.reverse_flush[k - 1] == naive_reverse_flush(v, k)
        assert rep.cut_forward[k - 1] == naive_cut_forward(v, k)
        assert rep.cut_reverse[k - 1] == naive_cut_reverse(v, k)
    assert set(rep.cut_set) == naive_cut_set(v)


# q giving b(q) = 1, 2, a few, and b(q) >= n at the trace lengths used here
LOCAL_QS = (1e-12, 1e-6, 0.01, 0.5)


def _assert_local_flush_literal(v, q):
    rep = detect_events(InsertionTrace(tuple(v), q))
    assert rep.b == b_value(len(v), q)
    assert rep.local_flush == tuple(
        naive_local_flush(v, k, rep.b) for k in range(1, len(v) + 1)
    )


def test_local_flush_matches_definition_exhaustive():
    """L_k from the difference array against its literal definition on every
    trace with n <= 7."""
    for q in LOCAL_QS:
        for n in range(1, 8):
            for v in all_traces(n):
                _assert_local_flush_literal(v, q)


@given(traces_strategy, st.sampled_from(LOCAL_QS))
@settings(max_examples=150, deadline=None)
def test_local_flush_matches_definition(v, q):
    _assert_local_flush_literal(v, q)


@given(traces_strategy)
@settings(max_examples=100, deadline=None)
def test_event_implications(v):
    """C_k^F implies F_k and v_k = 1; F_k implies L_k; C^F and C^R disjoint."""
    trace = parse_trace(",".join(map(str, v)), 0.5)
    rep = detect_events(trace)
    for k in range(1, len(v) + 1):
        if rep.cut_forward[k - 1]:
            assert rep.flush[k - 1] and v[k - 1] == 1
        if rep.cut_reverse[k - 1]:
            assert rep.reverse_flush[k - 1] and v[k - 1] == k
        if rep.flush[k - 1]:
            assert rep.local_flush[k - 1]
        assert not (rep.cut_forward[k - 1] and rep.cut_reverse[k - 1] and len(v) > 1)


def test_figure_traces():
    rep = detect_events(parse_trace("1,1,2,1,3,1,1,3,2", 0.5))
    assert rep.flush[4]
    rep = detect_events(parse_trace("1,1,3,2,1,1,1,3,2", 0.5))
    assert rep.cut_forward[4]
    assert rep.cut_set == (5,)
    assert cut_vertices_from_trace(parse_trace("1,1,3,2,1,1,1,3,2", 0.5)) == {5}


def test_all_ones_trace_is_fully_flushed():
    v = [1] * 8
    rep = detect_events(parse_trace(",".join(map(str, v)), 0.5))
    assert all(rep.flush)
    assert set(rep.cut_set) == set(range(2, 8))


def test_local_and_sparse_refused_at_degenerate_q():
    with pytest.raises(CapabilityError):
        b_value(100, 0.0)
    with pytest.raises(CapabilityError):
        b_value(100, 1.0)
    t = parse_trace("1,1,2", 1.0)
    with pytest.raises(CapabilityError):
        detect_events(t, local=True)
    with pytest.raises(CapabilityError):
        detect_events(t, sparse=[(1, 2, 2)])
    rep = detect_events(t)  # F/R/C flags still fine
    assert len(rep.flush) == 3 and rep.local_flush is None
    for kwargs in ({"local": True}, {"sparse": [(1, 2, 2)]}):
        with pytest.raises(ValueError, match="carrying q"):
            detect_events([1, 1, 2], **kwargs)
    assert detect_events([1, 1, 2]).local_flush is None


def test_bad_edge_classification_figure():
    t = parse_trace("1,1,2,4,2,1,3,1,5,1,2,3,1,2,1", 0.5)
    bad, a, b, c = bad_edge_classification(t, 3, 3, 8)
    assert len(bad) == 3
    assert a == (4, 9)
    assert b == (5, 6, 7, 8, 10, 11)
    assert c == (12, 13, 14, 15)


def test_bad_edges_none_at_right_endpoint():
    t = parse_trace("1,2,1,3,2,5", 0.5)
    bad, a, b, c = bad_edge_classification(t, 6, 1, 1)
    assert bad == [] and a == () and b == () and c == ()


def test_bad_edges_direct_scan_oracle():
    t = parse_trace("1,1,2,4,2,1,3,1,5,1,2,3,1,2,1", 0.5)
    sigma = mallows_process(t).image
    for i in range(1, 16):
        bad, _, _, _ = bad_edge_classification(t, i, 2, 5)
        expect = sorted(
            tuple(sorted((sigma[j], sigma[j + 1])))
            for j in range(len(sigma) - 1)
            if min(sigma[j], sigma[j + 1]) < i < max(sigma[j], sigma[j + 1])
        )
        assert sorted(bad) == expect


# --- sparse flush greedy vs brute force ---


@given(
    st.integers(2, 10).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.integers(1, i) for i in range(1, n + 1)]),
            st.integers(1, n),
            st.integers(1, 4),
            st.integers(0, n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_sparse_greedy_matches_brute(args):
    v, k, b, ell = args
    assert sparse_flush_holds(v, k, b, ell) == naive_sparse_flush(v, k, b, ell)


def test_sparse_flush_window_truncates():
    # ell far beyond n is the same as ell = n - k
    v = (1, 1, 2, 1, 3)
    assert sparse_flush_holds(v, 2, 2, 10**6) == sparse_flush_holds(v, 2, 2, 3)


# --- exact probability formulas vs enumeration ---


def enum_event_prob(n, q, flag):
    total = 0.0
    for trace, w in enumerate_traces(n, q):
        if flag(trace.positions):
            total += w
    return total


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_flush_prob_matches_enumeration(q):
    for n in range(2, 7):
        for k in range(1, n + 1):
            got = flush_prob(n, k, q)
            want = enum_event_prob(n, q, lambda v: naive_flush(v, k))
            assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_reverse_flush_matches_enumeration(q):
    for n in range(2, 7):
        for k in range(1, n + 1):
            got = reverse_flush_prob(n, k, q)
            want = enum_event_prob(n, q, lambda v: naive_reverse_flush(v, k))
            assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_cut_event_probs_match_enumeration(q):
    for n in range(3, 7):
        for k in range(2, n):
            pf, pr = cut_event_probs(n, k, q)
            assert pf == pytest.approx(
                enum_event_prob(n, q, lambda v: naive_cut_forward(v, k)), abs=1e-10
            )
            assert pr == pytest.approx(
                enum_event_prob(n, q, lambda v: naive_cut_reverse(v, k)), abs=1e-10
            )


def test_expected_cuts_matches_enumeration():
    n, q, alpha = 6, 0.5, 0.6
    k_lo, k_hi = 3, 3  # ceil(0.4*6) .. floor(0.6*6) with epsilon snap
    want = 0.0
    for trace, w in enumerate_traces(n, q):
        v = trace.positions
        count = sum(
            1
            for k in range(k_lo, k_hi + 1)
            if naive_cut_forward(v, k) or naive_cut_reverse(v, k)
        )
        want += w * count
    assert expected_cuts(n, q, alpha) == pytest.approx(want, abs=1e-10)


def test_flush_prob_goldens():
    assert flush_prob(3, 1, 0.5) == pytest.approx(4 / 7, abs=1e-12)
    assert flush_prob(5, 5, 0.37) == 1.0
    assert flush_prob(4, 2, 0.0) == 1.0
    # q = 1 limit telescopes to k!(n-k)!/n!
    assert flush_prob(6, 2, 1.0) == pytest.approx(
        math.factorial(2) * math.factorial(4) / math.factorial(6), rel=1e-12
    )


def test_flush_prob_symmetry_and_monotonicity():
    for q in (0.3, 0.7):
        for n in (5, 9, 14):
            for k in range(1, n):
                assert flush_prob(n, k, q) == pytest.approx(
                    flush_prob(n, n - k, q), rel=1e-12
                )
            assert flush_prob(n, n, q) == 1.0
    # nonincreasing in n at fixed (k, q)
    for q in (0.3, 0.8):
        vals = [flush_prob(n, 3, q) for n in range(3, 30)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_reverse_flush_factor():
    for n, k, q in [(4, 2, 0.5), (9, 4, 0.8), (12, 6, 0.3)]:
        assert reverse_flush_prob(n, k, q) == pytest.approx(
            q ** (k * (n - k)) * flush_prob(n, k, q), rel=1e-12
        )
        assert reverse_flush_prob(n, k, q) <= flush_prob(n, k, q)
    assert reverse_flush_prob(7, 3, 1.0) == pytest.approx(flush_prob(7, 3, 1.0))
    assert reverse_flush_prob(7, 3, 0.0) == 0.0


def test_cut_event_prob_identities():
    pf, pr = cut_event_probs(5, 3, 1.0)
    assert pf == pytest.approx(pr, rel=1e-12)
    pf, pr = cut_event_probs(5, 3, 0.0)
    assert pf == 1.0 and pr == 0.0
    pf, pr = cut_event_probs(9, 4, 0.6)
    assert pr == pytest.approx(0.6 ** (4 * (9 - 4 + 1) - 1) * pf, rel=1e-12)
    assert pr < pf


def test_q1_reverse_and_cut_probs_equal_exactly():
    """At q = 1 the log-space formulas add an exact 0.0 for the q factor, so
    R_k is as likely as F_k and C_k^R as C_k^F, bit for bit."""
    for n in range(1, 41):
        for k in range(1, n + 1):
            assert reverse_flush_prob(n, k, 1.0) == flush_prob(n, k, 1.0), (n, k)
            if 2 <= k <= n - 1:
                pf, pr = cut_event_probs(n, k, 1.0)
                assert pf == pr, (n, k)


_P = (1, 1, 2, 1, 3, 2, 5, 4)  # a valid trace for the sequence-taking entry points
_SIZE_CALLS = [
    # (parameter name, call with that parameter set to x, a valid x)
    ("n", lambda x: flush_prob(x, 3, 0.5), 10),
    ("k", lambda x: flush_prob(10, x, 0.5), 3),
    ("n", lambda x: reverse_flush_prob(x, 3, 0.5), 10),
    ("k", lambda x: reverse_flush_prob(10, x, 0.5), 3),
    ("n", lambda x: cut_event_probs(x, 3, 0.5), 10),
    ("k", lambda x: cut_event_probs(10, x, 0.5), 3),
    ("n", lambda x: expected_cuts_in_range(x, 0.5, 2, 7), 10),
    ("k_lo", lambda x: expected_cuts_in_range(10, 0.5, x, 7), 2),
    ("k_hi", lambda x: expected_cuts_in_range(10, 0.5, 2, x), 7),
    ("n", lambda x: expected_cuts(x, 0.5, 2 / 3), 9),
    ("n", lambda x: sample_trace_matrix(x, 0.5, [1, 2]), 6),
    ("first", lambda x: sample_trace_matrix(9, 0.5, [1, 2], x), 3),
    ("n", lambda x: tp.sample_trace(x, 0.5, 7), 6),
    ("n", lambda x: tp.TruncatedGeometric(x, 0.5), 4),
    ("j", lambda x: tp.TruncatedGeometric(6, 0.5).pmf(x), 2),
    ("n", lambda x: log_partition_function(x, 0.5), 6),
    ("n", lambda x: tp.trace_table(x, 0.5), 4),
    ("k", lambda x: tv_distance_to_uniform(x, 0.5), 6),
    ("n", lambda x: tp.displacement_samples(x, 0.5, 3, 10, 1), 8),
    ("i", lambda x: tp.displacement_samples(8, 0.5, x, 10, 1), 3),
    ("trials", lambda x: tp.displacement_samples(8, 0.5, 3, x, 1), 10),
    ("seed", lambda x: tp.displacement_samples(8, 0.5, 3, 10, x), 1),
    ("n", lambda x: b_value(x, 0.5), 100),
    ("n", lambda x: flush_log_bounds(x, 3, 0.5), 10),
    ("k", lambda x: flush_log_bounds(10, x, 0.5), 3),
    ("n", lambda x: flush_cheap_bound(x, 3, 0.5), 10),
    ("k", lambda x: flush_cheap_bound(10, x, 0.5), 3),
    ("n", lambda x: threshold_window(x, 1.0), 100),
    ("n", lambda x: cut_prob_window(x, 40, 0.5, 2 / 3), 100),
    ("k", lambda x: cut_prob_window(100, x, 0.5, 2 / 3), 40),
    ("n", lambda x: sparse_flush_bound(x, 2, 0.5, 2.0), 10),
    ("b", lambda x: sparse_flush_bound(10, x, 0.5, 2.0), 2),
    ("k", lambda x: sparse_flush_holds(_P, x, 2, 3), 2),
    ("b", lambda x: sparse_flush_holds(_P, 2, x, 3), 2),
    ("ell", lambda x: sparse_flush_holds(_P, 2, 2, x), 3),
    ("k", lambda x: detect_events(InsertionTrace(_P, 0.5), sparse=[(x, 2, 3)]), 2),
    ("seed", lambda x: tp.derive(x, 2), 1),
    ("path part", lambda x: tp.derive(1, 2, x), 3),
    ("seed", lambda x: tp.derive_array(x, np.arange(3)), 1),
    ("seed", lambda x: tp.stream_u64(x, 0, 3), 1),
    ("start", lambda x: tp.stream_u64(1, x, 3), 2),
    ("count", lambda x: tp.stream_u64(1, 0, x), 3),
    ("count", lambda x: SplitMix64(1).uniforms(x), 3),
    ("ncols", lambda x: tp.uniform_matrix(np.array([1, 2], dtype=np.uint64), x), 3),
    ("i", lambda x: bad_edge_classification(_P, x, 1, 2), 3),
    ("ell", lambda x: bad_edge_classification(_P, 3, x, 4), 1),
    ("L", lambda x: bad_edge_classification(_P, 3, 1, x), 2),
    ("vertex count", lambda x: tp.make_graph(x, [(1, 2)]), 3),
    ("source", lambda x: tp.bfs_distances(tp.make_graph(3, [(1, 2), (2, 3)]), x), 2),
    ("n_list entry", lambda x: tp.SweepConfig("separator", (x,), (0.5,)), 10),
    ("trials", lambda x: tp.SweepConfig("separator", (10,), (0.5,), trials=x), 10),
    ("thread_count", lambda x: tp.SweepConfig("separator", (10,), (0.5,), thread_count=x), 2),
    ("master_seed", lambda x: tp.SweepConfig("separator", (10,), (0.5,), master_seed=x), 7),
    ("bisections", lambda x: tp.SweepConfig("expansion", (10,), (0.5,), bisections=x), 4),
    ("t_list entry", lambda x: tp.SweepConfig("displacement", (10,), (0.5,), t_list=(x,)), 2),
]


def _ids(table) -> list[str]:
    """'<function>-<parameter>' for each row, the function read off the call."""
    return [f"{next(f for f in call.__code__.co_names if f != 'tp')}-{name}"
            for name, call, _ in table]


@pytest.mark.parametrize("name, call, good", _SIZE_CALLS, ids=_ids(_SIZE_CALLS))
def test_probabilities_refuse_non_integer_sizes(name, call, good):
    """A fractional or bool size, index or seed belongs to no graph: every
    public entry point refuses it with ValueError, not using it as a real
    number; numpy integers pass and give what the int gives."""
    for bad in (5.5, 5.0, np.float64(5.0), True):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(bad)
    np.testing.assert_equal(call(np.int64(good)), call(good))
    np.testing.assert_equal(call(np.uint8(good)), call(good))


def test_sizes_are_checked_before_they_are_used():
    """A size is refused as a non-integer before any cap or range compares it."""
    for call in (lambda: tp.trace_table(10.5, 0.5), lambda: tp.trace_table(None, 0.5),
                 lambda: expected_cuts("9", 0.5, 2 / 3)):
        with pytest.raises(ValueError, match="^n must be an integer"):
            call()


_TRACE_CALLS = [
    # every entry point that reads a trace, sent the raw sequence t
    lambda t: InsertionTrace(t, 0.5),
    lambda t: mallows_process(t),
    lambda t: tp.format_trace(t),
    lambda t: detect_events(t),
    lambda t: cut_vertices_from_trace(t),
    lambda t: bad_edge_classification(t, 1, 1, 1),
    lambda t: sparse_flush_holds(t, 1, 1, 1),
]


@pytest.mark.parametrize("call", _TRACE_CALLS, ids=lambda call: call.__code__.co_names[-1])
def test_trace_readers_refuse_bad_raw_traces(call):
    """A raw sequence is a trace only with integer 1 <= v_i <= i: each reader
    refuses an entry out of range, a float and a bool, and reads a good one."""
    for bad in ([0, 1], [1, 3], [1.5, 1], [True]):
        with pytest.raises(ValueError, match="(outside|must be integers)"):
            call(bad)
    call([1, 2, 1])


@pytest.mark.parametrize("call", _TRACE_CALLS, ids=lambda call: call.__code__.co_names[-1])
def test_trace_readers_refuse_empty_traces(call):
    """A trace has n >= 1 positions: each reader refuses an empty one on
    entry, as every sampler refuses n < 1."""
    for empty in ([], (), np.empty(0, dtype=np.int64)):
        with pytest.raises(ValueError, match="at least one position"):
            call(empty)


_NAN = float("nan")
_REAL_CALLS = [
    # (parameter name, call with that parameter set to x, values it refuses:
    # NaN, one beyond each end, and each open end itself)
    ("q", lambda x: sample_trace_matrix(5, x, [1]), (_NAN, -0.1, 1.5)),
    ("q", lambda x: InsertionTrace([1, 2], x), (_NAN, -0.1, 1.5)),
    ("q", lambda x: tp.TruncatedGeometric(3, x), (_NAN, -0.1, 1.5)),
    ("q", lambda x: log_partition_function(3, x), (_NAN, -0.1, 1.5)),
    ("q", lambda x: mallows_pmf((2, 1), x), (_NAN, -0.1, 1.5)),
    ("q", lambda x: flush_prob(10, 3, x), (_NAN, -0.1, 1.5)),
    ("q", lambda x: reverse_flush_prob(10, 3, x), (_NAN, -0.1, 1.5)),
    ("q", lambda x: cut_event_probs(10, 3, x), (_NAN, -0.1, 1.5)),
    ("q", lambda x: expected_cuts_in_range(10, x, 2, 7), (_NAN, -0.1, 1.5)),
    ("q", lambda x: tp.SweepConfig("separator", (10,), (x,)), (_NAN, -0.1, 1.5)),
    ("q", lambda x: euler_log_product(x), (_NAN, 0.0, 1.0)),
    ("q", lambda x: flush_log_bounds(10, 3, x), (_NAN, 0.0, 1.0)),
    ("q", lambda x: flush_cheap_bound(10, 3, x), (_NAN, 0.0, 1.0)),
    ("q", lambda x: sparse_flush_bound(10, 2, x, 2.0), (_NAN, 0.0, 1.0)),
    ("alpha", lambda x: expected_cuts(10, 0.5, x), (_NAN, 0.5, 1.0, 0.4)),
    ("alpha", lambda x: tp.unit_separator(tp.make_graph(3, [(1, 2)]), x), (_NAN, 0.5, 1.0)),
    ("alpha", lambda x: tp.SweepConfig("separator", (10,), (0.5,), alpha=x), (_NAN, 0.5, 1.0)),
    ("margin", lambda x: threshold_window(100, x), (_NAN, -1.0)),
    ("n", lambda x: expected_cuts(x, 0.5, 2 / 3), (0, -5)),
    ("n", lambda x: expected_cuts_in_range(x, 0.5, 1, 1), (0, -5)),
    ("n", lambda x: cut_prob_window(x, 1, 0.5, 2 / 3), (0, -5)),
    ("lambda", lambda x: sparse_flush_bound(10, 2, 0.5, x), (_NAN, 0.5)),
    ("lambda", lambda x: janson_tail_bound(x, 1.0, 0.5), (_NAN, 0.5)),
    ("mu", lambda x: janson_tail_bound(2.0, x, 0.5), (_NAN, -1.0)),
    ("p_star", lambda x: janson_tail_bound(2.0, 1.0, x), (_NAN, 0.0, 1.5)),
    ("mu", lambda x: chernoff_bound(x, 1.0), (_NAN, -1.0)),
    ("delta", lambda x: chernoff_bound(1.0, x), (_NAN, 0.0, -1.0)),
    ("i_frac", lambda x: tp.SweepConfig("displacement", (10,), (0.5,), i_frac=x), (_NAN, 0.0, 1.2)),
    ("k_fracs entry", lambda x: tp.SweepConfig("flush-validate", (10,), (0.5,), k_fracs=(x,)),
     (_NAN, 0.0, 1.5)),
]


@pytest.mark.parametrize("name, call, bad", _REAL_CALLS, ids=_ids(_REAL_CALLS))
def test_real_parameters_refuse_nan_and_out_of_range(name, call, bad):
    for x in bad:
        with pytest.raises(ValueError, match=f"^{name}={x} outside "):
            call(x)


def test_real_check_keeps_the_value_and_its_type():
    """The real-range check hands its value back as given: a float32 q stays
    one on the trace, and a closed end is accepted."""
    q = np.float32(0.5)
    assert InsertionTrace([1, 2], q).q is q
    assert as_real(q, "q", 0, 1) is q
    assert as_real(1.0, "p_star", 0, 1, "(]") == 1.0
    assert janson_tail_bound(2.0, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError, match="^probability is NaN$"):
        clamp01(_NAN)


def test_expected_cuts_range_identities():
    assert expected_cuts(9, 0.0, 2 / 3) == 4.0
    assert expected_cuts_in_range(10, 0.0, 4, 7) == 4.0
    assert expected_cuts_in_range(10, 0.5, 8, 3) == 0.0
    # the alpha wrapper agrees with the explicit index range
    n, q = 20, 0.55
    k_lo = math.ceil((1 - 2 / 3) * n - 1e-9)
    k_hi = math.floor(2 / 3 * n + 1e-9)
    assert expected_cuts(n, q, 2 / 3) == pytest.approx(
        expected_cuts_in_range(n, q, k_lo, k_hi), rel=1e-12
    )
    direct = sum(sum(cut_event_probs(n, k, q)) for k in range(k_lo, k_hi + 1))
    assert expected_cuts(n, q, 2 / 3) == pytest.approx(direct, rel=1e-10)


def test_expected_cuts_q1_route():
    # lgamma path vs direct per-k sums at q = 1
    n = 30
    k_lo, k_hi = 10, 20
    direct = sum(sum(cut_event_probs(n, k, 1.0)) for k in range(k_lo, k_hi + 1))
    assert expected_cuts_in_range(n, 1.0, k_lo, k_hi) == pytest.approx(direct, rel=1e-10)


def _log1m_qpow_array(exponents, logq):
    """log(1 - q^e) over a whole array of exponents."""
    return np.log(-np.expm1(exponents * logq))


def _full_prefix(n, q):
    """The whole n-length prefix sum of log(1 - q^i), with no stop where the
    sum stalls."""
    prefix = np.arange(n + 1, dtype=np.float64)
    np.cumsum(_log1m_qpow_array(prefix[1:], math.log(q)), out=prefix[1:])
    return prefix


def _full_prefix_cuts(n, q, k_lo, k_hi, prefix=None):
    """expected_cuts_in_range through whole k-range arrays: at 0 < q < 1 from
    the whole prefix of :func:`_full_prefix`, at q = 1 from lgamma."""
    ks = np.arange(k_lo, k_hi + 1, dtype=np.int64)
    if q == 1.0:
        lg = np.vectorize(math.lgamma)
        log_pf = lg(ks + 1) + lg(n - ks + 1) - math.lgamma(n + 1) - np.log(ks)
        return float(2.0 * np.exp(log_pf).sum())
    prefix, logq = _full_prefix(n, q) if prefix is None else prefix, math.log(q)
    log_pf = (prefix[ks] + prefix[n - ks] - prefix[n] + math.log1p(-q)
              - _log1m_qpow_array(ks.astype(np.float64), logq))
    log_pr = log_pf + (ks * (n - ks + 1) - 1) * logq
    return float(np.exp(log_pf).sum() + np.exp(log_pr).sum())


def _full_log_flush(n, k, q):
    """events._log_flush through two whole arrays of m = min(k, n - k) terms."""
    m = min(k, n - k)
    if m == 0 or q == 0.0:
        return 0.0
    if q == 1.0:
        return math.lgamma(k + 1) + math.lgamma(n - k + 1) - math.lgamma(n + 1)
    logq = math.log(q)
    i = np.arange(1, m + 1, dtype=np.float64)
    return float(
        np.sum(_log1m_qpow_array(i, logq)) - np.sum(_log1m_qpow_array(i + (n - m), logq))
    )


def _traced_peak(call, *args):
    """(call(*args), its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pairwise_replica_matches_np_sum():
    """events._pairwise splits a range as np.sum does (at n//2 - (n//2) % 8,
    above 128 terms) and hands ranges of at most _BLOCK terms to np.sum, so
    on random floats of every magnitude it gives np.sum's bits, at lengths
    around numpy's split points and the block; _repeat_sum does the same for
    one value repeated.  A numpy that sums in another order fails here
    instead of moving the exact column."""
    rng = np.random.default_rng(25)
    top = 10**7 + 11
    a = np.ldexp(rng.random(top) - 0.5, rng.integers(-40, 40, top, dtype=np.int32))
    block = events._BLOCK
    sizes = {top, block - 1, block, block + 1, 2 * block + 7, 3 * block + 1}
    sizes |= {8 * 2**j + d for j in range(21) for d in (-1, 0, 1) if 8 * 2**j + 1 < top}
    for size in sorted(sizes):
        x = a[:size]
        got = events._pairwise(0, size, lambda lo, hi: x[lo:hi].sum(), lambda lo, hi: None)
        assert got == x.sum(), size
    for size in sorted({s for s in sizes if s <= 2**20 + 1} | set(range(1, 300))):
        assert events._repeat_sum(a[1], size) == np.full(size, a[1]).sum(), size


def test_log1m_qpow_is_zero_past_the_zero_exponent():
    """The blocked sums skip every range whose first i has i ln q <= -40:
    expm1 rounds there to -1, so each log(1 - q^i) is 0.0."""
    for q in (1e-300, 0.3, 0.5, 0.9, 1 - 1e-6):
        logq = math.log(q)
        first = math.ceil(events._ZERO_EXPONENT / logq)
        while first * logq > events._ZERO_EXPONENT:
            first += 1
        for lo, hi in ((first, first + 1), (first, first + 5000), (first + 7, first + 40)):
            assert not events._log1m_qpow(lo, hi, logq).any(), (q, lo, hi)


@pytest.mark.parametrize("n", [1000, 65_537, 10**6, 10**7])
def test_flush_probs_blocked_match_whole_arrays(n, monkeypatch):
    """flush_prob, reverse_flush_prob and cut_event_probs through the blocked
    _log_flush give, bit for bit, what its whole-array form gives, at k = 1,
    2, n/2 and n - 1 and q on both sides of the threshold, at q_critical,
    q = 1 - 1/(n ln n) and 1; each call peaks under 8 MB, where the whole
    arrays took 153 MB at n = 10^7."""
    qs = [0.3, 0.9, threshold_window(n, 0.0).q_critical, 1 - 1 / (n * math.log(n)), 1.0]

    def probs(k, q):
        return (flush_prob(n, k, q), reverse_flush_prob(n, k, q),
                cut_event_probs(n, k, q) if k > 1 else None)

    for q in qs:
        for k in (1, 2, n // 2, n - 1):
            got, peak = _traced_peak(probs, k, q)
            assert peak < 8 * 2**20, (q, k, peak)
            with monkeypatch.context() as patched:
                patched.setattr(events, "_log_flush", functools.lru_cache(_full_log_flush))
                assert repr(got) == repr(probs(k, q)), (q, k)


def test_flush_prob_at_n_1e13_sums_the_same_head():
    """At q = 0.5, log(1 - q^i) is 0.0 from i = 54 on, so Pr[F_k] at
    n = 10^13 adds the same nonzero head as at n = 10^4, in the same order,
    and gives its bits."""
    big, small = 10**13, 10**4
    for k_big, k_small in ((1, 1), (2, 2), (big // 3, small // 3), (big // 2, small // 2)):
        for kb, ks in ((k_big, k_small), (big - k_big, small - k_small)):
            assert repr(flush_prob(big, kb, 0.5)) == repr(flush_prob(small, ks, 0.5)), kb


def test_exact_probabilities_refuse_past_the_term_cap():
    """Where n and 1/(1 - q) are both large, the nonzero terms outnumber the
    cap, and the refusal comes before any of them is built."""
    n, q = 10**13, 1 - 1e-10
    for call in (lambda: flush_prob(n, n // 2, q), lambda: expected_cuts(n, q, 2 / 3),
                 lambda: cut_event_probs(n, n // 2, q)):
        with pytest.raises(CapabilityError, match=r"exact cap of 2\^28 = 268435456"):
            call()


@pytest.mark.parametrize("n", [2, 10, 1000, 65_537, 10**6, 10**7])
def test_expected_cuts_prefix_stop_changes_no_bit(n):
    """Summing in blocks, in np.sum's and np.cumsum's order, and stopping the
    prefix sum where its terms no longer move it give the whole-array value
    bit for bit, on both sides of the threshold, at q_critical, at q where
    the sum never stalls, and at q = 1; each call peaks under 8 MB, where the
    whole arrays took 153-267 MB at n = 10^7.  At n = 10^7 the q = 1
    reference alone would spend 4 s in lgamma, and q = 0.999999 is the
    regime of q = 1 - 1/(n ln n), so both run at the smaller n only."""
    qs = [0.3, 0.9, 1 - 1 / (n * math.log(n))] + ([0.999999, 1.0] if n < 10**7 else [])
    if n >= 16:
        qs.append(threshold_window(n, 0.0).q_critical)
    for q in qs:
        prefix = None if q == 1.0 else _full_prefix(n, q)
        for alpha in (2 / 3, 0.55):
            k_lo, k_hi = alpha_cut_range(n, alpha)
            k_lo, k_hi = max(k_lo, 2), min(k_hi, n - 1)
            if k_lo <= k_hi:
                got, peak = _traced_peak(expected_cuts_in_range, n, q, k_lo, k_hi)
                assert repr(got) == repr(_full_prefix_cuts(n, q, k_lo, k_hi, prefix)), (q, alpha)
                assert peak < 8 * 2**20, (q, alpha, peak)


def test_expected_cuts_prefix_memory_stops_with_the_sum():
    """At q = 0.9 the prefix stalls near i = 350, so one call at n = 10^6
    builds no n-length prefix: its peak stays under 20 MB, where the whole
    prefix took 25 MB."""
    n, q = 10**6, 0.9
    k_lo, k_hi = alpha_cut_range(n, 2 / 3)
    tracemalloc.start()
    try:
        expected_cuts_in_range(n, q, k_lo, k_hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("q", [0.5, 0.9])
def test_expected_cuts_exponent_past_int64(q):
    """k(n-k+1) passes 2^63 near k = n/2 once n is above about 6.07e9, where
    the exponent of Pr[C_k^R] once wrapped to a positive log and an infinite
    sum.  Past the stalled prefix each term is its n = 10^9 value."""
    ref = expected_cuts_in_range(10**9, q, 10**9 // 2, 10**9 // 2 + 5)
    for n in (6 * 10**9, 6_500_000_000, 7 * 10**9, 10**10, 10**13):
        with np.errstate(over="raise", invalid="raise"):
            got = expected_cuts_in_range(n, q, n // 2, n // 2 + 5)
        assert math.isfinite(got) and repr(got) == repr(ref), n


# --- analytic bounds ---


def test_euler_maclaurin_sandwich():
    for q in [x / 100 for x in range(10, 100, 4)] + [0.99]:
        mid = euler_log_product(q) - math.pi**2 / (6 * math.log(q)) + math.log(1 - q) / 2
        assert q * math.log(q) / (6 * (1 - q)) <= mid + 1e-9
        assert mid <= -(1 - q) / (q * math.log(q)) + 1e-9


def test_flush_log_bounds_bracket_exact():
    for n in (20, 200, 2000):
        for k in (n // 4, n // 2):
            for q in (0.3, 0.5, 0.7, 0.9, 0.99):
                lo, hi = flush_log_bounds(n, k, q)
                exact = math.log(flush_prob(n, k, q))
                assert lo - 1e-9 <= exact <= hi + 1e-9
                assert flush_cheap_bound(n, k, q) >= flush_prob(n, k, q) - 1e-12
            lo, hi = flush_log_bounds(n, n, q)  # F_n is certain; no finite upper bound
            assert lo <= math.log(flush_prob(n, n, q)) == 0.0 and hi == math.inf


def test_flush_log_bounds_require_interior_q():
    with pytest.raises(ValueError):
        flush_log_bounds(10, 5, 0.0)
    with pytest.raises(ValueError):
        flush_log_bounds(10, 5, 1.0)


def test_cut_prob_window_strict_and_relaxed():
    n, alpha = 10**4, 2 / 3
    win = cut_prob_window(n, n // 2, 0.5, alpha)  # below n >= (100/(1-alpha))^5
    assert win.lower is None
    pf, _ = cut_event_probs(n, n // 2, 0.5)
    assert pf <= win.upper
    w = math.sqrt(1 - 0.5) * math.exp(-math.pi**2 / (6 * (1 - 0.5)))
    assert win.upper == pytest.approx(math.e**5 * w, rel=1e-12)
    for q in (0.0, 1.0):
        with pytest.raises(CapabilityError, match="window needs 0 < q < 1"):
            cut_prob_window(n, n // 2, q, alpha)
    with pytest.raises(CapabilityError, match=r"window needs 1 <= 1/\(1-q\) <= n\^\(4/5\)"):
        cut_prob_window(n, n // 2, 1 - 1e-4, alpha)  # 10^4 > n^(4/5) = 1585


def test_cut_prob_window_is_k_free():
    a = cut_prob_window(10**4, 4000, 0.7, 2 / 3)
    b = cut_prob_window(10**4, 5000, 0.7, 2 / 3)
    assert a.upper == b.upper


def test_cut_prob_window_rejects_out_of_range_k():
    with pytest.raises(CapabilityError):
        cut_prob_window(10**4, 10, 0.5, 2 / 3)


def test_threshold_window_goldens():
    win = threshold_window(10**5, 3.0)
    assert win.q_exist == pytest.approx(0.606711678022101, abs=1e-12)
    assert win.q_critical == pytest.approx(0.8571228423346281, abs=1e-12)
    assert win.q_nonexist == pytest.approx(0.9127047344545604, abs=1e-12)
    zero = threshold_window(10**5, 0.0)
    assert zero.q_exist == zero.q_critical == zero.q_nonexist
    assert win.q_exist < win.q_critical < win.q_nonexist


def test_threshold_window_monotone_in_n():
    vals = [threshold_window(n, 2.0).q_exist for n in (10**3, 10**4, 10**5, 10**6)]
    assert vals == sorted(vals)
    with pytest.raises(ValueError):
        threshold_window(8, 1.0)
    with pytest.raises(ValueError, match="margin 3.0 too large at n=16"):
        threshold_window(16, 3.0)  # log 16 - 3 log log 16 < 0


def test_janson_and_chernoff_edges():
    assert janson_tail_bound(1.0, 5.0, 0.3) == 1.0
    assert chernoff_bound(4.0, 1e-12) == pytest.approx(1.0, abs=1e-9)
    # monotone: larger deviation, smaller bound
    assert chernoff_bound(4.0, 2.0) < chernoff_bound(4.0, 1.0) < 1.0
    assert janson_tail_bound(3.0, 5.0, 0.3) < janson_tail_bound(2.0, 5.0, 0.3)
    with pytest.raises(ValueError):
        janson_tail_bound(0.5, 5.0, 0.3)
    with pytest.raises(ValueError):
        chernoff_bound(4.0, -0.1)


def test_janson_bound_vs_geometric_sum_tail():
    """Sum of 50 geometric(1/2) insertion heights, tail at twice the mean."""
    mu, p_star, lam = 50 * 2.0, 0.5, 2.0
    bound = janson_tail_bound(lam, mu, p_star)
    seeds = derive_array(derive(911, 0), np.arange(20000, dtype=np.uint64))
    v = sample_trace_matrix(2000, 0.5, seeds)[:, -50:]
    tail = float(np.mean(v.sum(axis=1) >= lam * mu))
    assert tail <= bound + 4 * math.sqrt(tail * (1 - tail) / 20000 + 1e-12)


def test_sparse_flush_bound_shapes():
    ell, bound = sparse_flush_bound(100, 10, 0.5, 1.0)
    assert bound == 1.0 and ell > 10
    ell2, bound2 = sparse_flush_bound(100, 10, 0.5, 3.0)
    assert bound2 < 1.0 and ell2 > ell


def test_sparse_flush_bound_ell_simplification():
    """At lam = 10 the window length stays below 100/(1-q) (1/(1-q) + log n)."""
    for n in (200, 2000, 20000):
        for q in (0.5, 0.8, 0.95):
            b = b_value(n, q)
            ell, _ = sparse_flush_bound(n, b, q, 10.0)
            assert ell <= 100 / (1 - q) * (1 / (1 - q) + math.log(n))


def test_sparse_flush_bound_monte_carlo():
    n, q, lam, k = 512, 0.5, 2.0, 1
    b = 72
    ell, bound = sparse_flush_bound(n, b, q, lam)
    trials = 2000
    seeds = derive_array(derive(313, 0), np.arange(trials, dtype=np.uint64))
    batch = sample_trace_matrix(n, q, seeds)
    fails = sum(
        0 if sparse_flush_holds(tuple(row), k, b, int(ell)) else 1 for row in batch
    )
    assert fails / trials <= bound + 1.0 / trials


def test_sparse_flush_bound_monte_carlo_spec_scale():
    """n = 2000, q = 0.95, b = b(q), lam = 10, k = 1 over 10^4 traces.

    The greedy counter is recomputed here as a vectorized scan (count
    advances when v_t <= count + 1) and spot-checked against
    sparse_flush_holds on a subsample.
    """
    n, q, lam, k = 2000, 0.95, 10.0, 1
    b = b_value(n, q)
    ell, bound = sparse_flush_bound(n, b, q, lam)
    trials = 10**4
    seeds = derive_array(derive(777, 0), np.arange(trials, dtype=np.uint64))
    batch = sample_trace_matrix(n, q, seeds)
    hi = min(n, k + int(ell))
    window = batch[:, k - 1 : hi]
    count = np.zeros(trials, dtype=np.int64)
    for t in range(window.shape[1]):
        count += window[:, t] <= count + 1
    holds = count >= b
    for i in range(50):
        assert bool(holds[i]) == sparse_flush_holds(tuple(batch[i]), k, b, int(ell))
    fails = int(np.sum(~holds))
    assert fails / trials <= bound + 4 * math.sqrt(max(fails, 1)) / trials


@pytest.mark.parametrize("n, want", [
    (3, (1, 2)),
    (9, (3, 6)),
    (3 * 10**7, (10**7, 2 * 10**7)),
    (3 * 10**8, (10**8 + 1, 2 * 10**8)),
    (2**53, (3002399751580331, 6004799503160661)),
    (2**53 + 1, (3002399751580332, 6004799503160661)),
    (10**17 + 1, (33333333333333338, 66666666666666663)),
    (10**19, (3333333333333333704, 6666666666666666296)),
])
def test_alpha_cut_range_is_exact_past_2_53(n, want):
    """Up to 2^53 the ends are the float products' ends, snapped by ALPHA_EPS:
    at n = 3 and 9 the snap decides them, and at n = 3 * 10^7 the float
    product of 2/3 lands on 2 * 10^7, where the exact product in its binary
    value lies 1.1e-9 below.  Past 2^53 they are ceil((1 - a) n) and
    floor(a n) for that binary value a = 6004799503160661 / 2^53, which float
    products rounded."""
    assert alpha_cut_range(n, 2 / 3) == want
    if n <= 2**53:
        assert want == (math.ceil((1 - 2 / 3) * n - 1e-9), math.floor(2 / 3 * n + 1e-9))
    else:
        num = 6004799503160661
        assert Fraction(2 / 3) == Fraction(num, 2**53)
        assert want == (-(-(2**53 - num) * n // 2**53), num * n // 2**53)


# Each public probability or bound function, called on the edge values the
# `prob` harness in test_cli draws from (conftest's EDGE_NS, EDGE_QS and
# EDGE_ALPHAS): n, q (also as a margin), two k and an alpha.
_EDGE_CALLS = {
    "flush_prob": lambda n, q, k, k2, alpha: flush_prob(n, k, q),
    "reverse_flush_prob": lambda n, q, k, k2, alpha: reverse_flush_prob(n, k, q),
    "cut_event_probs": lambda n, q, k, k2, alpha: cut_event_probs(n, k, q),
    "expected_cuts": lambda n, q, k, k2, alpha: expected_cuts(n, q, alpha),
    "expected_cuts_in_range": lambda n, q, k, k2, alpha: expected_cuts_in_range(n, q, k, k2),
    "flush_log_bounds": lambda n, q, k, k2, alpha: flush_log_bounds(n, k, q),
    "flush_cheap_bound": lambda n, q, k, k2, alpha: flush_cheap_bound(n, k, q),
    "cut_prob_window": lambda n, q, k, k2, alpha: cut_prob_window(n, k, q, alpha),
    "threshold_window": lambda n, q, k, k2, alpha: threshold_window(n, q),
    "b_value": lambda n, q, k, k2, alpha: b_value(n, q),
}


@st.composite
def _edge_call(draw):
    """A function name and its arguments at the harness's edge values: k and
    k2 at and past the ends of 1..n."""
    n = draw(st.sampled_from(EDGE_NS))
    ks = st.sampled_from((-1, 0, 1, n // 2, n - 1, n, n + 1))
    q = float(draw(st.sampled_from(EDGE_QS)))
    alpha = float(draw(st.sampled_from(EDGE_ALPHAS)))
    return draw(st.sampled_from(sorted(_EDGE_CALLS))), (n, q, draw(ks), draw(ks), alpha)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_edge_call())
@example(("expected_cuts_in_range", (2**63 - 1, 0.5, 1, 2**63 - 1, 2 / 3)))
def test_no_edge_value_escapes_the_public_functions(call):
    """The twin of the CLI's no-exit-5 harness: each call returns, or refuses
    with ValueError (bad input) or CapabilityError (beyond a cap).  The pinned
    example once passed the 2^63 guard and raised TypeError from int64 blocks."""
    name, args = call
    try:
        _EDGE_CALLS[name](*args)
    except (ValueError, CapabilityError):
        pass
