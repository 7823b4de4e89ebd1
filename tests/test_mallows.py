"""Insertion process, Mallows measure, truncated geometrics, displacement."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tangledpath.sweeps as sweeps
from tangledpath import (
    InsertionTrace,
    Permutation,
    TruncatedGeometric,
    displacement_samples,
    format_permutation,
    format_trace,
    mallows_process,
    parse_permutation,
    parse_trace,
    reverse,
    sample_trace,
    sample_trace_matrix,
    trace_table,
)
from tangledpath.errors import CapabilityError
from tangledpath.mallows import (
    _DECODE_BLOCK,
    _position_reach,
    _positions_from_uniforms,
    trace_displacements,
)
from tangledpath._util import alpha_cut_range
from tangledpath.rng import GOLDEN, MASK64, derive_array, seed_array
from conftest import (
    SplitMix64,
    contains_consecutively,
    enumerate_traces,
    inversions,
    log_partition_function,
    mallows_pmf,
    standardize,
    tv_distance_to_uniform,
)


def test_process_table_example():
    assert mallows_process((1, 2, 1, 3, 2, 5)).image == (3, 5, 1, 4, 6, 2)


def test_process_degenerate_traces():
    assert mallows_process([1] * 6).image == (6, 5, 4, 3, 2, 1)
    assert mallows_process(range(1, 7)).image == (1, 2, 3, 4, 5, 6)


def reference_process(positions):
    """The insertion process as written: one list.insert per value."""
    out = []
    for i, v in enumerate(positions, 1):
        out.insert(v - 1, i)
    return tuple(out)


def test_blocked_decode_matches_reference():
    """Around the block size, and around the end of the plain list and one
    block past it, at q = 0, 0.5, 0.9, next to 1 (1 - q = 1/(n ln n)) and 1;
    traces and raw rows alike."""
    B, P = _DECODE_BLOCK, 4 * _DECODE_BLOCK
    for n in sorted({1, 2, B - 1, B, B + 1, 2 * B + 1, P - 1, P, P + 1, P + B, 10**4}):
        qs = [0.0, 0.5, 0.9, 1.0] + ([1 - 1 / (n * math.log(n))] if n > 1 else [])
        for q in qs:
            seeds = np.arange(3, dtype=np.uint64)
            for row in sample_trace_matrix(n, q, seeds):
                want = reference_process(row.tolist())
                assert mallows_process(row).image == want, (n, q)
                assert mallows_process(InsertionTrace(row, q)).image == want, (n, q)


def test_blocked_decode_large_n_against_displacements():
    """n = 10^5: the slot of value i in r_n, read off the decoded output,
    against trace_displacements, which tracks it on the trace alone."""
    n = 10**5
    for q in (0.9, 1.0):
        v = sample_trace_matrix(n, q, np.array([5], dtype=np.uint64))
        image = mallows_process(v[0]).image
        slot = {value: k for k, value in enumerate(image, 1)}
        for i in (1, 2, 777, n // 2, n - 1, n):
            assert abs((n + 1 - slot[i]) - i) == trace_displacements(v[:, i - 1 :])[0], (q, i)


def test_process_is_a_bijection_onto_sn():
    n = 5
    images = {
        mallows_process(v)
        for v in itertools.product(*[range(1, i + 1) for i in range(1, n + 1)])
    }
    assert len(images) == math.factorial(n)


def test_trace_validation():
    with pytest.raises(ValueError):
        InsertionTrace(positions=(1, 3), q=0.5)  # v_2 > 2
    with pytest.raises(ValueError):
        InsertionTrace(positions=(0,), q=0.5)
    with pytest.raises(ValueError):
        InsertionTrace(positions=(1, 1), q=1.5)
    # The message names the first bad v_i, for traces and raw decode input.
    with pytest.raises(ValueError, match=r"^position v_3=4 outside \[1, 3\]$"):
        InsertionTrace(positions=(1, 1, 4, 0), q=0.5)
    with pytest.raises(ValueError, match=r"^position v_2=0 outside \[1, 2\]$"):
        mallows_process(np.array([1, 0, 9]))
    # Entries beyond int64 are out of range, not an OverflowError.
    with pytest.raises(ValueError, match=r"^position v_3=100000000000000000000 outside"):
        InsertionTrace(positions=(1, 1, 10**20), q=0.5)
    with pytest.raises(ValueError, match=r"^position v_2=-100000000000000000000 outside"):
        mallows_process([1, -(10**20)])
    # Non-integer entries are refused, not truncated.
    with pytest.raises(ValueError, match="trace positions must be integers, got 1.9"):
        mallows_process([1, 1.9, 2.7])
    with pytest.raises(ValueError, match="must be integers"):
        InsertionTrace(positions=(1, 2.0), q=0.5)
    with pytest.raises(ValueError, match="must be integers"):
        mallows_process(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="must be integers"):
        InsertionTrace(positions=(True,), q=0.5)


def test_permutation_validation():
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3: \(1, 1, 2\)"):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((1, 10**20))
    assert Permutation(np.array([2, 1])).image == (2, 1)
    with pytest.raises(ValueError, match="permutation entries must be integers, got 1.5"):
        Permutation((1.5, 2.2))
    with pytest.raises(ValueError, match="must be integers"):
        Permutation(np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation([2**64 - 1, -1])  # numpy infers float64, the entries are ints
    assert type(Permutation(np.array([2, 1])).image[0]) is int


def test_raw_sequence_statistics_refuse_non_integer_entries():
    """reverse, inversions, contains_consecutively and format_permutation read
    a raw sequence as permutation entries: 2.5 and True are refused, not
    truncated, and integer sequences give what their Permutation gives."""
    calls = (reverse, inversions, format_permutation,
             lambda p: contains_consecutively(p, (1,)), lambda p: contains_consecutively((1,), p))
    for bad in ([2.5, 1], [True, 2], np.array([2.0, 1.0])):
        for call in calls:
            with pytest.raises(ValueError, match="permutation entries must be integers"):
                call(bad)
    p = Permutation((3, 1, 4, 2))
    for raw in ([3, 1, 4, 2], np.array([3, 1, 4, 2]), (np.int32(3), 1, 4, 2)):
        assert reverse(raw) == reverse(p) and inversions(raw) == inversions(p) == 3
        assert format_permutation(raw) == format_permutation(p) == "σ = 3 1 4 2"
        assert contains_consecutively(raw, (2, 1)) == contains_consecutively(p, (2, 1)) == 1


def test_bools_among_ints_are_refused():
    """numpy reads a bool among ints as an int, so (True, 2) would pass as
    the permutation (1, 2) and (1, True) as a trace; both are refused."""
    with pytest.raises(ValueError, match="permutation entries must be integers, got True"):
        Permutation((True, 2))
    with pytest.raises(ValueError, match="must be integers, got np.True_"):
        Permutation([2, np.bool_(True)])
    with pytest.raises(ValueError, match="trace positions must be integers, got True"):
        mallows_process([1, True])
    assert Permutation([2, np.int64(1)]).image == (2, 1)


def test_unchecked_values_equal_checked_ones():
    """Traces and permutations built without the checks, because they are
    valid by construction, compare, hash and print like the same values
    built through the checked constructors."""
    def same(built, checked):
        assert built == checked and hash(built) == hash(checked)
        assert repr(built) == repr(checked)

    for n, q, seed in ((1, 0.5, 3), (12, 0.3, 2**64 + 5), (40, 1.0, np.uint64(9))):
        t = sample_trace(n, q, seed)
        same(t, InsertionTrace(t.positions, q))
        sigma = mallows_process(t)
        same(sigma, Permutation(sigma.image))
        same(reverse(sigma), Permutation(sigma.image[::-1]))
        same(reverse(list(sigma.image)), reverse(sigma))
        same(standardize([10 * x for x in sigma.image]), sigma)
    for trace, _ in enumerate_traces(4, 0.5):
        same(trace, InsertionTrace(list(trace.positions), 0.5))


def test_inversions_and_reverse():
    assert inversions((1, 2, 3)) == 0
    assert inversions((3, 2, 1)) == 3
    assert reverse((1, 2, 3)).image == (3, 2, 1)


def test_inversions_match_pair_count_with_ties():
    rng = np.random.default_rng(61)
    for n in range(61):
        for top in (1, 3, n + 1):  # all equal, many ties, few ties
            a = rng.integers(0, top, size=n).tolist()
            brute = sum(a[i] > a[j] for i in range(n) for j in range(i + 1, n))
            assert inversions(a) == brute
        perm = (rng.permutation(n) + 1).tolist()
        assert inversions(perm) == inversions(Permutation(perm))


def test_inversions_large_n_in_linear_memory():
    n = 10**5
    assert inversions(range(n, 0, -1)) == n * (n - 1) // 2
    assert inversions(Permutation(range(1, n + 1))) == 0


@given(st.permutations(list(range(1, 8))))
def test_reverse_complements_inversions(perm):
    n = len(perm)
    assert inversions(perm) + inversions(reverse(perm)) == n * (n - 1) // 2


def test_standardize_golden():
    assert standardize((5, 7, 4, 2, 9)).image == (3, 4, 2, 1, 5)


@given(st.permutations(list(range(1, 7))))
def test_standardize_fixes_permutations(perm):
    assert standardize(perm).image == tuple(perm)


def test_containment_golden():
    assert contains_consecutively((1, 3, 5, 7, 4, 2, 9, 6, 8), (3, 4, 2, 1, 5)) == 3
    assert contains_consecutively((3, 4, 2, 1, 5), (3, 4, 2, 1, 5)) == 1


def test_containment_small_cases():
    assert contains_consecutively((1, 2, 3), (2, 1)) is None
    assert contains_consecutively((3, 1, 2), (2, 1)) == 1
    assert contains_consecutively((2, 4, 1, 3), (1, 2)) == 1


@given(
    st.permutations(list(range(1, 9))),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=6),
)
def test_containment_window_is_order_isomorphic(perm, width, start):
    start = min(start, len(perm) - width)
    pattern = standardize(perm[start : start + width])
    j = contains_consecutively(perm, pattern)
    assert j is not None and j <= start + 1
    assert standardize(perm[j - 1 : j - 1 + width]) == pattern


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def test_partition_function_small():
    q = 0.5
    assert math.isclose(math.exp(log_partition_function(3, q)), 1 * (1 + q) * (1 + q + q * q))
    assert math.isclose(math.exp(log_partition_function(3, 1.0)), 6.0)
    assert math.exp(log_partition_function(4, 0.0)) == 1.0


def test_log_partition_consistent():
    # Z_{n,q} = prod_{i=1..n} (1 + q + ... + q^{i-1}), multiplied out
    for n, q in [(2, 0.3), (5, 0.8), (8, 0.99), (6, 1.0)]:
        z = math.prod(sum(q**j for j in range(i)) for i in range(1, n + 1))
        assert math.isclose(log_partition_function(n, q), math.log(z), rel_tol=1e-12)


@pytest.mark.parametrize("q", [0.0, 0.2, 0.7, 1.0])
def test_pmf_sums_to_one(q):
    n = 5
    total = sum(
        mallows_pmf(perm, q) for perm in itertools.permutations(range(1, n + 1))
    )
    assert math.isclose(total, 1.0, abs_tol=1e-12)


def test_pmf_degenerate_ends():
    assert mallows_pmf((1, 2, 3, 4), 0.0) == 1.0
    assert mallows_pmf((2, 1, 3, 4), 0.0) == 0.0
    assert math.isclose(mallows_pmf((2, 4, 1, 3), 1.0), 1 / 24)
    for bad, q in (((1, 1), 0.5), ((5, 9), 0.5), ((7, 7, 7), 1.0)):
        with pytest.raises(ValueError, match="not a permutation"):
            mallows_pmf(bad, q)


def test_enumerate_traces_weights():
    n, q = 6, 0.3
    total = 0.0
    count = 0
    for trace, w in enumerate_traces(n, q):
        assert len(trace.positions) == n
        total += w
        count += 1
    assert count == math.factorial(n)
    assert math.isclose(total, 1.0, abs_tol=1e-12)


def test_enumeration_matches_pmf_after_reversal():
    """Pushing the trace law through the process gives the Mallows measure of
    the reversed permutation."""
    n, q = 4, 0.6
    for trace, w in enumerate_traces(n, q):
        sigma = reverse(mallows_process(trace))
        assert math.isclose(w, mallows_pmf(sigma, q), abs_tol=1e-12)


def test_enumeration_cap():
    with pytest.raises(CapabilityError):
        next(iter(enumerate_traces(10, 0.5)))
    with pytest.raises(CapabilityError):
        trace_table(10, 0.5)
    with pytest.raises(ValueError):
        trace_table(0, 0.5)


def test_trace_table_matches_per_trace_products():
    """Rows in lexicographic order; each weight the running product of the
    per-index masses, bit for bit."""
    for n in range(1, 8):
        for q in (0.0, 0.3, 1.0):
            V, w = trace_table(n, q)
            pmfs = [TruncatedGeometric(i, q).pmf_vector() for i in range(1, n + 1)]
            rows, weights = [], []
            for combo in itertools.product(*(range(1, i + 1) for i in range(1, n + 1))):
                x = 1.0
                for i, v in enumerate(combo):
                    x *= pmfs[i][v - 1]
                rows.append(combo)
                weights.append(x)
            assert V.tolist() == [list(r) for r in rows]
            assert w.tolist() == weights
            assert [(t.positions, x) for t, x in enumerate_traces(n, q)] == list(
                zip(rows, weights)
            )


# ---------------------------------------------------------------------------
# truncated geometric
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,q", [(1, 0.5), (4, 0.2), (7, 0.9), (5, 1.0), (6, 0.0)])
def test_tg_pmf_normalized(n, q):
    tg = TruncatedGeometric(n, q)
    probs = [tg.pmf(j) for j in range(1, n + 1)]
    assert math.isclose(sum(probs), 1.0, abs_tol=1e-12)
    assert np.allclose(tg.pmf_vector(), probs)


def test_tg_endpoints():
    assert TruncatedGeometric(5, 0.0).pmf(1) == 1.0
    assert TruncatedGeometric(5, 0.0).pmf(2) == 0.0
    assert math.isclose(TruncatedGeometric(5, 1.0).pmf(3), 0.2)


def test_tv_to_uniform_golden():
    # k=2: pmf (2/3, 1/3) at q=1/2 against (1/2, 1/2)
    assert math.isclose(tv_distance_to_uniform(2, 0.5), Fraction(1, 6))
    assert tv_distance_to_uniform(4, 1.0) == 0.0


def test_tv_bound_spot_check():
    k = 100
    q = 1.0 - 1.0 / (4 * k)
    assert tv_distance_to_uniform(k, q) <= 3 * k * (1 - q)


# ---------------------------------------------------------------------------
def test_trace_is_its_positions_and_q():
    """A trace holds (positions, q) and nothing else: a sampled trace equals,
    and hashes like, the trace built or parsed from its positions and q."""
    assert [f.name for f in dataclasses.fields(InsertionTrace)] == ["positions", "q"]
    for n, q, seed in ((5, 0.5, 1), (30, 0.9, 2**64 + 7)):
        t = sample_trace(n, q, seed)
        for same in (InsertionTrace(sample_trace(n, q, seed).positions, q),
                     parse_trace(format_trace(t), q)):
            assert same == t and hash(same) == hash(t)
        assert InsertionTrace(t.positions, 0.25) != t


# sampling
# ---------------------------------------------------------------------------


def test_sample_trace_deterministic():
    a = sample_trace(20, 0.7, 123)
    b = sample_trace(20, 0.7, 123)
    assert a.positions == b.positions
    assert a.q == 0.7
    assert sample_trace(20, 0.7, 124).positions != a.positions


def test_sample_matrix_matches_scalar_path():
    seeds = np.array([5, 6, 7], dtype=np.uint64)
    mat = sample_trace_matrix(12, 0.6, seeds)
    for row, s in zip(mat, seeds):
        assert tuple(int(x) for x in row) == sample_trace(12, 0.6, int(s)).positions
    # Seeds outside [0, 2**64) select the stream of seed mod 2**64; the
    # sequential SplitMix64 stream is the reference.
    n, q = 12, 0.6
    for s in (-1, 2**63, 2**64 + 5, 2**70 + 3):
        trace = sample_trace(n, q, s)
        ref = _positions_from_uniforms(SplitMix64(s).uniforms(n)[None], q)[0]
        assert trace.positions == tuple(ref.tolist())


def test_positions_need_no_lower_clamp():
    """The sampler clamps v_i only from above.  Its map from u to v_i is
    nondecreasing and sends u = 0 to 1 at every q, so no uniform the RNG
    can give (multiples of 2**-53 in [0, 1)) lands below 1; the upper clamp
    to i still holds at the largest one."""
    us = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    tiny = np.nextafter(0.0, 1.0)
    for first in (0, 7, 2**40):
        for q in (0.0, tiny, 1e-300, 1e-9, 0.3, 0.9, 1 - 1e-9, 1 - 2.0**-53, 1.0):
            u = np.repeat(us[:, None], 3, axis=1)
            v = _positions_from_uniforms(u, q, first)
            i = np.arange(first + 1, first + 4)
            assert (v[0] == 1).all() and (v >= 1).all() and (v <= i).all(), (first, q)
            assert (np.diff(v, axis=0) >= 0).all(), (first, q)


def test_sampler_shortcuts_change_no_bit():
    """Past the first i with expm1(i ln q) = -1.0 the sampler negates u in
    place of multiplying by that vector, and from i = _position_reach(q) + 1
    on it skips the clamp to i: at column offsets on both sides of both
    edges, for q from 1e-300 to 1 - 1e-9, on random uniforms and on the
    extreme ones, it equals the transform with every vector and the clamp."""
    def reference(u, q, first):
        i = np.arange(first + 1, first + u.shape[1] + 1, dtype=np.int64)
        logq = math.log(q)
        x = np.log1p(u * np.expm1(i * logq)) / logq
        return np.minimum(np.floor(x).astype(np.int64) + 1, i)

    us = np.concatenate([SplitMix64(3).uniforms(4 * 40).reshape(4, 40),
                         np.repeat([[0.0], [2.0**-53], [1 - 2.0**-52], [1 - 2.0**-53]], 40, axis=1)])
    for q in (1e-300, 1e-9, 0.3, 0.6067, 0.9, 0.999, 1 - 1e-6, 1 - 1e-9):
        logq = math.log(q)
        lo, flat = 0, math.ceil(40 / -logq)  # the first i with expm1(i ln q) = -1.0
        while flat - lo > 1:
            mid = (lo + flat) // 2
            lo, flat = (lo, mid) if np.expm1(mid * logq) == -1.0 else (mid, flat)
        for edge in (flat - 1, _position_reach(q)):
            for first in range(max(0, edge - 3), edge + 4):
                got = _positions_from_uniforms(us.copy(), q, first)
                assert np.array_equal(got, reference(us, q, first)), (q, first)


def test_position_reach_bounds_the_largest_uniforms():
    """v_i - 1 <= _position_reach(q) for the largest uniforms the RNG gives,
    at indices from 1 to past 10^9 and about 2000 q from 5e-324 to the float
    below 1; the bound is within 1% of the worst position seen."""
    assert (_position_reach(0.0), _position_reach(0.2), _position_reach(1.0)) == (0, 23, None)
    us = 1.0 - np.arange(1, 9)[:, None] * 2.0**-53
    qs = np.concatenate([np.geomspace(1e-300, 0.5, 1000), 1 - np.geomspace(0.5, 1e-15, 1000)])
    worst = 0.0
    for q in [*qs.tolist(), 5e-324, 1e-300, 0.0, math.nextafter(1.0, 0.0)]:
        reach = _position_reach(q)
        for first in (0, 5, 10**6, 10**9):
            v = _positions_from_uniforms(np.repeat(us, 64, axis=1), q, first)
            assert int(v.max()) - 1 <= reach, (q, first)
            worst = max(worst, (int(v.max()) - 1) / max(reach, 1))
    assert worst > 0.99


def _window_cell(q, monkeypatch):
    """(k_lo, R, T) for the first index k_lo at which a separator window
    can start at q, with the window route's thresholds T (gate open)."""
    monkeypatch.setattr(sweeps, "_WINDOW_GATE", math.inf)
    reach, logq = _position_reach(q), math.log(q)
    k_lo = max(reach + 2, math.ceil(54 * math.log(2) / -logq) - 2)
    while np.expm1(k_lo * logq) != -1.0:
        k_lo += 1
    return k_lo, reach, sweeps._window_thresholds(k_lo + reach + 1, q, k_lo, k_lo)


def test_window_thresholds_bound_the_positions_they_admit(monkeypatch):
    """Where the separator's window route applies, v_k <= j needs u_k < T_j:
    the uniform T_j rounds up to, and the 2**10 above it, all give v > j at
    index k_lo, for j up to 15 and q from 0.02 to 1 - 1e-7."""
    qs = [*np.linspace(0.02, 0.98, 49).tolist(), *(1 - np.geomspace(0.02, 1e-7, 40)).tolist()]
    for q in qs:
        k_lo, reach, t = _window_cell(q, monkeypatch)
        assert len(t) == min(15, reach)
        for j, tj in enumerate(t.tolist(), 1):
            grid = math.ceil(tj * 2**53) + np.arange(2**10)
            u = (grid[grid < 2**53] * 2.0**-53)[:, None]
            v = _positions_from_uniforms(u, q, k_lo - 1)
            assert (v > j).all(), (q, j)


def test_shifted_seed_windows_are_whole_matrix_columns(monkeypatch):
    """sample_trace_matrix(k_lo + R, q, seeds moved k - k_lo words along,
    k_lo - 1), the window route's call, gives columns k - 1 .. k + R - 1
    of the whole matrix, at k_lo, k_hi and random k, for seeds whose moved
    counters wrap past 2**64 too."""
    rng = np.random.default_rng(5)
    seeds = np.array([0, 1, 2**63, MASK64, MASK64 - GOLDEN + 3,
                      *rng.integers(0, 2**63, 11)], dtype=np.uint64)
    for n, q in ((3000, 0.8), (10**4, 0.9), (10**4, 0.95)):
        k_lo, k_hi = alpha_cut_range(n, 2 / 3)
        reach = _position_reach(q)
        monkeypatch.setattr(sweeps, "_WINDOW_GATE", math.inf)
        assert sweeps._window_thresholds(n, q, k_lo, k_hi) is not None
        whole = sample_trace_matrix(n, q, seeds)
        r = np.concatenate([np.arange(len(seeds)), np.arange(len(seeds)), rng.integers(0, 16, 200)])
        k = np.concatenate([np.full(16, k_lo), np.full(16, k_hi), rng.integers(k_lo, k_hi + 1, 200)])
        got = sample_trace_matrix(k_lo + reach, q, seed_array(seeds[r], k - k_lo), k_lo - 1)
        assert np.array_equal(got, whole[r[:, None], (k - 1)[:, None] + np.arange(reach + 1)])

def test_sample_matrix_seed_handling():
    """Integer seeds of any size are taken mod 2**64, in one mixed list too;
    float, bool and other non-integer seeds are refused rather than cast, by
    the batch and the scalar entry point alike."""
    n, q = 30, 0.7
    seeds = [-1, 2**64 - 1, 2**63, 2**70 + 3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mat = sample_trace_matrix(n, q, seeds)
        wrapped = sample_trace_matrix(n, q, np.array([-1, -2**63], dtype=np.int64))
    for row, s in zip(mat, seeds):
        assert tuple(row.tolist()) == sample_trace(n, q, s).positions
    assert np.array_equal(wrapped[0], mat[0]) and np.array_equal(wrapped[1], mat[2])
    for bad in ([5.9], [5.0], np.array([5.0]), [True], np.array([1], dtype=bool),
                ["5"], np.array([5.0], dtype=object), [None]):
        with pytest.raises(ValueError, match="seeds must be integers"):
            sample_trace_matrix(n, q, bad)
    for bad in (5.9, 5.0, np.float64(5.0), True, np.bool_(True), "5", None):
        with pytest.raises(ValueError, match="seeds must be integers"):
            sample_trace(n, q, bad)
    trace = sample_trace(n, q, np.uint64(2**63))
    assert trace.positions == tuple(mat[2].tolist())


@pytest.mark.parametrize("n", [1, 2, 7, 3000])
def test_sample_matrix_column_offset_matches_slice(n):
    """Columns first.. drawn on their own equal the slice of the whole
    matrix, for seeds whose shifted counter wraps past 2**64."""
    qs = [0.0, 0.5, 1.0] + ([1 - 1 / (n * math.log(n))] if n > 1 else [])
    firsts = {0, min(1, n - 1), n - 1, int(np.random.default_rng(n).integers(n))}
    for q in qs:
        for first in sorted(firsts):
            seeds = np.array([2**64 - 1, -first * GOLDEN & MASK64, 2**63, 17], dtype=np.uint64)
            whole = sample_trace_matrix(n, q, seeds)
            assert np.array_equal(sample_trace_matrix(n, q, seeds, first), whole[:, first:])
    for first in (-1, n):
        with pytest.raises(ValueError, match="first"):
            sample_trace_matrix(n, 0.5, [1], first)


def test_sample_q_extremes():
    assert sample_trace(8, 0.0, 1).positions == (1,) * 8
    mat = sample_trace_matrix(6, 1.0, np.arange(4000, dtype=np.uint64))
    # uniform positions: column i averages (i+1)/2
    for i in range(6):
        assert abs(mat[:, i].mean() - (i + 2) / 2) < 0.15


def test_sample_mallows_reversal_law():
    """Empirical law of reverse(process(trace)) matches the Mallows pmf."""
    n, q, trials = 4, 0.5, 60000
    counts = {}
    # Row s is the trace sample_trace(n, q, s) draws.
    for row in sample_trace_matrix(n, q, np.arange(trials, dtype=np.uint64)):
        sigma = reverse(mallows_process(row)).image
        counts[sigma] = counts.get(sigma, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(perm, 0) / trials - mallows_pmf(perm, q))
        for perm in itertools.permutations(range(1, n + 1))
    )
    assert tv < 0.02


# ---------------------------------------------------------------------------
# displacement
# ---------------------------------------------------------------------------


def test_displacement_matches_direct_construction():
    """The vectorized position scan equals |sigma^{-1}(i) - i| computed from
    the fully built permutation, trial by trial with identical seeds."""
    n, q, i, trials, seed = 15, 0.6, 7, 300, 2024
    fast = displacement_samples(n, q, i, trials, seed)
    from tangledpath.rng import derive

    for t in range(trials):
        trace = sample_trace(n, q, derive(seed, t))
        sigma = reverse(mallows_process(trace))
        pos = sigma.image.index(i) + 1
        assert fast[t] == abs(pos - i)


def _full_scan_displacements(v, i):
    """trace_displacements without its early stop: one step per later j."""
    n = v.shape[1]
    p = v[:, i - 1].copy()
    for j in range(i + 1, n + 1):
        p += v[:, j - 1] <= p
    return np.abs((n + 1 - p) - i)


def test_samplers_refuse_n_past_the_int64_indices():
    """The sampler's index vectors end at n + 1, which fits int64 up to
    n = 2^63 - 2: past it both public samplers refuse n with ValueError,
    where an OverflowError from np.arange once escaped."""
    for call in (lambda: sample_trace_matrix(10**20, 1.0, [1], 10**20 - 5),
                 lambda: displacement_samples(10**20, 1.0, 10**20 - 3, 2, 1),
                 lambda: sample_trace_matrix(2**63 - 1, 0.5, [1], 2**63 - 3)):
        with pytest.raises(ValueError, match=r"^n=\d+ outside \[1, 9223372036854775806\]"):
            call()
    assert sample_trace_matrix(2**63 - 2, 1.0, [1], 2**63 - 4).shape == (1, 2)


def test_displacement_early_stop_matches_the_full_scan():
    """trace_displacements, which stops once every row's position is past
    the largest v_j left, equals the full scan row for row: on sampled
    traces at q from 0 to 1 (q = 1 never stops early), at i near both ends,
    and on rows that reach the largest v_j only at the last check or never,
    where a late large v_j keeps the scan going."""
    seeds = derive_array(8, np.arange(6, dtype=np.uint64))
    for n, q in ((1, 0.5), (2, 0.5), (300, 0.0), (300, 0.3), (2000, 0.9), (3000, 0.99), (700, 1.0)):
        v = sample_trace_matrix(n, q, seeds)
        for i in sorted({1, 2, 63, 64, 65, n // 2, n - 65, n - 1, n} & set(range(1, n + 1))):
            got = trace_displacements(v[:, i - 1 :])
            assert np.array_equal(got, _full_scan_displacements(v, i)), (n, q, i)
    n = 400
    late = np.ones((5, n), dtype=np.int64)
    late[0, 200] = 150  # p passes 150 only late in the scan
    late[1, 64] = 64  # the largest v_j is the first one scanned from i = 64
    late[2, n - 1] = n  # the last v_j is the largest: no stop before it
    late[3, 129:] = np.minimum(np.arange(130, n + 1), 130)
    late[4, 65] = 2
    for rows in [late, *(late[r : r + 1] for r in range(len(late))), late[[0, 1, 3, 4]]]:
        for i in (1, 2, 64, 65, 128, 129, n - 1, n):
            got = trace_displacements(rows[:, i - 1 :])
            assert np.array_equal(got, _full_scan_displacements(rows, i)), i
    empty = np.ones((0, 10), dtype=np.int64)
    assert trace_displacements(empty[:, 2:]).shape == (0,)


def test_displacement_inversion_symmetry_exact():
    """|sigma^{-1}(i) - i| and |sigma(i) - i| have the same law under the
    trace-pushforward measure (enumerated exactly at n=5)."""
    n, q, i = 5, 0.6, 2
    law_inv = {}
    law_fwd = {}
    for trace, w in enumerate_traces(n, q):
        sigma = mallows_process(trace).image
        d_inv = abs((sigma.index(i) + 1) - i)
        d_fwd = abs(sigma[i - 1] - i)
        law_inv[d_inv] = law_inv.get(d_inv, 0.0) + w
        law_fwd[d_fwd] = law_fwd.get(d_fwd, 0.0) + w
    assert set(law_inv) == set(law_fwd)
    for d in law_inv:
        assert math.isclose(law_inv[d], law_fwd[d], abs_tol=1e-12)


def test_displacement_memory_is_bounded_in_n():
    """displacement_samples samples about 2**20 trace entries per batch, so
    its allocations stay near 40 MB at any n; 256 traces at n = 20000 in one
    batch need about 150 MB."""
    tracemalloc.start()
    try:
        disp = displacement_samples(20000, 0.9, 10000, 256, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert disp.shape == (256,)
    assert peak < 64 * 2**20


def test_displacement_two_point_mean():
    # n=2: displacement of position 1 is Bernoulli(q / (1+q))
    samples = displacement_samples(2, 0.5, 1, 40000, 9)
    assert abs(samples.mean() - 1 / 3) < 0.01


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def test_format_parse_round_trip():
    assert format_permutation((3, 5, 1, 4, 6, 2)) == "σ = 3 5 1 4 6 2"
    assert parse_permutation("σ = 3 5 1 4 6 2").image == (3, 5, 1, 4, 6, 2)
    assert parse_permutation("3, 5, 1, 4, 6, 2").image == (3, 5, 1, 4, 6, 2)
    trace = InsertionTrace(positions=(1, 2, 1, 3, 2, 5), q=0.5)
    assert format_trace(trace) == "v = 1 2 1 3 2 5"
    assert parse_trace(format_trace(trace), 0.5).positions == trace.positions


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_permutation("1 2 two")
    with pytest.raises(ValueError):
        parse_permutation("1 3")
