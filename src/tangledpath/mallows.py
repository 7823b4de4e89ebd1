"""Mallows-distributed permutations and their insertion-process construction.

The q-Mallows measure on S_n weights a permutation sigma by q^inv(sigma) and
normalizes by the partition function Z_{n,q} = prod_{i=1..n} (1 + q + ... +
q^{i-1}).  This module builds Mallows samples constructively: independent
truncated-geometric positions v_1, ..., v_n (v_i between 1 and i) drive an
insertion process in which value i is placed at position v_i from the left,
shifting later entries right.  The process output r_n read right-to-left is
Mallows distributed, i.e. reverse(r_n) ~ mu_{n,q}.

Conventions used throughout:

* permutations are 1-based images: ``Permutation((3, 1, 2))`` maps 1 -> 3;
* q = 0 degenerates to the point mass at the identity (every v_i = 1, the
  process output is the decreasing permutation);
* q = 1 is the uniform measure on S_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from ._util import INDEX_MAX, as_int, as_int64, as_real
from .errors import CapabilityError
from .rng import derive_array, seed_array, uniform_matrix

ENUMERATION_CAP = 9

# mallows_process decodes into one list up to 4 * _DECODE_BLOCK values, then
# into blocks of about this many entries, split in two at twice the size
_DECODE_BLOCK = 512


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def _unchecked(cls, **fields):
    """A ``cls`` holding ``fields``, unchecked: for values valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} stored as its image sequence."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        img = as_int64(self.image, "permutation entries")
        object.__setattr__(self, "image", tuple(img.tolist()))
        if not np.array_equal(np.sort(img), np.arange(1, img.size + 1)):
            raise ValueError(f"not a permutation of 1..{img.size}: {self.image}")


@dataclass(frozen=True)
class InsertionTrace:
    """The insertion positions (v_1, ..., v_n) that drive the process.

    Position i is 1-based and must satisfy 1 <= v_i <= i; violating that is a
    hard error, not a clamp.
    """

    positions: tuple[int, ...]
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", _positions_of(self.positions)[0])
        as_real(self.q, "q", 0, 1)


def _positions_of(trace: InsertionTrace | Sequence[int]) -> tuple[tuple[int, ...], float | None]:
    """The one reader of a trace argument: its (positions, q).  An
    InsertionTrace is trusted; a raw sequence, whose q is None, is checked
    to be nonempty and for 1 <= v_i <= i in one numpy comparison, the
    ValueError naming the first bad v_i."""
    if isinstance(trace, InsertionTrace):
        return trace.positions, trace.q
    v = as_int64(trace, "trace positions")
    if v.size == 0:
        raise ValueError("a trace needs at least one position")
    bad = (v < 1) | (v > np.arange(1, v.size + 1))
    if bad.any():
        i = int(bad.argmax()) + 1
        raise ValueError(f"position v_{i}={v[i - 1]} outside [1, {i}]")
    return tuple(v.tolist()), None


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


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _positions_from_uniforms(u: np.ndarray, q: float, first: int = 0) -> np.ndarray:
    """Inverse-CDF transform, one column per index i = first+1 .. first+ncols.

    Column j of the C-contiguous float64 (m, ncols) array u is mapped, in
    place, through the truncated geometric on {1..first+j+1}; the result, an
    int64 view of u, is at least 1 and is clamped to i against rounding.
    Once expm1(i ln q) is -1.0 it is -1.0 at every later i, and once
    first >= R = _position_reach(q) every v_i <= R + 1 <= i: there the
    columns need no vector of their own, and the clamp changes nothing.
    """
    ncols = u.shape[1]
    v = u.view(np.int64)
    if q == 0.0:
        v.fill(1)
        return v
    logq = math.log(q)
    flat = q < 1.0 and np.expm1((first + 1) * logq) == -1.0
    clamp = q == 1.0 or first < _position_reach(q)
    i_int = np.arange(first + 1, first + ncols + 1, dtype=np.int64) if clamp or not flat else None
    if q == 1.0:
        u *= i_int
    else:
        if flat:
            np.negative(u, out=u)
        else:
            u *= np.expm1(i_int * logq)  # -(1 - q^i), so u * it is -u * (1 - q^i)
        np.log1p(u, out=u)
        u /= logq
    np.floor(u, out=v, casting="unsafe")
    v += 1
    if clamp:
        np.minimum(v, i_int, out=v)
    return v


def _position_reach(q: float) -> int | None:
    """R with v_i - 1 <= R for every v_i _positions_from_uniforms can return,
    at any i, or None at q = 1.  The largest uniform is 1 - 2**-53 and every
    rounding is monotone, so u * expm1(i ln q) >= -(1 - 2**-53), its log1p is
    at least ln 2**-53 ~ -36.737 up to a few ulp, and v_i - 1 <= 37 / -ln q."""
    if q == 1.0:
        return None
    return 0 if q == 0.0 else math.floor(37.0 / -math.log(q)) + 1


def sample_trace_matrix(
    n: int, q: float, seeds: Sequence[int] | np.ndarray, first: int = 0
) -> np.ndarray:
    """One trace per seed, as a (len(seeds), n - first) int64 matrix of the
    positions v_{first+1} .. v_n; integer seeds are taken mod 2**64.

    Column j depends only on j and word j + 1 of the seed's stream, so the
    result is the whole matrix's columns ``first ..`` bit for bit, and
    columns lo .. hi-1 are ``sample_trace_matrix(hi, q, seeds, lo)``.
    """
    n = as_int(n, "n", 1, INDEX_MAX)
    as_real(q, "q", 0, 1)
    first = as_int(first, "first", 0, n - 1)
    return _positions_from_uniforms(uniform_matrix(seed_array(seeds, first), n - first), q, first)


def sample_trace(n: int, q: float, seed: int) -> InsertionTrace:
    """Draw (v_1, ..., v_n) with independent truncated-geometric components:
    row 0 of :func:`sample_trace_matrix` for the stream of ``seed`` (checked
    and taken mod 2**64 there).  The same (n, q, seed) always yields the
    same trace.
    """
    v = sample_trace_matrix(n, q, [seed])[0]
    return _unchecked(InsertionTrace, positions=tuple(v.tolist()), q=q)


def mallows_process(trace: InsertionTrace | Sequence[int] | np.ndarray) -> Permutation:
    """Run the insertion process: value i enters at position v_i from the left.

    Earlier entries at positions >= v_i shift right.  The all-ones trace gives
    the decreasing permutation; the trace (1, 2, 1, 3, 2, 5) gives
    (3, 5, 1, 4, 6, 2).  A raw sequence is checked as a trace; an
    :class:`InsertionTrace` already is one.

    The output is built reversed: value i enters with i - v_i entries left
    of it, so an insert shifts v_i - 1 entries, a few for any fixed q < 1.
    Past ``4 * _DECODE_BLOCK`` values it is split into blocks, and value i
    walks in from the nearer end to its block (small v_i from the right).
    Against a 512-value plain list, unreversed: 5x faster at n = 2000 and
    q in {0.5, 0.9}, 1.2x at q = 1.  A 4096-value list lost at n = 5000 and
    q = 1 (0.8x); blocks of 1024 gained 1.5x at n = 10^5, q = 1 but lost 7%
    at n = 5000.
    """
    return _unchecked(Permutation, image=_decoded(_positions_of(trace)[0]))


def _decoded(positions: Sequence[int]) -> tuple[int, ...]:
    """The image of :func:`mallows_process` for checked ``positions``."""
    rev: list[int] = []
    plain = 4 * _DECODE_BLOCK
    for i, v in enumerate(positions[:plain], 1):
        rev.insert(i - v, i)
    if len(positions) > plain:
        blocks = [rev[a:a + _DECODE_BLOCK] for a in range(0, plain, _DECODE_BLOCK)]
        for i, v in enumerate(positions[plain:], plain + 1):
            if 2 * v <= i:  # v - 1 entries right of the slot: walk in from the right
                k, j = v - 1, len(blocks) - 1
                block = blocks[j]
                while k > len(block):
                    k -= len(block)
                    j -= 1
                    block = blocks[j]
                k = len(block) - k
            else:  # and i - v left of it: walk in from the left
                k, j = i - v, 0
                block = blocks[0]
                while k > len(block):
                    k -= len(block)
                    j += 1
                    block = blocks[j]
            block.insert(k, i)
            if len(block) == 2 * _DECODE_BLOCK:
                blocks[j:j + 1] = [block[:_DECODE_BLOCK], block[_DECODE_BLOCK:]]
        rev = list(chain.from_iterable(blocks))
    rev.reverse()
    return tuple(rev)


# ---------------------------------------------------------------------------
# permutation statistics
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# exact distributional quantities
# ---------------------------------------------------------------------------


def trace_table(n: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """All prod_{i<=n} i = n! traces as an (n!, n) int64 matrix ``V`` with their
    probabilities ``w``; refuses n > 9.

    Rows run in lexicographic order (v_n varies fastest).  Each weight is the
    product of truncated-geometric masses taken in index order, and the
    weights sum to 1 up to float roundoff.
    """
    n = as_int(n, "n", 1)
    if n > ENUMERATION_CAP:
        raise CapabilityError(
            f"exact trace enumeration supports n <= {ENUMERATION_CAP}, got n={n}"
        )
    V = np.indices(range(1, n + 1)).reshape(n, -1).T + 1
    w = np.ones(len(V))
    for i in range(n):
        w *= TruncatedGeometric(i + 1, q).pmf_vector()[V[:, i] - 1]
    return V, w


# ---------------------------------------------------------------------------
# displacement estimation
# ---------------------------------------------------------------------------


def displacement_samples(
    n: int, q: float, i: int, trials: int, seed: int
) -> np.ndarray:
    """Monte Carlo samples distributed as |sigma(i) - i| under sigma ~ mu_{n,q}.

    Each sample is :func:`trace_displacements` of one sampled trace, that is
    |sigma^{-1}(i) - i|; because inv(sigma) = inv(sigma^{-1}) the Mallows
    measure is closed under inverse, so this has exactly the law of
    |sigma(i) - i|.

    Batches hold at most 2**20 // n traces, so memory is flat in n.  Only
    v_i .. v_n move value i: a batch samples those columns alone and scans
    them as a trace of length n - i + 1, with the same result.
    """
    n = as_int(n, "n", 1)
    i = as_int(i, "i", 1, n)
    trials = as_int(trials, "trials", 1)
    out = np.empty(trials, dtype=np.int64)
    chunk = max(1, (1 << 20) // n)
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        seeds = derive_array(seed, np.arange(done, done + m, dtype=np.uint64))
        v = sample_trace_matrix(n, q, seeds, i - 1)
        out[done : done + m] = trace_displacements(v)
        done += m
    return out


def trace_displacements(v: np.ndarray) -> np.ndarray:
    """|sigma^{-1}(1) - 1| for each row of an (m, n) trace matrix ``v``, so
    |sigma^{-1}(i) - i| on columns i .. N of longer traces: only they move i.

    Tracks the final position p of the first value: after its own insertion
    p = v_1, and each later insertion at v_j <= p pushes it right by one;
    then n + 1 - p = sigma^{-1}(1) (on a slice v_1 can pass n).  The scan
    vectorizes across rows; constructing sigma directly would not.  Once
    every row has p at least the largest v_j left to scan, each later step
    adds exactly one, so the scan stops there, checking every 64 steps: for
    q < 1 that is within a few thousand steps, as v_j - 1 <= _position_reach(q).
    """
    n = v.shape[1]
    p = v[:, 0].copy()
    top = v[:, 1:].max(initial=0)
    for start in range(2, n + 1, 64):
        if p.min(initial=top) >= top:
            p += n + 1 - start
            break
        for j in range(start, min(start + 64, n + 1)):
            p += v[:, j - 1] <= p
    return np.abs(n - p)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def format_permutation(p: Permutation | Sequence[int]) -> str:
    return "σ = " + " ".join(str(x) for x in _image_of(p))


def format_trace(trace: InsertionTrace | Sequence[int]) -> str:
    return "v = " + " ".join(str(x) for x in _positions_of(trace)[0])


def _parse_ints(text: str) -> tuple[int, ...]:
    body = text.split("=", 1)[1] if "=" in text else text
    parts = body.replace(",", " ").split()
    if not parts:
        raise ValueError(f"no integers found in {text!r}")
    return tuple(int(x) for x in parts)


def parse_permutation(text: str) -> Permutation:
    """Accepts 'σ = 3 5 1 4 6 2', '3 5 1 4 6 2', or comma-separated digits."""
    return Permutation(_parse_ints(text))


def parse_trace(text: str, q: float) -> InsertionTrace:
    """Accepts 'v = 1 2 1 3 2 5' or bare integer lists, validating 1 <= v_i <= i."""
    return InsertionTrace(_parse_ints(text), q)
