"""Deterministic counter-based random numbers (SplitMix64).

Everything stochastic in this package flows through the SplitMix64 finalizer

    mix64(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
               z ^= z >> 27;  z *= 0x94D049BB133111EB
               z ^= z >> 31

applied to the counter sequence ``seed + i * GOLDEN`` (i = 1, 2, ...), which is
exactly the output stream of the public-domain splitmix64.c generator.  Because
output i is a pure function of (seed, i), any slice of the stream can be
produced independently and in vectorized form, which is what makes sweep
results independent of thread count.

Sub-streams (one per Monte Carlo trial) come from :func:`derive`, which chains
two mix64 rounds per path component:

    s_{j+1} = mix64( (s_j XOR mix64((p_j + 1) * GOLDEN)) + GOLDEN )

so ``derive(master, cell, trial)`` gives a well-separated 64-bit seed for every
(cell, trial) pair.  A seed is any integer, taken mod 2**64 (:func:`as_seed`,
and :func:`seed_array` for a batch); a float, bool, None or string is refused.

Reference outputs for seed 0 (first three 64-bit words, matching the published
splitmix64.c test vector) are frozen in the test suite:

    0xE220A8397B1DCDAF  0x6E789E6AA1B965F4  0x06C45D188009454F
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._util import as_int, as_int64, column, scratch

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

_U53 = float(2.0**-53)


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int, reduced mod 2**64."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Vectorized :func:`mix64` on a uint64 array, in place (multiplication
    wraps); ``scratch`` is a uint64 array of z's shape, else one is made."""
    if scratch is None:
        scratch = np.empty(z.shape, dtype=np.uint64)
    for shift, mult in ((30, _MULT1), (27, _MULT2), (31, None)):
        z ^= np.right_shift(z, np.uint64(shift), out=scratch)
        if mult:
            z *= np.uint64(mult)
    return z


def as_seed(seed: int, what: str = "seed") -> int:
    """The seed rule: an integer, taken mod 2**64; a float, bool, None or
    string raises ValueError naming ``what``."""
    return as_int(seed, what) & MASK64


def seed_array(
    seeds: Sequence[int] | np.ndarray, first: int | np.ndarray = 0, what: str = "seeds"
) -> np.ndarray:
    """:func:`as_seed` over a sequence, as uint64 words moved ``first`` words
    along their streams: word first + j of seed s is word j of
    s + first * GOLDEN.  ``first`` is a nonnegative int or an integer array,
    one shift per seed.  An integer ndarray takes one cast, unchecked."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        s = seeds.astype(np.uint64, copy=False)
    else:
        s = np.array([int(x) & MASK64 for x in as_int64(seeds, what).flat], dtype=np.uint64)
    if isinstance(first, np.ndarray):
        return s + first.astype(np.uint64) * np.uint64(GOLDEN)
    return s + np.uint64(first * GOLDEN & MASK64) if first else s


def derive(seed: int, *path: int) -> int:
    """Derive a sub-stream seed from ``seed`` and a tuple of nonnegative indices."""
    s = as_seed(seed)
    for part in path:
        s = mix64(((s ^ mix64((as_seed(part, "path part") + 1) * GOLDEN)) + GOLDEN) & MASK64)
    return s


def derive_array(seed: int, parts: Sequence[int] | np.ndarray) -> np.ndarray:
    """Vectorized :func:`derive` over the final path component.

    ``derive_array(s, np.arange(t))[i] == derive(s, i)`` for every i.
    """
    s = np.uint64(as_seed(seed))
    inner = mix64_array((seed_array(parts, what="path parts") + np.uint64(1)) * np.uint64(GOLDEN))
    return mix64_array((s ^ inner) + np.uint64(GOLDEN))


def stream_u64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start+1 .. start+count`` of the SplitMix64 stream for ``seed``."""
    start, count = as_int(start, "start", 0), as_int(count, "count", 0)
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return mix64_array(np.uint64(as_seed(seed)) + idx * np.uint64(GOLDEN))


def _steps(count: int) -> np.ndarray:
    """(j + 1) * GOLDEN for j < count, the stream's counter steps."""
    return np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN)


def uniform_matrix(seeds: Sequence[int] | np.ndarray, ncols: int) -> np.ndarray:
    """Row r holds the first ``ncols`` uniforms in [0, 1) of stream ``seeds[r]``,
    mixed in one buffer whose scratch becomes the float64 result.  Under an
    active workspace the counter steps are built once, not per call."""
    ncols = as_int(ncols, "ncols", 0)
    s = seed_array(seeds)
    words = scratch("words", (len(s), ncols), np.uint64)
    np.add(s[:, None], column("steps", ncols, _steps), out=words)
    out = scratch("uniforms", words.shape, np.float64)
    mix64_array(words, out.view(np.uint64))
    words >>= np.uint64(11)
    # below 2**53 the words read alike as int64, whose cast is vectorized
    return np.multiply(words.view(np.int64), _U53, out=out)
