"""Small shared helpers: alpha-range snapping, probability clamping,
weighted sums over a trace table, and integer inputs."""

from __future__ import annotations

import math

import numpy as np

# Float alpha values like 2/3 land epsilon-close to a rational boundary; without
# snapping, ceil((1 - 2/3) * 9) evaluates to 4 instead of 3.  All alpha-dependent
# index arithmetic in the package shares this epsilon.
ALPHA_EPS = 1e-9

# Probabilities computed through exp() may exceed 1 by a few ulp; clamp within
# this slack (values further outside [0, 1] indicate a bug and are not hidden).
PROB_EPS = 1e-12


def alpha_cut_range(n: int, alpha: float) -> tuple[int, int]:
    """The inclusive index range ceil((1-alpha) n) .. floor(alpha n), snapped.

    Requires 1/2 < alpha < 1 so that both sides of a cut at k in the range have
    at most alpha*n vertices.
    """
    if not 0.5 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (1/2, 1)")
    k_lo = math.ceil((1.0 - alpha) * n - ALPHA_EPS)
    k_hi = math.floor(alpha * n + ALPHA_EPS)
    return max(1, k_lo), min(n, k_hi)


def balanced_at_most(size: int, n: int, alpha: float) -> bool:
    """Whether a side of ``size`` vertices respects the alpha*n balance cap."""
    return size <= alpha * n + ALPHA_EPS


def clamp01(x: float) -> float:
    """Clamp a probability to [0, 1], tolerating PROB_EPS of float overshoot."""
    if x < 0.0:
        if x < -PROB_EPS:
            raise ValueError(f"probability {x} below 0 beyond tolerance")
        return 0.0
    if x > 1.0:
        if x > 1.0 + PROB_EPS:
            raise ValueError(f"probability {x} above 1 beyond tolerance")
        return 1.0
    return x


def trace_order_sum(w: np.ndarray, values) -> float:
    """sum_t w[t] * values[t], added in row order as a running total would.

    A ``w @ values`` dot product adds in another order and changes the last
    bits of the result.
    """
    return float(np.cumsum(w * values)[-1])


def as_int(value, what: str) -> int:
    """``value`` as an int; a bool, float or other non-integer raises
    ValueError naming ``what`` rather than being truncated by ``int()``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_int64(values, what: str) -> np.ndarray:
    """``values`` as an int64 array, refusing entries that are not integers.

    A signed-integer ndarray passes without a per-entry check.  Otherwise
    each entry must be an int or numpy integer, not a bool (numpy reads one
    among ints as an int): a float raises ValueError naming ``what``.  If an
    entry lies beyond int64 the entries stay Python ints in an object array,
    which compares as usual, so a caller's range check names it by value.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values.astype(np.int64, copy=False)
    a = np.asarray(values, dtype=object)
    bad = {t for t in set(map(type, a.flat)) if t is bool or not issubclass(t, (int, np.integer))}
    if bad:
        x = next(x for x in a.flat if type(x) in bad)
        raise ValueError(f"{what} must be integers, got {x!r}")
    try:
        return a.astype(np.int64)
    except OverflowError:
        return a
