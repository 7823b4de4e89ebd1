"""Small shared helpers: alpha-range snapping, probability clamping,
weighted sums over a trace table, the input checks and scratch buffers.

The input policy lives here: a size or index goes through :func:`as_int`,
a q, alpha or bound parameter through :func:`as_real`.  Public entry points
call them once; internal calls on values valid by construction do not."""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

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
    as_real(alpha, "alpha", 0.5, 1, "()")
    k_lo = math.ceil((1.0 - alpha) * n - ALPHA_EPS)
    k_hi = math.floor(alpha * n + ALPHA_EPS)
    return max(1, k_lo), min(n, k_hi)


def clamp01(x: float) -> float:
    """Clamp a probability to [0, 1], tolerating PROB_EPS of float overshoot;
    NaN is refused like a value beyond the tolerance."""
    if x != x:
        raise ValueError("probability is NaN")
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


def as_real(value, what: str, lo=-math.inf, hi=math.inf, ends: str = "[]"):
    """``value`` itself, unchanged, once it lies between ``lo`` and ``hi``;
    ``ends`` marks each end closed ("[", "]") or open ("(", ")").  Anything
    outside, NaN included, raises ValueError naming ``what``."""
    above = value >= lo if ends[0] == "[" else value > lo
    below = value <= hi if ends[1] == "]" else value < hi
    if above and below:
        return value
    raise ValueError(f"{what}={value} outside {ends[0]}{lo}, {hi}{ends[1]}")


def as_int(value, what: str, lo=-math.inf, hi=math.inf) -> int:
    """``value`` as an int in [lo, hi]; a bool, float or other non-integer
    raises ValueError naming ``what`` rather than being truncated by
    ``int()``, and so does an int outside the range."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return as_real(int(value), what, lo, hi)


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


# The calling thread's active workspace, a dict of flat byte buffers by name.
_active = threading.local()


def scratch(name: str, shape: tuple, dtype) -> np.ndarray:
    """``np.empty(shape, dtype)``, unless the calling thread has an active
    workspace (see :func:`reusing`): then a view of its byte buffer ``name``,
    grown on demand, so the next call under that name overwrites it."""
    ws = getattr(_active, "ws", None)
    if ws is None:
        return np.empty(shape, dtype)
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if name not in ws or ws[name].size < size:
        ws[name] = np.empty(size, dtype=np.uint8)
    return ws[name][:size].view(dtype).reshape(shape)


def column(name: str, count: int, build) -> np.ndarray:
    """``build(count)``, a vector whose entry j depends on j alone.  Under an
    active workspace (see :func:`reusing`) the longest one built under
    ``name`` stays there, and a prefix of it is returned."""
    ws = getattr(_active, "ws", None)
    if ws is None:
        return build(count)
    have = ws.get(name)
    if have is None or len(have) < count:
        ws[name] = have = build(count)
    return have[:count]


@contextmanager
def reusing(ws: dict):
    """Make ``ws`` the calling thread's active workspace inside the block."""
    _active.ws = ws
    try:
        yield
    finally:
        _active.ws = None
