"""Reproducible Monte Carlo sweeps over (n, q) grids.

A sweep walks cells (one per n and resolved q), runs a fixed number of trials
per cell, and aggregates per-trial statistics into :class:`SweepRow` rows
(whose fields but within_band are the CSV columns) sorted by (n, q, stat).
Wherever a closed form exists (expected cut counts, flush probabilities, q=0
degenerate values) it lands in the ``exact`` column and the row is checked
against a 4*stderr band.

Reproducibility contract: trial t of cell c draws its entire randomness from
the stream seeded by derive(master_seed, c, t), trials are dispatched in
fixed-size chunks whose boundaries do not depend on the thread count, and
chunk results are merged in trial order.  The CSV output is therefore byte
identical for a fixed config and seed at any thread count; measured runtimes,
which cannot be deterministic, are recorded in the rows and the JSON mirror
while the CSV's runtime_ms column is left empty.

q grids accept plain floats or window tokens resolved per n through
threshold_window: "critical", "critical-3margin" (the existence side q_exist),
"critical+3margin" (the non-existence side q_nonexist), and
"critical+-3margin" (both; the spellings ±, +-, and an optional * before
"margin" are accepted).  A config resolves them when it is built.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from contextlib import contextmanager
import dataclasses
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .errors import StatisticalCheckError
from .events import (
    _fold_tail,
    event_flag_matrix,
    expected_cuts_in_range,
    flush_prob,
    threshold_window,
)
from ._util import INDEX_MAX, alpha_cut_range, as_int, as_real, reusing, scratch, trace_order_sum
from . import mallows
from .graph import _edge_ends, build_tangled, diameter
from .mallows import (
    _position_reach,
    mallows_process,
    sample_trace_matrix,
    trace_displacements,
    trace_table,
)
from .rng import as_seed, derive, derive_array, seed_array
from .widths import EXACT_CAP, cutwidth_identity, treewidth_exact, vertex_iso

# Band slack absorbs float round-trip drift on zero-variance rows and matches
# the tolerance used for exact-oracle comparisons elsewhere.
BAND_SLACK = 1e-9

# The most threads a sweep runs on.  Each chunk run at once keeps a separator
# workspace of up to 4.4 MB for the process's life, about 280 MB at 64.
MAX_THREADS = 64


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; immutable so cells can share it freely.

    ``q_grid`` entries are floats or window tokens (see module docstring),
    resolved at every n into :attr:`cells` when the config is built.
    The extras beyond the common fields: ``k_fracs`` picks flush-validate k
    values as fractions of n, ``i_frac``/``t_list`` shape displacement cells,
    ``bisections`` sizes the large-n expansion estimate, and ``exhaustive``
    switches flush-validate to weighting every trace (n <= 9).
    """

    experiment: str
    n_list: tuple[int, ...]
    q_grid: tuple[float | str, ...]
    alpha: float = 2.0 / 3.0
    trials: int = 100
    master_seed: int = 0
    thread_count: int = 1
    out: str | None = None
    plot_out: str | None = None
    k_fracs: tuple[float, ...] = (0.5,)
    i_frac: float = 0.5
    t_list: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    bisections: int = 32
    exhaustive: bool = False

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):  # each field of its type; a list as a tuple
            v = getattr(self, f.name)
            if f.name in _LIST_FIELDS:
                if not isinstance(v, (list, tuple)):
                    raise ValueError(f"{f.name}: {v!r} is not a list")
                kind = f.type[len("tuple[") : -len(", ...]")]
                v = tuple(_typed(f"{f.name} entry", kind, x) for x in v)
            else:
                v = _typed(f.name, f.type, v)
            object.__setattr__(self, f.name, v)
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(
                f"experiment {self.experiment!r} not one of {tuple(_EXPERIMENTS)}"
            )
        for name in ("n_list", "q_grid", "k_fracs", "t_list"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        for n in self.n_list:  # the expansion cell bisects, so needs n >= 2
            as_int(n, "n_list entry", 2 if self.experiment == "expansion" else 1, INDEX_MAX)
        for q in self.q_grid:
            if not isinstance(q, str):
                as_real(q, "q", 0, 1)
        as_int(self.trials, "trials", 1)
        as_int(self.thread_count, "thread_count", 1, MAX_THREADS)
        as_seed(self.master_seed, "master_seed")
        alpha_cut_range(1, self.alpha)  # refuses alpha outside (1/2, 1)
        as_int(self.bisections, "bisections", 1)
        for f in self.k_fracs:
            as_real(f, "k_fracs entry", 0, 1, "(]")
        as_real(self.i_frac, "i_frac", 0, 1, "(]")
        for t in self.t_list:
            as_int(t, "t_list entry", 1)
        if self.exhaustive and self.experiment != "flush-validate":
            raise ValueError("exhaustive applies only to flush-validate")
        self.cells  # refuses a token that cannot resolve at some n

    @cached_property
    def cells(self) -> tuple[tuple[int, int, float], ...]:
        """(cell_index, n, q) in deterministic order; window tokens resolved per n."""
        grid = [(n, q) for n in self.n_list for t in self.q_grid for q in resolve_q_token(t, n)]
        return tuple((index, n, q) for index, (n, q) in enumerate(grid))


# A normalized window token: a side, a margin float() reads (empty for 1),
# and any run of * or x before "margin".
_Q_TOKEN = re.compile(r"critical(?:(\+-|-\+|±|[+-])(.*?)[*x]*margin)?", re.DOTALL)


def resolve_q_token(token: float | str, n: int) -> list[float]:
    """Expand one q_grid entry for a given n; floats pass through."""
    if not isinstance(token, str):
        return [float(token)]
    match = _Q_TOKEN.fullmatch(token.strip().lower().replace(" ", "").replace("·", "*"))
    if match is None:
        raise ValueError(f"unrecognized q token {token!r}")
    side, count = match.groups()
    if side is None:
        return [threshold_window(n, 0.0).q_critical]
    w = threshold_window(n, float(count) if count else 1.0)
    return {"-": [w.q_exist], "+": [w.q_nonexist]}.get(side, [w.q_exist, w.q_nonexist])


def _parse_number(text: str) -> int | float:
    """A number's text as an int when it is integral, whatever its
    spelling (1e5 is 100000), else as a float."""
    try:
        return int(text)
    except ValueError:
        x = float(text)
        return int(x) if x.is_integer() else x


def _parse_scalar(text: str):
    low = text.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    try:
        return _parse_number(low)
    except ValueError:
        return low


_LIST_FIELDS = {
    f.name for f in dataclasses.fields(SweepConfig) if f.type.startswith("tuple[")
}


def parse_config_text(text: str) -> SweepConfig:
    """Parse JSON or flat key=value lines ('#' comments allowed) into a config."""
    stripped = text.strip()
    if stripped.startswith("{"):
        raw = json.loads(stripped, parse_float=_parse_number)
    else:
        raw = {}
        for line in stripped.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in _LIST_FIELDS:
                raw[key] = [_parse_scalar(p) for p in value.split(",") if p.strip()]
            else:
                raw[key] = _parse_scalar(value)
    return make_config(**raw)


def _typed(what: str, kind: str, v):
    """``v`` as a value of the SweepConfig type ``kind``, or a ValueError
    naming ``what``: an int where a float belongs becomes that float, but
    nothing is truncated, parsed or cast from another kind."""
    if v is None and kind.endswith("None") or isinstance(v, str) and "str" in kind:
        return v
    if kind == "int":
        return as_int(v, what)
    if isinstance(v, (bool, np.bool_)):
        if kind == "bool":
            return bool(v)
    elif kind.startswith("float") and isinstance(v, (int, float, np.integer, np.floating)):
        return float(v)
    raise ValueError(f"{what}: {v!r} is not of type {kind}")


def make_config(**raw) -> SweepConfig:
    """Build a SweepConfig from keyword values, a scalar standing for a
    one-entry list; the config checks every value's type and range, so a
    fractional count or a word where a number belongs fails before any cell
    runs."""
    unknown = sorted(raw.keys() - {f.name for f in dataclasses.fields(SweepConfig)})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return SweepConfig(**{
        k: [v] if k in _LIST_FIELDS and not isinstance(v, (list, tuple)) else v
        for k, v in raw.items()
    })


def config_from_file(path: str | Path) -> SweepConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise OSError(f"cannot read sweep config {p}: {exc}") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    experiment: str
    n: int
    q: float
    alpha: float
    trials: int
    stat: str
    mean: float
    stderr: float | None
    exact: float | None
    runtime_ms: float | None
    within_band: bool | None = None


@dataclass
class SweepResult:
    rows: list[SweepRow]
    metadata: dict

    def failing_rows(self) -> list[SweepRow]:
        return [r for r in self.rows if r.within_band is False]


def _finish_row(row: SweepRow) -> SweepRow:
    if row.exact is not None:
        tol = 4.0 * (row.stderr or 0.0) + BAND_SLACK
        if row.stderr == 0.0:
            # No variation observed, so the empirical band has zero width.
            # Allow one count of resolution: a rare event with
            # exact * trials < 1 legitimately shows nothing, while a broken
            # statistic that should fire every few trials still fails.
            tol += 1.0 / max(1, row.trials)
        row.within_band = bool(abs(row.mean - row.exact) <= tol)
    return row


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    sd = float(values.std(ddof=1))
    return mean, sd / math.sqrt(values.size)


# ---------------------------------------------------------------------------
# cell execution
# ---------------------------------------------------------------------------


def _chunk_bounds(trials: int, n: int) -> list[tuple[int, int]]:
    """Fixed trial chunks; sized by n only so thread count cannot move them."""
    chunk = max(1, min(64, (1 << 20) // max(1, n)))
    return [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]


def _run_cell(
    cfg: SweepConfig,
    cell: tuple[int, int, float],
    trial_fn: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Run all trials of one cell, chunked across worker threads.

    ``cell`` is a (cell_index, n, q) triple of ``cfg.cells``.  ``trial_fn``
    maps a vector of per-trial seeds to an array with one row per trial.
    Chunk results are concatenated in trial order, so the outcome is
    independent of thread count; a trial failure aborts the sweep, keeping its
    exception class, with the cell context prefixed to its message.
    """
    cell_index, n, q = cell
    cell_seed = derive(cfg.master_seed, cell_index)
    bounds = _chunk_bounds(cfg.trials, n)

    def work(span: tuple[int, int]) -> np.ndarray:
        return trial_fn(derive_array(cell_seed, np.arange(*span, dtype=np.uint64)))

    try:
        parts = _run_chunks(work, bounds, cfg.thread_count)
    except Exception as exc:
        # Rewriting args keeps the class (so the CLI's exit code) and puts the
        # context into str(exc), which the CLI prints; add_note (Python 3.11+)
        # would leave str(exc) unchanged.
        context = f"trial failure in cell {cell_index} (n={n}, q={q})"
        exc.args = (f"{context}: {exc}", *exc.args[1:])
        raise
    merged = np.concatenate(parts)
    if len(merged) != cfg.trials:
        raise RuntimeError(
            f"cell {cell_index} (n={n}) produced {len(merged)} trials, "
            f"expected {cfg.trials}: refusing to drop trials silently"
        )
    return merged


def _run_chunks(work: Callable, bounds: list, threads: int) -> list:
    """[work(span) for span in bounds], run by the calling thread and up to
    ``threads - 1`` helper threads, each taking the next span in turn.  The
    first failure in trial order is raised once every thread has stopped; no
    span starts after a failure.  If a helper cannot start (a thread limit),
    no more are started and the threads already running take every span.

    The caller works rather than waiting: on the bench separator cells at 2
    threads this ran 1.12-1.25x faster than a pool of 2 workers per cell,
    whose waiting caller made a third thread to wake on each chunk."""
    parts: list = [None] * len(bounds)
    failed: list = []
    todo = iter(enumerate(bounds))  # next() on it is atomic under the GIL

    def drain() -> None:
        for i, span in todo:
            try:
                parts[i] = work(span)
            except Exception as exc:
                failed.append((i, exc))
                for _ in todo:  # start no more spans
                    pass

    helpers = [threading.Thread(target=drain) for _ in range(min(threads, len(bounds)) - 1)]
    try:
        for helper in helpers:
            try:
                helper.start()
            except RuntimeError:
                break
        drain()
    finally:
        for _ in todo:  # after an interrupt too
            pass
        for helper in helpers:
            if helper.ident is not None:  # it started
                helper.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return parts


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------
#
# One function per experiment kind computes a single cell.  It gets the
# config, ``run`` (that cell's _run_cell: a per-trial function in, the
# per-trial array out, one row per trial in trial order) and the cell's n
# and q, and returns (trials, stats) with stats a list of (stat, mean,
# stderr, exact) tuples.  Values derived from a trial's record, such as an
# indicator, come from the merged array.  run_sweep turns the stats into
# rows; a stat with an exact reference is checked against its band there.
# The trials call sample_trace_matrix, event_flag_matrix, mallows_process,
# build_tangled and diameter through this module's globals, and uniform_matrix
# through mallows', so a caller can wrap them there.
#
# The separator and sampled flush-validate cells read only the event flags of
# indices k_lo .. k_hi (or min(ks) .. max(ks)).  Their trials walk each chunk
# through _flag_blocks: right to left in column blocks of about _BLOCK_ENTRIES
# trace entries, each sampled and flagged (or, right of the last index read,
# folded) while in cache, with the tail pair of minima carried across block
# edges and nothing sampled left of the first index read.  For q < 1 the walk
# mostly starts R = _position_reach(q) columns right of the last index read,
# not at n: no column beyond can move a flag read.  Their outputs equal the
# whole-matrix route's; the blocking keeps memory flat in n.
# Where 0 < q < 1, k_lo - 1 > R, k_hi + R < n and expm1(k_lo ln q) = -1,
# v_i is the same function of u_i at every i >= k_lo, at most R + 1 < k_lo,
# so a cut at k is exactly v_k = 1 and v_{k+j} <= j for 1 <= j <= R.  If
# cuts are rare too, separator trials take _window_cuts: they draw only the
# window's uniforms, keep the k that pass a threshold test every cut passes,
# and flag R + 1 columns for each.  Dense cells, q = 1 and flush-validate
# keep _flag_blocks.
# Both routes sample and flag each block under reusing(ws), a workspace the
# chunk takes from _WORKSPACES, so its buffers (the flags a block yields, the
# window route's masks and the RNG's counter steps too) are rewritten block
# after block, not fresh memory the kernel maps again.
# The other cells build graphs or scan whole traces and take the whole matrix.

_Run = Callable[[Callable[[np.ndarray], np.ndarray]], np.ndarray]
_CellStats = tuple[int, list[tuple[str, float, float | None, float | None]]]

# Trace entries per streamed column block.  Bigger blocks pay only once the
# buffers are reused: fewer, longer numpy calls, fewer GIL hand-offs between
# threads.  On the bench separator job (n = 10^5, 2 threads), against fresh
# arrays at 2**16: reuse at 2**16 gave 1.07x and left 590 faults per job, at
# 2**17 1.24-1.37x; 2**18 was slower than 2**17 and took peak RSS to 81-86
# MB, and without reuse it nearly doubled the faults.  A threading.local
# workspace left about 2.5 k faults per job, as each cell's pool threads
# die; a free list cleared at the end of run_sweep ran 8 % slower.  With the
# int16 window passes, 2**16 ran the job 1.13x faster on 1 thread but 0.91x
# on 2, with 3.2x the thread switches; 2**18 ran 0.80x and 0.91x.
_BLOCK_ENTRIES = 2**17

# Workspaces free for a chunk to take, kept for the process's life: one per
# chunk run at once.  list.pop and list.append are atomic under the GIL.
_WORKSPACES: list[dict] = []


@contextmanager
def _pooled():
    try:
        ws = _WORKSPACES.pop()
    except IndexError:
        ws = {}
    try:
        yield ws
    finally:
        _WORKSPACES.append(ws)


def _flag_blocks(n: int, q: float, seeds: np.ndarray, first: int, last: int):
    """Yield (lo, flags) for column blocks of the traces of ``seeds``, from
    the right end down to column ``first``: flags is event_flag_matrix of
    columns lo .. of the block, so its column j is index k = lo + j + 1.  A
    block holding no index up to ``last`` is only folded into the tail pair.
    Only the flags of indices k <= ``last`` are exact: with R =
    _position_reach(q), first > R and last + R < n, the walk starts at index
    last + R with the tail pair (last, R + 1).  Each i > last + R has
    v_i <= R + 1, so i - v_i >= last breaks no F_k with k <= last; and R_k
    for k > first fails either way, as v_{k+1} <= R + 1 <= k."""
    width = max(1, _BLOCK_ENTRIES // len(seeds))
    reach = _position_reach(q)
    end, tail = n, None
    if reach is not None and first > reach and last + reach < n:
        end = last + reach
        tail = tuple(np.full(len(seeds), x, dtype=np.int64) for x in (last, reach + 1))
    with _pooled() as ws:
        for hi in range(end, first, -width):
            lo = max(first, hi - width)
            with reusing(ws):
                v = sample_trace_matrix(hi, q, seeds, lo)
                if lo >= last:
                    tail = _fold_tail(v, lo, tail)
                    continue
                flags = event_flag_matrix(v, lo, tail)
            yield lo, flags
            tail = flags["tail"]


# Window route: look-ahead cap J, gate on P * (R + 1) with P the pass rate.  A 10-trace
# chunk at n = 10^5 took 8.0 ms in blocks, 7.1 in windows at 0.24; 10.2, 12.1 at 0.42.
_LOOKAHEAD = 15
_WINDOW_GATE = 0.25


def _window_thresholds(n: int, q: float, k_lo: int, k_hi: int) -> np.ndarray | None:
    """T_j = (1 - q^j)(1 + 2**-30), j = 1 .. J = min(_LOOKAHEAD, R), if the
    separator cell over k_lo .. k_hi takes :func:`_window_cuts`, else None."""
    reach = _position_reach(q)
    if not 0.0 < q < 1.0 or k_lo - 1 <= reach or k_hi + reach >= n:
        return None
    logq = math.log(q)
    t = -np.expm1(np.arange(1, min(_LOOKAHEAD, reach) + 1) * logq)
    if np.expm1(k_lo * logq) != -1.0 or (1.0 - q) * t.prod() * (reach + 1) > _WINDOW_GATE:
        return None
    return t * (1.0 + 2.0**-30)


def _window_cuts(q: float, seeds: np.ndarray, k_lo: int, k_hi: int, t: np.ndarray) -> np.ndarray:
    """Per-trial counts of the cut vertices k_lo .. k_hi of the traces of
    ``seeds``, given ``t`` from :func:`_window_thresholds`: a block's
    candidates k (u_k < T_1 and u_{k+j} < T_j for j <= J) are sampled as
    columns k_lo - 1 .. k_lo + R - 1 of their streams moved k - k_lo words
    along, and flagged, in one call each; so is the last block's, if none."""
    m, look, reach = len(seeds), len(t), _position_reach(q)
    width, counts = max(1, _BLOCK_ENTRIES // m), np.zeros(m, dtype=np.int64)
    with _pooled() as ws:
        for lo in range(k_lo, k_hi + 1, width):
            w = min(width, k_hi + 1 - lo)
            with reusing(ws):
                u = mallows.uniform_matrix(seed_array(seeds, lo - 1), w + look)
                below = np.less(u, t[0], out=scratch("below", u.shape, bool))
                pair = scratch("pair", (m, w), bool)
                np.logical_and(below[:, :w], below[:, 1 : w + 1], out=pair)
                if look > 1:  # and u_{k+2} < T_2: the rounds then start on so few
                    # hits that numpy keeps the GIL through their calls, where on
                    # ~1000 it hands it to the other thread and back per call
                    pair &= np.less(u[:, 2 : w + 2], t[1], out=below[:, :w])
            hit = np.flatnonzero(pair)
            hit += hit // w * look  # flat indices into u
            u = u.ravel()
            for j in range(3, look + 1):
                if not hit.size:
                    break
                hit = hit[u[hit + j] < t[j - 1]]
            if hit.size or lo + w > k_hi:  # the last block calls anyway: each chunk is traced
                r, k = hit // (w + look), lo + hit % (w + look)
                v = sample_trace_matrix(k_lo + reach, q, seed_array(seeds[r], k - k_lo), k_lo - 1)
                tail = tuple(np.full(len(r), x, dtype=np.int64) for x in (k_lo, reach + 1))
                cut = event_flag_matrix(v, k_lo - 1, tail)["cut"][:, 0]
                counts += np.bincount(r[cut], minlength=m)
    return counts


def _separator_cell(cfg: SweepConfig, run: _Run, n: int, q: float) -> _CellStats:
    """Cut-vertex counts in the alpha range, from traces alone (no graphs).

    Stats: ``cut_count`` = |cut_set intersect [k_lo, k_hi]| with the exact
    expectation as reference, and ``separator_prob`` = empirical
    Pr[cut_count >= 1].  The counting range is clipped to internal vertices
    {2..n-1}, matching what expected_cuts integrates whenever the alpha range
    is internal.
    """
    k_lo, k_hi = alpha_cut_range(n, cfg.alpha)
    k_lo, k_hi = max(k_lo, 2), min(k_hi, n - 1)
    thresholds = _window_thresholds(n, q, k_lo, k_hi)

    def trial_fn(seeds: np.ndarray) -> np.ndarray:
        if thresholds is not None:
            return _window_cuts(q, seeds, k_lo, k_hi, thresholds)
        counts = np.zeros(len(seeds), dtype=np.int64)
        for lo, flags in _flag_blocks(n, q, seeds, k_lo - 1, k_hi):
            # a block's count fits int32, which sums bools faster than int64
            counts += flags["cut"][:, : k_hi - lo].sum(axis=1, dtype=np.int32)
        return counts

    counts = run(trial_fn)
    exact = expected_cuts_in_range(n, q, k_lo, k_hi)
    p_exact = 1.0 if q == 0.0 and k_lo <= k_hi else None
    return cfg.trials, [
        ("cut_count", *_mean_stderr(counts), exact),
        ("separator_prob", *_mean_stderr(counts >= 1), p_exact),
    ]


def _flush_cell(cfg: SweepConfig, run: _Run, n: int, q: float) -> _CellStats:
    """Empirical flush frequencies against the exact product formula.

    One sampling pass serves every k from ``k_fracs``; with two or more k
    values the covariance of the flush indicators is reported as an
    observational row (no sign asserted).  ``exhaustive=True`` weighs all n!
    traces of :func:`trace_table` instead (n <= 9), with stderr 0 and n! as
    the trial count.
    """
    ks = sorted({max(1, math.floor(f * n + 0.5)) for f in cfg.k_fracs})
    pairs = list(combinations(range(len(ks)), 2))

    def trial_fn(seeds: np.ndarray) -> np.ndarray:
        out = np.empty((len(seeds), len(ks)), dtype=bool)
        for lo, flags in _flag_blocks(n, q, seeds, ks[0] - 1, ks[-1]):
            flush = flags["flush"]
            for j, k in enumerate(ks):
                if lo < k <= lo + flush.shape[1]:
                    out[:, j] = flush[:, k - 1 - lo]
        return out

    if cfg.exhaustive:
        V, w = trace_table(n, q)
        trials, flush = len(w), event_flag_matrix(V)["flush"][:, [k - 1 for k in ks]]
        freqs = [(trace_order_sum(w, f), 0.0) for f in flush.T]
        covs = [trace_order_sum(w, flush[:, a] & flush[:, b]) - freqs[a][0] * freqs[b][0]
                for a, b in pairs]
    else:
        trials, flush = cfg.trials, run(trial_fn)
        freqs = [_mean_stderr(f) for f in flush.T]
        covs = [float(np.cov(flush[:, a], flush[:, b], ddof=1)[0, 1]) if trials > 1 else 0.0
                for a, b in pairs]
    return trials, [
        (f"flush_freq_k{k}", *freq, flush_prob(n, k, q)) for k, freq in zip(ks, freqs)
    ] + [
        (f"flush_cov_k{ks[a]}_k{ks[b]}", cov, None, None) for (a, b), cov in zip(pairs, covs)
    ]


def _diameter_cell(cfg: SweepConfig, run: _Run, n: int, q: float) -> _CellStats:
    """Graph diameters with the cut-count lower-bound companion.

    Stats: ``diameter`` (exact n-1 reference at q=0), ``cut_lower_bound``
    (mean of b = min(|cut_set|+1, n-1), a lower bound on the distance from 1
    to n), ``diameter_over_n`` (Theorem-scale ratio, observational), and
    ``diambound_violations`` (fraction of trials with diameter < b; exact
    reference 0, so any violation fails the band).  A trial's record is the
    pair (diameter, b).
    """

    def trial_fn(seeds: np.ndarray) -> np.ndarray:
        v = sample_trace_matrix(n, q, seeds)
        cuts = event_flag_matrix(v)["cut"].sum(axis=1)
        diams = [diameter(build_tangled(mallows_process(r))) for r in v]
        return np.column_stack((diams, np.minimum(cuts + 1, n - 1)))

    diams, lower = run(trial_fn).T
    mean, se = _mean_stderr(diams)
    return cfg.trials, [
        ("diameter", mean, se, float(n - 1) if q == 0.0 else None),
        ("cut_lower_bound", *_mean_stderr(lower), None),
        ("diameter_over_n", mean / n, se / n, None),
        ("diambound_violations", _mean_stderr(diams < lower)[0], None, 0.0),
    ]


def _width_cell(cfg: SweepConfig, run: _Run, n: int, q: float) -> _CellStats:
    """Width distributions: exact treewidth when n <= 20, identity-layout
    cutwidth at every n, plus the theoretical shape values
    sqrt(log n / log(1/q)) and (1/(1-q)) log(1/(1-q)) for plotting.

    Medians and quartiles are reported (stderr left empty); q=0 cells carry
    the exact path references tw = cw = 1.  At q=1 the shape values are
    undefined and their rows are omitted.  A trial's record is (cwid,) or,
    at n <= 20, (cwid, tw).
    """
    small = n <= EXACT_CAP

    def trial_fn(seeds: np.ndarray) -> np.ndarray:
        v = sample_trace_matrix(n, q, seeds)
        out = np.empty((len(v), 2 if small else 1), dtype=np.int64)
        for r in range(len(v)):
            g = build_tangled(mallows_process(v[r]))
            out[r, 0], _ = cutwidth_identity(g)
            if small:
                out[r, 1] = treewidth_exact(g)
        return out

    exact_path = 1.0 if q == 0.0 and n >= 2 else None
    stats = []
    for name, values in zip(("cwid", "tw"), run(trial_fn).T):
        q1, q2, q3 = np.percentile(values, [25.0, 50.0, 75.0])
        stats += [
            (f"{name}_median", float(q2), None, exact_path),
            (f"{name}_q1", float(q1), None, None),
            (f"{name}_q3", float(q3), None, None),
        ]
    if q < 1.0:
        shape_sqrt = 0.0 if q == 0.0 else math.sqrt(math.log(n) / math.log(1.0 / q)) if n > 1 else 0.0
        shape_lin = 0.0 if q == 0.0 else math.log(1.0 / (1.0 - q)) / (1.0 - q)
        stats += [
            ("shape_sqrt_log", shape_sqrt, None, None),
            ("shape_loglinear", shape_lin, None, None),
        ]
    return cfg.trials, stats


def _expansion_cell(cfg: SweepConfig, run: _Run, n: int, q: float) -> _CellStats:
    """Vertex expansion: exact isoperimetric ratios at n <= 20, random
    balanced-bisection edge-boundary estimates beyond (observational).

    Small-n stats: ``vertex_iso_mean`` (q=0 reference 1/floor(n/2), the path's
    worst set), ``vertex_iso_min``, and ``iso_ge_1_40_frac`` (fraction of
    trials meeting the asymptotic 1/40 constant; logged, never asserted).
    Large-n stats: ``bisection_ratio_mean`` and ``bisection_ratio_min``.
    Every sampled graph's maximum degree is checked <= 4; a violation aborts.
    """
    small = n <= EXACT_CAP

    def trial_fn(seeds: np.ndarray) -> np.ndarray:
        v = sample_trace_matrix(n, q, seeds)
        out_iso = np.empty(len(v), dtype=np.float64)
        for r in range(len(v)):
            g = build_tangled(mallows_process(v[r]))
            degrees = np.diff(g.indptr)
            if degrees.max(initial=0) > 4:
                raise AssertionError("max degree exceeded 4; model invariant broken")
            if small:
                out_iso[r] = float(vertex_iso(g))
            else:
                u, w = _edge_ends(g)
                bis_seeds = derive_array(
                    int(seeds[r]), np.arange(cfg.bisections, dtype=np.uint64)
                )
                keys = mallows.uniform_matrix(bis_seeds, n)
                ranks = np.argsort(keys, axis=1, kind="stable")
                side = np.zeros((cfg.bisections, n), dtype=bool)
                half = n // 2
                row_idx = np.repeat(np.arange(cfg.bisections), half)
                side[row_idx, ranks[:, :half].ravel()] = True
                cross = (side[:, u] ^ side[:, w]).sum(axis=1)
                out_iso[r] = float(cross.min()) / half
        return out_iso

    iso = run(trial_fn)
    if not small:
        return cfg.trials, [
            ("bisection_ratio_mean", *_mean_stderr(iso), None),
            ("bisection_ratio_min", float(iso.min()), None, None),
        ]
    exact = (1.0 / (n // 2)) if (q == 0.0 and n >= 2) else None
    return cfg.trials, [
        ("vertex_iso_mean", *_mean_stderr(iso), exact),
        ("vertex_iso_min", float(iso.min()), None, None),
        ("iso_ge_1_40_frac", *_mean_stderr(iso >= 1.0 / 40.0), None),
    ]


def _displacement_cell(cfg: SweepConfig, run: _Run, n: int, q: float) -> _CellStats:
    """Displacement tails Pr[|sigma(i) - i| >= t] at i = round(i_frac * n),
    with the 2 q^t reference bound reported alongside each tail row; like
    displacement_samples, a trial samples and scans only v_i .. v_n."""
    i = max(1, math.floor(cfg.i_frac * n + 0.5))
    disp = run(lambda seeds: trace_displacements(sample_trace_matrix(n, q, seeds, i - 1)))
    stats = []
    for t in cfg.t_list:
        stats += [
            (f"disp_tail_t{t}", *_mean_stderr(disp >= t), None),
            (f"disp_bound_t{t}", min(1.0, 2.0 * q**t), None, None),
        ]
    return cfg.trials, stats


_EXPERIMENTS = {
    "separator": _separator_cell,
    "width": _width_cell,
    "diameter": _diameter_cell,
    "expansion": _expansion_cell,
    "flush-validate": _flush_cell,
    "displacement": _displacement_cell,
}


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run every cell of cfg's experiment, timing each, and return its rows
    sorted by (n, q, stat) with the sweep metadata."""
    cell_fn = _EXPERIMENTS[cfg.experiment]
    rows: list[SweepRow] = []
    for cell in cfg.cells:
        _, n, q = cell
        start = time.perf_counter()
        trials, stats = cell_fn(cfg, partial(_run_cell, cfg, cell), n, q)
        ms = (time.perf_counter() - start) * 1000.0
        for stat, mean, stderr, exact in stats:
            rows.append(_finish_row(SweepRow(
                cfg.experiment, n, q, cfg.alpha, trials, stat, float(mean), stderr, exact, ms
            )))
    rows.sort(key=lambda r: (r.n, r.q, r.stat))
    meta = {
        k: getattr(cfg, k) for k in ("experiment", "master_seed", "alpha", "trials", "thread_count")
    }
    meta.update(code_version=__version__, rng="splitmix64", cwid_label="upper-bound layout")
    return SweepResult(rows, meta)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# within_band is derived from the other columns: the JSON mirror keeps it,
# the CSV leaves it out.
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow) if f.name != "within_band")
_PLOT_COLUMNS = ("n", "q", "mean", "stderr")


def _csv_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write(path: str | Path, text: str, what: str) -> None:
    p = Path(path)
    try:
        p.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {p}: {exc}") from exc


def render_csv(result: SweepResult) -> str:
    """Deterministic CSV serialization; runtime_ms stays empty (see module doc)."""
    lines = [",".join(CSV_COLUMNS)]
    for r in result.rows:
        r = dataclasses.replace(r, runtime_ms=None)
        lines.append(",".join(_csv_value(getattr(r, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(result: SweepResult, path: str | Path) -> None:
    _write(path, render_csv(result), "sweep CSV")


def write_json(result: SweepResult, path: str | Path) -> None:
    """JSON mirror: same rows plus metadata and measured runtimes."""
    rows = [dataclasses.asdict(r) for r in result.rows]
    for row in rows:
        if row["runtime_ms"] is not None:
            row["runtime_ms"] = round(row["runtime_ms"], 3)
    payload = {"metadata": result.metadata, "rows": rows}
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n", "sweep JSON")


def write_plot_data(result: SweepResult, path: str | Path) -> None:
    """Gnuplot-ready blocks: one '# stat <name>' block per statistic with
    'n q mean stderr' columns, blocks separated by two blank lines."""
    blocks = []
    for stat in sorted({r.stat for r in result.rows}):
        lines = [f"# stat {stat}", "# " + " ".join(_PLOT_COLUMNS)]
        lines += [
            " ".join(_csv_value(getattr(r, c)) for c in _PLOT_COLUMNS).rstrip()
            for r in result.rows
            if r.stat == stat
        ]
        blocks.append("\n".join(lines))
    _write(path, "\n\n\n".join(blocks) + "\n", "plot data")


def check_bands(result: SweepResult) -> None:
    """Raise StatisticalCheckError listing every exact-reference row outside
    its 4*stderr band."""
    bad = result.failing_rows()
    if bad:
        desc = "; ".join(
            f"n={r.n} q={r.q:.6g} {r.stat}: mean={r.mean:.6g} exact={r.exact:.6g} stderr={r.stderr}"
            for r in bad
        )
        raise StatisticalCheckError(
            f"{len(bad)} sweep row(s) outside the 4*stderr band: {desc}", bad
        )
