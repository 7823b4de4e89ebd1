"""Monte Carlo sweep harness: configs, determinism, bands, output formats."""

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import tangledpath.sweeps as sweeps
from tangledpath import (
    CapabilityError,
    StatisticalCheckError,
    event_flag_matrix,
    flush_prob,
    sample_trace_matrix,
    threshold_window,
)
from tangledpath._util import alpha_cut_range
from tangledpath.cli import main
from tangledpath.sweeps import (
    CSV_COLUMNS,
    check_bands,
    config_from_file,
    make_config,
    parse_config_text,
    render_csv,
    resolve_q_token,
    run_sweep,
    write_csv,
    write_json,
    write_plot_data,
    _chunk_bounds,
)
from tangledpath.mallows import _position_reach
from tangledpath.rng import derive, derive_array, seed_array, uniform_matrix


def small_cfg(**over):
    base = dict(
        experiment="separator",
        n_list=[30],
        q_grid=[0.0, 0.5],
        trials=40,
        master_seed=7,
    )
    base.update(over)
    return make_config(**base)


# --- configuration parsing ---


def test_parse_key_value_config():
    cfg = parse_config_text(
        """
        # comment line
        experiment = separator
        n_list = 50, 100
        q_grid = 0.3, 0.6
        trials = 25
        master_seed = 99
        alpha = 0.6
        """
    )
    assert cfg.experiment == "separator"
    assert cfg.n_list == (50, 100)
    assert cfg.q_grid == (0.3, 0.6)
    assert cfg.trials == 25
    assert cfg.master_seed == 99
    assert cfg.alpha == 0.6


def test_parse_json_config():
    cfg = parse_config_text(
        json.dumps(
            {
                "experiment": "width",
                "n_list": [16],
                "q_grid": ["critical"],
                "trials": 5,
            }
        )
    )
    assert cfg.experiment == "width"
    assert cfg.q_grid == ("critical",)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        make_config(experiment="nope", n_list=[10], q_grid=[0.5])
    with pytest.raises(ValueError):
        small_cfg(trials=0)
    with pytest.raises(ValueError):
        small_cfg(q_grid=[1.5])
    with pytest.raises(ValueError):
        small_cfg(q_grid=[])
    with pytest.raises(ValueError):
        small_cfg(alpha=0.4)
    with pytest.raises(ValueError):
        parse_config_text("experiment = separator\nn_list = 10\nbogus_key = 1\n")
    with pytest.raises(ValueError, match="margin"):
        small_cfg(margin=3.0)


@pytest.mark.parametrize(
    "bad, match",
    [
        ("bisections = 0", "bisections"),
        ("bisections = -3", "bisections"),
        ("k_fracs = -1, 7", "k_fracs"),
        ("k_fracs = 0", "k_fracs"),
        ("k_fracs = 0.5, 1.5", "k_fracs"),
        ("t_list = 0, 2", "t_list"),
        ("t_list = -1", "t_list"),
        ("i_frac = 0", "i_frac"),
        ("i_frac = 1.2", "i_frac"),
        ("n_list = 12, 1", "n_list"),
        ("trials = 1.5", "trials"),
        ("master_seed = abc", "master_seed"),
        ("alpha = abc", "alpha"),
        ("n_list = 50.7", "n_list"),
        ("n_list = 9223372036854775807", "n_list entry=9223372036854775807 outside"),
        ("q_grid = critical-+3margin", "margin 3.0 too large at n=24"),
        ("q_grid = 0.5, critical+3 margin x", "unrecognized q token"),
        ("t_list = 2.9", "t_list"),
        ("thread_count = 2.5", "thread_count"),
        ("thread_count = 65", "thread_count=65 outside"),
        ("bisections = 1e100000", "bisections"),
        ("q_grid = true", "q_grid"),
        ("exhaustive = true", "exhaustive"),
        ("exhaustive = 1", "exhaustive"),
        ("trials 5", "config line without '='"),
        ('{"experiment": "expansion", "n_list": [24], "q_grid": [0.5], "master_seed": 1.5}',
         "master_seed"),
    ],
)
def test_config_refuses_bad_extras_before_any_cell(bad, match, tmp_path, capsys, monkeypatch):
    """Out-of-range extras are config errors (exit 2) whatever the
    experiment, caught before a cell runs instead of failing inside one or
    being clamped."""
    import tangledpath.sweeps as sweeps

    text = bad if bad.startswith("{") else (
        f"experiment = expansion\nn_list = 24\nq_grid = 0.5\ntrials = 3\n{bad}\n"
    )
    with pytest.raises(ValueError, match=match):
        parse_config_text(text)
    monkeypatch.setattr(sweeps, "_run_cell", lambda *a: pytest.fail("a cell ran"))
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert match in capsys.readouterr().err
    assert small_cfg(k_fracs=[1.0], t_list=[1], i_frac=1.0, bisections=1).trials == 40


def test_config_takes_integral_values_of_any_spelling():
    cfg = parse_config_text(
        "experiment = flush-validate\nn_list = 1e5, 50.0\nq_grid = 1, 0.5\n"
        "trials = 2e2\nmaster_seed = 18446744073709551615\nexhaustive = false\n"
    )
    assert cfg.n_list == (100000, 50) and type(cfg.n_list[0]) is int
    assert cfg.q_grid == (1.0, 0.5) and type(cfg.q_grid[0]) is float
    assert (cfg.trials, cfg.master_seed, cfg.exhaustive) == (200, 2**64 - 1, False)
    assert make_config(experiment="flush-validate", n_list=[6], q_grid=[0.5], exhaustive=True).exhaustive


@pytest.mark.parametrize(
    "field, value",
    [
        ("q_grid", (True,)),
        ("q_grid", (None,)),
        ("q_grid", 0.5),
        ("exhaustive", 1),
        ("out", 5),
        ("plot_out", 2.0),
        ("alpha", "0.6"),
        ("n_list", (30.0,)),
        ("trials", np.float64(40.0)),
    ],
)
def test_config_checks_every_field_however_built(field, value):
    """A SweepConfig checks each field's type itself, so direct construction,
    make_config and dataclasses.replace all refuse a bool for a number, a
    number for a bool or a path, a string for a number, an integral float for
    a count and a scalar for a list, with ValueError."""
    base = dict(experiment="flush-validate", n_list=(30,), q_grid=(0.5,))
    good = sweeps.SweepConfig(**base)
    for build in (lambda: sweeps.SweepConfig(**{**base, field: value}),
                  lambda: dataclasses.replace(good, **{field: value})):
        with pytest.raises(ValueError, match=field):
            build()
    if isinstance(value, tuple) or field != "q_grid":  # make_config wraps a scalar entry
        with pytest.raises(ValueError, match=field):
            make_config(**{**base, field: value})


def test_config_stores_lists_as_tuples():
    cfg = sweeps.SweepConfig("flush-validate", [30, np.int64(40)], [0, "critical"], k_fracs=[1])
    assert (cfg.n_list, cfg.q_grid, cfg.k_fracs) == ((30, 40), (0.0, "critical"), (1.0,))
    assert type(cfg.n_list[1]) is int and hash(cfg) == hash(dataclasses.replace(cfg))


def test_config_resolves_its_tokens_when_built(monkeypatch):
    """Each (n, token) pair resolves once, when the config is built: a token
    that cannot resolve at some n (here n < 16) refuses the config, and
    run_sweep walks the resolved cells without resolving again."""
    with pytest.raises(ValueError, match="n=12 outside"):
        make_config(experiment="width", n_list=[16, 12], q_grid=["critical"])
    cfg = make_config(experiment="separator", n_list=[16, 3000], q_grid=[0.5, "critical+-1margin"],
                      trials=2)
    windows = [threshold_window(n, 1.0) for n in (16, 3000)]
    assert cfg.cells == tuple((i, n, q) for i, (n, q) in enumerate(
        (n, q) for n, w in zip((16, 3000), windows) for q in (0.5, w.q_exist, w.q_nonexist)))
    monkeypatch.setattr(sweeps, "threshold_window", lambda *a: pytest.fail("resolved again"))
    assert [(r.n, r.q) for r in run_sweep(cfg).rows][::2] == sorted(c[1:] for c in cfg.cells)


def test_config_from_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("experiment = diameter\nn_list = 40\nq_grid = 0.0\ntrials = 3\n")
    cfg = config_from_file(path)
    assert cfg.experiment == "diameter"
    assert cfg.n_list == (40,)


# --- q-grid window tokens ---


def test_q_tokens_resolve_via_threshold_window():
    n = 10**5
    win = threshold_window(n, 3.0)
    assert resolve_q_token("critical", n) == [win.q_critical]
    assert resolve_q_token("critical-3margin", n) == [win.q_exist]
    assert resolve_q_token("critical+3margin", n) == [win.q_nonexist]
    both = resolve_q_token("critical+-3margin", n)
    assert both == [win.q_exist, win.q_nonexist]
    assert resolve_q_token("critical-+3margin", n) == both
    assert resolve_q_token("critical+-3*margin", n) == both
    assert resolve_q_token("critical±3margin", n) == both
    assert resolve_q_token(0.25, n) == [0.25]


def test_q_tokens_reject_garbage():
    for bad in ("critical~3margin", "crit", "critical+margin3", "q=0.5"):
        with pytest.raises(ValueError):
            resolve_q_token(bad, 10**5)


# --- determinism ---


# One config per experiment kind, plus exhaustive flush-validate; more than
# 64 trials where that is cheap, so a cell spans several trial chunks.
THREAD_CONFIGS = [
    dict(experiment="separator", n_list=[30], q_grid=[0.0, 0.5], trials=130),
    dict(experiment="width", n_list=[10, 22], q_grid=[0.0, 0.6], trials=70),
    dict(experiment="diameter", n_list=[25], q_grid=[0.0, 0.7], trials=70),
    dict(experiment="expansion", n_list=[10, 24], q_grid=[0.0, 0.6], trials=70, bisections=4),
    dict(experiment="flush-validate", n_list=[30], q_grid=[0.5], k_fracs=[0.3, 0.6], trials=130),
    dict(experiment="displacement", n_list=[30], q_grid=[0.6], trials=70, t_list=[1, 3]),
    dict(experiment="flush-validate", n_list=[2, 6], q_grid=[0.0, 0.5], k_fracs=[0.3, 0.6], exhaustive=True),
]


def test_thread_count_does_not_change_csv():
    for raw in THREAD_CONFIGS:
        base = make_config(master_seed=7, thread_count=1, **raw)
        one = run_sweep(base)
        threaded = run_sweep(dataclasses.replace(base, thread_count=3))
        assert render_csv(one) == render_csv(threaded), raw
        for r in one.rows + threaded.rows:
            assert type(r.within_band) is (bool if r.exact is not None else type(None))


# SHA-256 of render_csv for one small sweep per streamed or sampled cell
# kind, recorded before the sampler and flag routines were rewritten in
# place; the CSVs must stay byte-identical to that history at any thread
# count, not merely agree between thread counts.
GOLDEN_CSV_DIGESTS = {
    "85aad01174619803be6ebf96ec588e451c64db09dbeecae1b660b9e0e3f7df90": dict(
        experiment="separator", n_list=[30, 3000], q_grid=[0.0, 0.5, "critical", 1.0],
        trials=130),
    "61990ffa0488cfe5747c9648f7451f77bc04c24d6be67bb7ecd0c5b4a12cbb92": dict(
        experiment="flush-validate", n_list=[30, 3000], q_grid=[0.5, 0.9, 1.0],
        k_fracs=[0.3, 0.6], trials=130),
    "34979982cef7d3c6e30a305dac62f585c551ea52b30d5a824d666d57d1d4792f": dict(
        experiment="displacement", n_list=[30, 2000], q_grid=[0.0, 0.6, 1.0], trials=70,
        t_list=[1, 3], i_frac=0.3),
    "ccd4049a0ed4ee8ee27956d15bc83ed2b2482397052a9c888897f1128ad80fff": dict(
        experiment="diameter", n_list=[25, 300], q_grid=[0.0, 0.7], trials=20),
    "bf39b144afa65539f201cd2af3f65bfc6f22565f5c63febd6e129842dea4af1a": dict(
        experiment="width", n_list=[12, 40], q_grid=[0.0, 0.6, 1.0], trials=20),
    "1e638d24abb1112989cf0940b17c7d9ff55008726cfecb7436da2094f7e8477f": dict(
        experiment="expansion", n_list=[12, 60], q_grid=[0.0, 0.7, 1.0], trials=20,
        bisections=8),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("digest", list(GOLDEN_CSV_DIGESTS))
def test_csv_matches_recorded_digest(digest, threads):
    cfg = make_config(master_seed=11, thread_count=threads, **GOLDEN_CSV_DIGESTS[digest])
    assert hashlib.sha256(render_csv(run_sweep(cfg)).encode()).hexdigest() == digest


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_bench_separator_sweep_digest(threads):
    """The bench separator job (criterion 07's threshold sweep at n = 10^5,
    both sides of the window, 80 trials, master seed derive(1, 7)) writes
    the CSV whose digest the bench records, at any thread count: both of
    its cells, the blocks route and the window route, keep every bit."""
    cfg = make_config(experiment="separator", n_list=[10**5], q_grid=["critical+-3margin"],
                      trials=80, master_seed=derive(1, 7), thread_count=threads)
    assert hashlib.sha256(render_csv(run_sweep(cfg)).encode()).hexdigest() == (
        "19fa877c10f66cf1f6377440f71e6228ecbafc7c96223e62b2233d73cd5f5df3")


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_run_chunks_keeps_trial_order_and_the_first_failure(threads):
    """_run_chunks returns work(span) in span order however the threads
    interleave.  Where spans fail it raises the first failing span's error
    in trial order, once every thread has stopped, and no span starts after
    the first failure: only those the other threads had already taken."""
    spans = [(i, i + 1) for i in range(12)]

    def work(span):
        time.sleep(0.001 * (span[0] % 3))
        return np.array([span[0]])

    assert [int(x[0]) for x in sweeps._run_chunks(work, spans, threads)] == list(range(12))
    started = []

    def failing(span):
        started.append(span[0])
        time.sleep(0.002)
        if span[0] in (3, 4):
            raise ValueError(f"span {span[0]}")
        return np.array([span[0]])

    alive = threading.active_count()
    with pytest.raises(ValueError, match="^span 3$"):
        sweeps._run_chunks(failing, spans, threads)
    assert threading.active_count() == alive
    assert sorted(started) == list(range(len(started))) and len(started) <= 3 + threads


def test_run_chunks_runs_each_span_once_under_fast_switching():
    """Eight threads on 2000 spans, switching every microsecond: each span
    runs exactly once and its result lands in its own slot."""
    spans = [(i, i + 1) for i in range(2000)]
    taken, got = [], []

    def work(span):
        taken.append(span[0])  # list.append is atomic: a span run twice shows
        return np.full(span[1] - span[0], span[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.append(sweeps._run_chunks(work, spans, 8)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and sorted(taken) == list(range(len(spans)))
    assert np.array_equal(np.concatenate(got[0]), np.arange(len(spans)))


def test_a_helper_that_fails_to_start_leaves_no_thread_running(monkeypatch, tmp_path, capsys):
    """A helper thread that cannot start ends the sweep only once the helpers
    already started have stopped: with the second start failing at 3
    threads, the one running helper takes no more chunks and is joined
    before main returns."""
    starts, real_start = [], threading.Thread.start

    def start(self):
        starts.append(self)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("experiment = separator\nn_list = 2000\nq_grid = 0.6\ntrials = 640\n"
                   "thread_count = 3\n")
    assert main(["sweep", "--config", str(cfg)]) == 5
    assert len(starts) == 2 and not starts[0].is_alive()
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError") and "can't start new thread" in err


def test_thread_count_is_bounded_before_any_thread_starts(monkeypatch, tmp_path, capsys):
    """thread_count above MAX_THREADS (64) is refused when the config is
    built, in Python and through --threads, before any thread starts."""
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
    with pytest.raises(ValueError, match=r"^thread_count=65 outside \[1, 64\]$"):
        make_config(experiment="separator", n_list=[100], q_grid=[0.5], thread_count=65)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("experiment = separator\nn_list = 100\nq_grid = 0.5\ntrials = 4\n")
    assert main(["sweep", "--config", str(cfg), "--threads", "65"]) == 2
    assert "thread_count=65 outside" in capsys.readouterr().err
    assert make_config(experiment="separator", n_list=[100], q_grid=[0.5],
                       thread_count=sweeps.MAX_THREADS).thread_count == 64


def test_seed_changes_results():
    a = render_csv(run_sweep(small_cfg(master_seed=1, q_grid=[0.7])))
    b = render_csv(run_sweep(small_cfg(master_seed=2, q_grid=[0.7])))
    assert a != b


def test_chunk_bounds_cover_and_ignore_threads():
    for trials in (1, 7, 64, 1000):
        for n in (10, 5000):
            bounds = _chunk_bounds(trials, n)
            assert bounds[0][0] == 0 and bounds[-1][1] == trials
            for (a, b), (c, d) in zip(bounds, bounds[1:]):
                assert b == c and a < b
    # chunking depends on (trials, n) only, so there is nothing thread-shaped
    assert _chunk_bounds(100, 50) == _chunk_bounds(100, 50)


# --- row content ---


def test_q_zero_rows_are_exact():
    res = run_sweep(small_cfg(q_grid=[0.0], trials=10))
    by_stat = {row.stat: row for row in res.rows}
    cuts = by_stat["cut_count"]
    assert cuts.stderr == 0.0
    assert cuts.mean == cuts.exact
    assert by_stat["separator_prob"].mean == 1.0


def test_diameter_q_zero_exact():
    res = run_sweep(
        make_config(
            experiment="diameter", n_list=[25], q_grid=[0.0], trials=5, master_seed=3
        )
    )
    diam = next(r for r in res.rows if r.stat == "diameter")
    assert diam.mean == 24.0 and diam.exact == 24.0
    viol = next(r for r in res.rows if r.stat == "diambound_violations")
    assert viol.mean == 0.0 and viol.exact == 0.0


def test_exhaustive_flush_validation_matches_closed_form():
    cfg = make_config(
        experiment="flush-validate",
        n_list=[6],
        q_grid=[0.45],
        k_fracs=[0.5],
        exhaustive=True,
    )
    res = run_sweep(cfg)
    row = next(r for r in res.rows if r.stat.startswith("flush_freq"))
    assert row.stderr == 0.0
    assert row.mean == pytest.approx(flush_prob(6, 3, 0.45), abs=1e-10)
    assert row.mean == pytest.approx(row.exact, abs=1e-10)


def test_flush_validation_monte_carlo_band():
    cfg = make_config(
        experiment="flush-validate",
        n_list=[40],
        q_grid=[0.5],
        k_fracs=[0.5],
        trials=400,
        master_seed=11,
    )
    res = run_sweep(cfg)
    row = next(r for r in res.rows if r.stat == "flush_freq_k20")
    assert row.exact == pytest.approx(flush_prob(40, 20, 0.5), rel=1e-12)
    assert row.within_band
    check_bands(res)


def test_displacement_rows_have_bound_columns():
    cfg = make_config(
        experiment="displacement",
        n_list=[30],
        q_grid=[0.6],
        trials=50,
        t_list=[1, 2, 3],
        master_seed=5,
    )
    res = run_sweep(cfg)
    stats = {r.stat for r in res.rows}
    assert {"disp_tail_t1", "disp_tail_t3", "disp_bound_t2"} <= stats
    bound = next(r for r in res.rows if r.stat == "disp_bound_t2")
    assert bound.mean == pytest.approx(min(1.0, 2 * 0.6**2))
    tail = next(r for r in res.rows if r.stat == "disp_tail_t2")
    assert tail.mean <= bound.mean + 4 * (tail.stderr or 0.0) + 1e-9


# --- output formats ---


def test_csv_layout(tmp_path):
    res = run_sweep(small_cfg())
    text = render_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == len(CSV_COLUMNS)
        assert parts[-1] == ""  # runtime_ms stays empty for reproducibility
    keys = [(int(p[1]), float(p[2]), p[5]) for p in (l.split(",") for l in lines[1:])]
    assert keys == sorted(keys)
    out = tmp_path / "rows.csv"
    write_csv(res, out)
    assert out.read_text() == text


def test_json_mirror_has_runtimes(tmp_path):
    res = run_sweep(small_cfg(trials=8))
    path = tmp_path / "rows.json"
    write_json(res, path)
    doc = json.loads(path.read_text())
    assert doc["metadata"]["rng"] == "splitmix64"
    assert doc["metadata"]["master_seed"] == 7
    assert len(doc["rows"]) == len(res.rows)
    assert all(isinstance(r["runtime_ms"], float) for r in doc["rows"])
    assert all("within_band" in r for r in doc["rows"])


def test_plot_data_blocks(tmp_path):
    res = run_sweep(small_cfg(trials=8))
    path = tmp_path / "rows.dat"
    write_plot_data(res, path)
    text = path.read_text()
    stats = sorted({row.stat for row in res.rows})
    for stat in stats:
        assert f"# stat {stat}" in text
    assert "\n\n\n" in text  # gnuplot index separator between blocks


def test_check_bands_raises_on_doctored_row():
    res = run_sweep(small_cfg(trials=30, q_grid=[0.5]))
    check_bands(res)
    bad = dataclasses.replace(
        res.rows[0], exact=(res.rows[0].exact or 0.0) + 25.0, within_band=False
    )
    doctored = dataclasses.replace(res, rows=[bad] + list(res.rows[1:]))
    with pytest.raises(StatisticalCheckError) as err:
        check_bands(doctored)
    assert err.value.rows


def test_trial_error_keeps_its_class(monkeypatch, tmp_path, capsys):
    import tangledpath.sweeps as sweeps

    def refuse(*args, **kwargs):
        raise CapabilityError("too large")

    monkeypatch.setattr(sweeps, "event_flag_matrix", refuse)
    for threads in (1, 2):
        # 130 trials at n=25 make three chunks, so the threaded run fails in
        # more than one worker.
        with pytest.raises(CapabilityError, match=r"cell 0 \(n=25, q=0\.5\): too large"):
            run_sweep(small_cfg(n_list=[25], q_grid=[0.5], trials=130, thread_count=threads))
    cfg = tmp_path / "s.cfg"
    cfg.write_text("experiment = separator\nn_list = 25\nq_grid = 0.5\ntrials = 20\n")
    assert main(["sweep", "--config", str(cfg)]) == 3
    assert "refused: trial failure in cell 0" in capsys.readouterr().err


def test_width_sweep_medians_present():
    cfg = make_config(
        experiment="width", n_list=[12], q_grid=[0.0, 0.6], trials=6, master_seed=2
    )
    res = run_sweep(cfg)
    stats = {r.stat for r in res.rows}
    assert "cwid_median" in stats and "tw_median" in stats
    q0 = next(r for r in res.rows if r.q == 0.0 and r.stat == "tw_median")
    assert q0.mean == 1.0 and q0.exact == 1.0


def test_expansion_check_small_instance():
    cfg = make_config(
        experiment="expansion", n_list=[12], q_grid=[1.0], trials=10, master_seed=4
    )
    res = run_sweep(cfg)
    stats = {r.stat for r in res.rows}
    assert "vertex_iso_min" in stats and "iso_ge_1_40_frac" in stats
    frac = next(r for r in res.rows if r.stat == "iso_ge_1_40_frac")
    assert 0.0 <= frac.mean <= 1.0


# --- streamed cells against the whole trace matrix ---


def _cell_trials(cfg, n, q):
    """The per-trial array of cell 0 of cfg, as its trials return it."""
    data = []

    def run(trial_fn):
        data.append(sweeps._run_cell(cfg, (0, n, q), trial_fn))
        return data[0]

    sweeps._EXPERIMENTS[cfg.experiment](cfg, run, n, q)
    return data[0]


def _whole_matrix(cfg, n, q):
    seeds = derive_array(derive(cfg.master_seed, 0), np.arange(cfg.trials, dtype=np.uint64))
    return sample_trace_matrix(n, q, seeds)


def _whole_flags(cfg, n, q):
    return event_flag_matrix(_whole_matrix(cfg, n, q))


def _edge_width(gap, offset):
    """A block width w that splits ``gap`` columns into gap = j*w + offset
    with j >= 2: offset 0 puts index n - gap of the right-to-left walk on a
    block edge, 1 one column left of an edge and -1 one column right of one."""
    return next(w for w in range(gap // 2, 2, -1) if (gap - offset) % w == 0)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_streamed_cells_match_whole_matrix(monkeypatch, threads, offset):
    """Per-trial separator counts and flush-validate columns equal the
    whole-matrix route's, with the first column read (k_lo - 1, or
    min(ks) - 1) one before, on and one after a block edge, and then the last
    index counted (k_hi, or max(ks)), right of which blocks are only folded
    into the tail pair."""
    n, rows = 1000, 64  # 128 trials make two chunks of 64 traces
    for q in (0.0, 0.5, 0.75, 1.0, 1 - 1 / (n * math.log(n))):
        cfg = make_config(experiment="separator", n_list=[n], q_grid=[q], trials=2 * rows,
                          master_seed=9, thread_count=threads)
        k_lo, k_hi = alpha_cut_range(n, cfg.alpha)
        want = _whole_flags(cfg, n, q)["cut"][:, k_lo - 1 : k_hi].sum(axis=1)
        assert want.any() or q > 0.9
        for gap in (n - k_lo + 1, n - k_hi):
            monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", rows * _edge_width(gap, offset))
            assert np.array_equal(_cell_trials(cfg, n, q), want), (q, gap)

        cfg = dataclasses.replace(cfg, experiment="flush-validate", k_fracs=(0.35, 0.5, 0.7))
        ks = (350, 500, 700)
        flush = _whole_flags(cfg, n, q)["flush"]
        for gap in (n - ks[0] + 1, n - ks[-1]):
            monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", rows * _edge_width(gap, offset))
            got = _cell_trials(cfg, n, q)
            assert got.shape == (2 * rows, len(ks))
            for j, k in enumerate(ks):
                assert np.array_equal(got[:, j], flush[:, k - 1]), (q, gap, k)


def test_streamed_cells_carry_the_tail_at_q_one(monkeypatch):
    """At q = 1 the columns right of the last index counted kill flushes that
    a trace cut off there shows, so both cells' counts depend on the tail
    pair folded from those columns: they equal the whole matrix's and differ
    from the cut-off trace's."""
    rows = 64
    monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", rows * 2)
    cfg = make_config(experiment="separator", n_list=[12], q_grid=[1.0], trials=2 * rows,
                      master_seed=9)
    k_lo, k_hi = alpha_cut_range(12, cfg.alpha)
    v = _whole_matrix(cfg, 12, 1.0)
    whole, cut_off = (event_flag_matrix(w)["cut"][:, k_lo - 1 : k_hi].sum(axis=1)
                      for w in (v, v[:, :k_hi]))
    assert np.array_equal(_cell_trials(cfg, 12, 1.0), whole)
    assert not np.array_equal(whole, cut_off)

    monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", rows * 40)
    cfg = dataclasses.replace(cfg, experiment="flush-validate", n_list=(1000,), k_fracs=(0.5, 0.75))
    v = _whole_matrix(cfg, 1000, 1.0)
    whole = event_flag_matrix(v)["flush"][:, [499, 749]]
    cut_off = event_flag_matrix(v[:, :750])["flush"][:, [499, 749]]
    assert np.array_equal(_cell_trials(cfg, 1000, 1.0), whole)
    assert cut_off[:, 1].all() and not whole[:, 1].any()


def test_separator_flags_only_blocks_holding_a_counted_index(monkeypatch):
    """Every column range event_flag_matrix gets in a separator cell holds an
    index in k_lo .. k_hi; the blocks right of k_hi, here one starting right
    after it, are sampled, not flagged.  The walk starts at k_hi + R(q)
    (R = _position_reach(q)), or at n when there is no R (q = 1)."""
    n, rows = 1000, 64
    sampled, flagged = [], []

    def sample(n, q, seeds, first=0):
        sampled.append((first, n))
        return sample_trace_matrix(n, q, seeds, first)

    def flag(v, first=0, tail=None):
        flagged.append((first, first + v.shape[1]))
        return event_flag_matrix(v, first, tail)

    monkeypatch.setattr(sweeps, "sample_trace_matrix", sample)
    monkeypatch.setattr(sweeps, "event_flag_matrix", flag)
    for q in (0.5, 1.0):
        cfg = make_config(experiment="separator", n_list=[n], q_grid=[q], trials=rows)
        k_lo, k_hi = alpha_cut_range(n, cfg.alpha)
        reach = _position_reach(q)
        end = n if reach is None else min(n, k_hi + reach)
        monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", rows * _edge_width(end - k_hi, 0))
        sampled.clear()
        flagged.clear()
        _cell_trials(cfg, n, q)
        assert flagged and all(lo < k_hi and hi >= k_lo for lo, hi in flagged)
        assert flagged == [r for r in sampled if r[0] < k_hi] and len(flagged) < len(sampled)
        assert sampled[0][1] == end and sampled[-1][0] == k_lo - 1


@pytest.mark.parametrize("threads", [1, 2])
def test_streamed_cells_stop_at_the_reach(monkeypatch, threads):
    """Both streamed cells equal the whole-matrix route when the walk stops
    at index last + R, R = _position_reach(q), where last is the last index
    read: with the first column read at R (no stop) and R + 1, and last + R
    at n - 1, n and n + 1 (no stop), in one block and in 37-column blocks.
    The walk starts at last + R exactly when first >= R + 1 and
    last + R < n."""
    n, rows = 1000, 64
    qs = [0.0, 5e-324, 0.5, *resolve_q_token("critical+-3margin", n),
          1 - 1 / (n * math.log(n)), 1.0]
    ends = []

    def sample(hi, q, seeds, first=0):
        ends.append(hi)
        return sample_trace_matrix(hi, q, seeds, first)

    monkeypatch.setattr(sweeps, "sample_trace_matrix", sample)
    for q in qs:
        cfg = make_config(experiment="separator", n_list=[n], q_grid=[q], trials=2 * rows,
                          master_seed=3, thread_count=threads)
        whole = _whole_flags(cfg, n, q)
        reach = _position_reach(q)

        def start(first, last):
            stop = reach is not None and first > reach and last + reach < n
            return last + reach if stop else n

        if reach is None or 2 * reach + 2 >= n:
            firsts, lasts = [n // 4], [n // 2, n - 1]
        else:
            firsts, lasts = [reach, reach + 1], [n // 2] + [n - reach + d for d in (-1, 0, 1)]
        for first, last, width in itertools.product(firsts, lasts, (n, 37)):
            monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", rows * width)
            k_lo, k_hi = max(first + 1, 2), min(last, n - 1)
            monkeypatch.setattr(sweeps, "alpha_cut_range", lambda n, alpha: (k_lo, k_hi))
            ends.clear()
            want = whole["cut"][:, k_lo - 1 : k_hi].sum(axis=1)
            assert np.array_equal(_cell_trials(cfg, n, q), want), (q, first, last, width)
            assert max(ends) == start(k_lo - 1, k_hi), (q, first, last, width)
            if last > n:
                continue
            flush_cfg = dataclasses.replace(cfg, experiment="flush-validate",
                                            k_fracs=((first + 1) / n, last / n))
            ends.clear()
            got = _cell_trials(flush_cfg, n, q)
            assert np.array_equal(got, whole["flush"][:, [first, last - 1]]), (q, first, last)
            assert max(ends) == start(first, last), (q, first, last, width)


def test_streamed_separator_trial_memory_is_flat():
    """One streamed separator trial at n = 10^6 on 2 traces stays under
    8 MB of allocations; the whole-matrix route needs over 40 MB."""
    n, q = 10**6, 0.9
    cfg = make_config(experiment="separator", n_list=[n], q_grid=[q], trials=2)
    seeds = derive_array(derive(cfg.master_seed, 0), np.arange(2, dtype=np.uint64))
    k_lo, k_hi = alpha_cut_range(n, cfg.alpha)
    found = {}

    def run(trial_fn):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        found["count"] = trial_fn(seeds)
        found["peak"] = tracemalloc.get_traced_memory()[1] - base
        return found["count"]

    tracemalloc.start()
    try:
        sweeps._separator_cell(cfg, run, n, q)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cut = event_flag_matrix(sample_trace_matrix(n, q, seeds))["cut"]
        whole_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(found["count"], cut[:, k_lo - 1 : k_hi].sum(axis=1))
    assert found["peak"] < 8 * 2**20
    assert whole_peak > 40 * 2**20


# --- separator cells counted on candidate windows ---


def _separator_trial_fn(monkeypatch, cfg, n, q):
    """The per-chunk trial function of cfg's separator cell at (n, q),
    without its exact reference."""
    fns = []
    with monkeypatch.context() as m:
        m.setattr(sweeps, "expected_cuts_in_range", lambda *a: 0.0)
        sweeps._separator_cell(cfg, lambda fn: fns.append(fn) or np.zeros(1, np.int64), n, q)
    return fns[0]


def _both_routes(monkeypatch, cfg, n, q):
    """The cell's trial functions through _flag_blocks and through
    _window_cuts, each forced by the gate (left open); None for the second
    where the cell is not eligible."""
    fns = []
    for gate in (0.0, math.inf):
        monkeypatch.setattr(sweeps, "_WINDOW_GATE", gate)
        fns.append(_separator_trial_fn(monkeypatch, cfg, n, q))
    k_lo, k_hi = alpha_cut_range(n, cfg.alpha)
    eligible = sweeps._window_thresholds(n, q, max(k_lo, 2), min(k_hi, n - 1)) is not None
    return fns[0], fns[1] if eligible else None


WINDOW_QS = ("critical-3margin", "critical", "critical+3margin", 0.75, 0.8, 0.9, 0.95)


@pytest.mark.parametrize("n, rows, cells", [
    (1000, (1, 3, 10, 64), 9), (3000, (1, 3, 10), 18), (10**4, (1, 3, 10), 21),
    (65537, (1, 3), 21), (10**5, (1, 3), 21),
])
def test_window_route_matches_flag_blocks(monkeypatch, n, rows, cells):
    """Per-trial separator counts through _window_cuts equal those through
    _flag_blocks on each of the ``cells`` eligible cells of the q and alpha
    grid, on chunks of ``rows`` traces."""
    seeds = derive_array(n, np.arange(sum(rows), dtype=np.uint64))
    chunks = np.split(seeds, np.cumsum(rows)[:-1])
    eligible = 0
    for token, alpha in itertools.product(WINDOW_QS, (0.55, 2 / 3, 0.9)):
        q = resolve_q_token(token, n)[0]
        cfg = make_config(experiment="separator", n_list=[n], q_grid=[q], alpha=alpha)
        blocks, windows = _both_routes(monkeypatch, cfg, n, q)
        if windows is None:
            continue
        eligible += 1
        for chunk in chunks:
            assert np.array_equal(windows(chunk), blocks(chunk)), (token, alpha, len(chunk))
    assert eligible == cells


@pytest.mark.parametrize("threads", [1, 2])
def test_window_route_matches_across_block_edges(monkeypatch, threads):
    """The window route's counts equal _flag_blocks' on a cell's chunks of
    64, 64 and 2 traces, run on one or two threads, when its blocks are
    narrower than the 15 look-ahead columns or have edges inside them."""
    for n, q, alpha, widths in ((2000, 0.75, 0.55, (1, 2, 7, 16, 17, 61)),
                                (3000, "critical", 2 / 3, (7, 17))):
        q = resolve_q_token(q, n)[0]
        cfg = make_config(experiment="separator", n_list=[n], q_grid=[q], alpha=alpha,
                          trials=130, master_seed=4, thread_count=threads)
        monkeypatch.setattr(sweeps, "_WINDOW_GATE", 0.0)
        want = _cell_trials(cfg, n, q)
        assert want.any()
        monkeypatch.setattr(sweeps, "_WINDOW_GATE", math.inf)
        for width in widths:
            monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", 64 * width)
            assert np.array_equal(_cell_trials(cfg, n, q), want), (n, q, alpha, width)


def test_window_route_matches_on_random_cells(monkeypatch):
    """The two routes agree on random eligible cells: n, q, alpha, chunk
    size and block width drawn at random."""
    rng = np.random.default_rng(18)
    checked = 0
    while checked < 24:
        n = int(rng.integers(1000, 20000))
        q = float(rng.uniform(0.72, 0.97))
        alpha = float(rng.uniform(0.52, 0.95))
        cfg = make_config(experiment="separator", n_list=[n], q_grid=[q], alpha=alpha)
        rows, width = int(rng.integers(1, 65)), int(rng.integers(1, 3000))
        monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", rows * width)
        blocks, windows = _both_routes(monkeypatch, cfg, n, q)
        if windows is None:
            continue
        seeds = derive_array(checked, np.arange(rows, dtype=np.uint64))
        assert np.array_equal(windows(seeds), blocks(seeds)), (n, q, alpha, rows, width)
        checked += 1


def _route(monkeypatch, cfg, n, q):
    """The routes a run of cfg's separator cell at (n, q) took."""
    taken = set()
    with monkeypatch.context() as m:
        for name in ("_window_cuts", "_flag_blocks"):
            real = getattr(sweeps, name)
            m.setattr(sweeps, name, lambda *a, real=real, name=name: taken.add(name) or real(*a))
        _cell_trials(cfg, n, q)
    return taken


def test_window_route_is_taken_where_it_applies(monkeypatch):
    """The bench's q_nonexist cell counts on windows, its q_exist cell in
    blocks; so do q in {0, 1}, windows starting at index R + 1 or ending at
    n - R, and q^k_lo above expm1's resolution, each against a neighbour
    that takes the window route.  The cells of the tests that pin
    _flag_blocks all take it."""
    n = 10**5
    cfg = make_config(experiment="separator", n_list=[n], q_grid=[0.5], trials=1)
    q_exist, q_nonexist = resolve_q_token("critical+-3margin", n)
    assert _route(monkeypatch, cfg, n, q_nonexist) == {"_window_cuts"}
    assert _route(monkeypatch, cfg, n, q_exist) == {"_flag_blocks"}

    n = 10**4
    cfg = make_config(experiment="separator", n_list=[n], q_grid=[0.5], trials=1)
    for q in (0.0, 1.0):
        assert _route(monkeypatch, cfg, n, q) == {"_flag_blocks"}
    # (k_lo, k_hi) pairs: blocks, then windows; 724 ln 0.95 > -37.43 > 730 ln 0.95
    r8, r95 = _position_reach(0.8), _position_reach(0.95)
    for q, blocks, windows in (
        (0.8, (r8 + 1, 5000), (r8 + 2, 5000)),
        (0.8, (5000, n - r8), (5000, n - r8 - 1)),
        (0.95, (r95 + 2, 5000), (r95 + 8, 5000)),
    ):
        for pair, route in ((blocks, "_flag_blocks"), (windows, "_window_cuts")):
            with monkeypatch.context() as m:
                m.setattr(sweeps, "alpha_cut_range", lambda n, alpha: pair)
                assert _route(monkeypatch, cfg, n, q) == {route}, (q, pair)

    # the cells of test_separator_flags_only_blocks_holding_a_counted_index
    n = 1000
    for q in (0.5, 1.0):
        k_lo, k_hi = alpha_cut_range(n, 2 / 3)
        assert sweeps._window_thresholds(n, q, k_lo, k_hi) is None
    # and of test_streamed_cells_stop_at_the_reach
    for q in [0.0, 5e-324, 0.5, *resolve_q_token("critical+-3margin", n),
              1 - 1 / (n * math.log(n)), 1.0]:
        reach = _position_reach(q)
        if reach is None or 2 * reach + 2 >= n:
            firsts, lasts = [n // 4], [n // 2, n - 1]
        else:
            firsts, lasts = [reach, reach + 1], [n // 2] + [n - reach + d for d in (-1, 0, 1)]
        for first, last in itertools.product(firsts, lasts):
            k_lo, k_hi = max(first + 1, 2), min(last, n - 1)
            assert sweeps._window_thresholds(n, q, k_lo, k_hi) is None, (q, first, last)


def test_window_route_samples_and_flags_only_the_candidates(monkeypatch):
    """A window-route chunk makes one sample_trace_matrix and one
    event_flag_matrix call for each block holding a candidate, and for its
    last block in any case: R + 1 columns from k_lo - 1, the tail pair
    (k_lo, R + 1) and one row per candidate.  The candidates are exactly the
    (trace, k) with k_lo <= k <= k_hi, u_k < T_1 and u_{k+j} < T_j for
    j <= J, read off the whole uniform matrix, at every block width."""
    sampled, flagged = [], []

    def sample(n, q, seeds, first=0):
        sampled.append((n, first, seeds))
        return sample_trace_matrix(n, q, seeds, first)

    def flag(v, first=0, tail=None):
        flagged.append((first, v.shape, tail))
        return event_flag_matrix(v, first, tail)

    monkeypatch.setattr(sweeps, "sample_trace_matrix", sample)
    monkeypatch.setattr(sweeps, "event_flag_matrix", flag)
    for n, q, alpha in ((2000, 0.75, 0.55), (3000, "critical", 2 / 3), (10**4, 0.95, 2 / 3)):
        q = resolve_q_token(q, n)[0]
        cfg = make_config(experiment="separator", n_list=[n], q_grid=[q], alpha=alpha)
        k_lo, k_hi = alpha_cut_range(n, alpha)
        monkeypatch.setattr(sweeps, "_WINDOW_GATE", math.inf)
        reach, seeds = _position_reach(q), derive_array(5, np.arange(64, dtype=np.uint64))
        t = sweeps._window_thresholds(n, q, k_lo, k_hi)
        u = uniform_matrix(seeds, n)
        hit = np.ones((64, k_hi - k_lo + 1), dtype=bool)
        for j in range(len(t) + 1):
            hit &= u[:, k_lo - 1 + j : k_hi + j] < t[max(j, 1) - 1]
        r, c = np.nonzero(hit)
        want = np.sort(seed_array(seeds[r], c))
        assert want.size or q == 0.95
        for width in (7, 16, 17, 1000, 2**16):
            monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", 64 * width)
            sampled.clear()
            flagged.clear()
            _separator_trial_fn(monkeypatch, cfg, n, q)(seeds)
            busy = {*(c // width).tolist(), (k_hi - k_lo) // width}
            assert len(sampled) == len(flagged) == len(busy), (n, q, width)
            assert {s[:2] for s in sampled} == {(k_lo + reach, k_lo - 1)}
            got = np.sort(np.concatenate([s[2] for s in sampled]))
            assert np.array_equal(got, want), (n, q, width)
            for (first, shape, (tail_d, tail_v)), s in zip(flagged, sampled):
                assert first == k_lo - 1 and shape == (len(s[2]), reach + 1)
                assert set(tail_d.tolist()) <= {k_lo} and set(tail_v.tolist()) <= {reach + 1}


# --- pooled block workspaces ---


def _workspace_cells(n, threads):
    """A separator cell in blocks, one on windows and a sampled flush-validate
    cell, each of three chunks (64, 64 and 2 traces)."""
    q_exist, q_nonexist = resolve_q_token("critical+-3margin", n)
    sep = make_config(experiment="separator", n_list=[n], q_grid=[q_exist], trials=130,
                      master_seed=6, thread_count=threads)
    flush = dataclasses.replace(sep, experiment="flush-validate", k_fracs=(0.35, 0.5, 0.7))
    return [(sep, q_exist), (sep, q_nonexist), (flush, q_exist)]


@pytest.mark.parametrize("threads", [1, 2])
def test_pooled_workspaces_keep_trial_outputs(monkeypatch, threads):
    """Per-trial separator counts on both routes and sampled flush-validate
    columns are the same whether each block reuses a pooled workspace or
    gets fresh arrays (reusing made a null context), over block sizes that
    shrink and grow in one process."""
    n = 10**4
    cells = _workspace_cells(n, threads)
    routes = [_route(monkeypatch, cfg, n, q) for cfg, q in cells[:2]]
    assert routes == [{"_flag_blocks"}, {"_window_cuts"}]
    for entries in (2**17, 64 * 7, 64 * 1000, 2**16):
        monkeypatch.setattr(sweeps, "_BLOCK_ENTRIES", entries)
        for cfg, q in cells:
            pooled = _cell_trials(cfg, n, q)
            with monkeypatch.context() as m:
                m.setattr(sweeps, "reusing", lambda ws: contextlib.nullcontext())
                fresh = _cell_trials(cfg, n, q)
            assert np.array_equal(pooled, fresh), (entries, cfg.experiment, q)
    assert sweeps._WORKSPACES and all(sweeps._WORKSPACES)


def test_calls_outside_a_block_return_fresh_memory():
    """uniform_matrix, sample_trace_matrix and event_flag_matrix called twice
    return arrays that share no memory, unless a workspace is active."""
    seeds = np.arange(3, dtype=np.uint64)
    v = sample_trace_matrix(1000, 0.5, seeds)
    calls = (lambda: uniform_matrix(seeds, 1000), lambda: sample_trace_matrix(1000, 0.5, seeds),
             lambda: event_flag_matrix(v)["cut"])
    for call in calls:
        assert not np.shares_memory(call(), call())
        with sweeps.reusing({}):
            assert np.shares_memory(call(), call())
        assert not np.shares_memory(call(), call())


def test_a_failed_block_leaves_no_active_workspace(monkeypatch):
    """After a trial raises inside a block, its thread has no active
    workspace: the next uniform_matrix returns fresh memory."""
    def refuse(v, first=0, tail=None):
        event_flag_matrix(v, first, tail)
        raise CapabilityError("refused")

    monkeypatch.setattr(sweeps, "event_flag_matrix", refuse)
    with pytest.raises(CapabilityError, match="refused"):
        run_sweep(small_cfg(n_list=[1000], q_grid=[0.5], trials=10, thread_count=1))
    seeds = np.arange(3, dtype=np.uint64)
    assert not np.shares_memory(uniform_matrix(seeds, 1000), uniform_matrix(seeds, 1000))


@pytest.mark.parametrize("threads", [1, 2])
def test_free_list_holds_a_workspace_per_running_chunk(monkeypatch, threads):
    """After a sweep of several chunks per cell, on both routes and the
    flush-validate cell, the free list holds one workspace per thread at most."""
    monkeypatch.setattr(sweeps, "_WORKSPACES", [])
    for cfg, q in _workspace_cells(10**4, threads):
        run_sweep(dataclasses.replace(cfg, q_grid=(q,)))
    assert 1 <= len(sweeps._WORKSPACES) <= threads


def test_pooled_workspaces_hold_under_thread_switching(monkeypatch):
    """Four threads switching every microsecond over ten chunks per cell get
    the one-thread trials, so no workspace serves two chunks at once, and
    give back distinct workspaces, one per thread at most."""
    monkeypatch.setattr(sweeps, "_WORKSPACES", [])
    switch = sys.getswitchinterval()
    for cfg, q in _workspace_cells(10**4, 1):
        cfg = dataclasses.replace(cfg, trials=640)
        want = _cell_trials(cfg, 10**4, q)
        sys.setswitchinterval(1e-6)
        try:
            got = _cell_trials(dataclasses.replace(cfg, thread_count=4), 10**4, q)
        finally:
            sys.setswitchinterval(switch)
        assert np.array_equal(got, want), (cfg.experiment, q)
    assert len({id(ws) for ws in sweeps._WORKSPACES}) == len(sweeps._WORKSPACES) <= 4
