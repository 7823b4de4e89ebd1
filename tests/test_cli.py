"""End-to-end CLI checks through main(argv), asserting JSON output and exit codes."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from tangledpath import (
    cut_prob_window,
    cut_vertices_from_trace,
    detect_events,
    flush_prob,
    mallows_process,
    parse_trace,
)
from tangledpath.cli import main
from conftest import enumerate_traces


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_sample_is_deterministic(capsys):
    code, out1, _ = run(capsys, "sample", "--n", "8", "--q", "0.6", "--seed", "42")
    assert code == 0
    code, out2, _ = run(capsys, "sample", "--n", "8", "--q", "0.6", "--seed", "42")
    assert code == 0 and out1 == out2
    code, out3, _ = run(capsys, "sample", "--n", "8", "--q", "0.6", "--seed", "43")
    assert out3 != out1


def test_sample_emit_both_is_consistent(capsys):
    code, out, _ = run(
        capsys, "sample", "--n", "7", "--q", "0.5", "--seed", "9", "--emit", "both"
    )
    assert code == 0
    trace_line, perm_line = out.strip().split("\n")
    assert trace_line.startswith("v = ") and perm_line.startswith("σ = ")
    trace = parse_trace(trace_line.removeprefix("v = "), 0.5)
    assert perm_line.removeprefix("σ = ").split() == [
        str(x) for x in mallows_process(trace).image
    ]


def test_sample_count_gives_distinct_lines(capsys):
    code, out, _ = run(
        capsys, "sample", "--n", "20", "--q", "0.5", "--seed", "1", "--count", "3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3 and len(set(lines)) == 3


@pytest.mark.parametrize("count", ["0", "-2"])
def test_sample_nonpositive_count_is_usage_error(capsys, count):
    code, out, err = run(
        capsys, "sample", "--n", "8", "--q", "0.6", "--seed", "1", "--count", count
    )
    assert code == 2 and out == "" and "--count" in err


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TANGLED_SEED", "42")
    _, out_env, _ = run(capsys, "sample", "--n", "8", "--q", "0.6")
    _, out_flag, _ = run(capsys, "sample", "--n", "8", "--q", "0.6", "--seed", "42")
    assert out_env == out_flag


def test_missing_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("TANGLED_SEED", raising=False)
    code, _, err = run(capsys, "sample", "--n", "8", "--q", "0.6")
    assert code == 2 and "seed" in err


def test_graph_identity_perm_is_path(capsys):
    code, out, _ = run(capsys, "graph", "--perm", "1 2 3 4 5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n=5"
    assert lines[1:] == ["1 2", "2 3", "3 4", "4 5"]


def test_graph_output_ends_in_a_newline(capsys):
    for perm in ("1", "2 4 1 3"):
        code, out, _ = run(capsys, "graph", "--perm", perm)
        assert code == 0 and out.endswith("\n") and not out.endswith("\n\n")


def test_graph_complete_on_four(capsys):
    code, out, _ = run(capsys, "graph", "--perm", "2 4 1 3")
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 6


def test_analyze_figure_trace(capsys):
    doc = run_json(
        capsys,
        "analyze",
        "--trace",
        "1 1 3 2 1 1 1 3 2",
        "--q",
        "0.5",
        "--metrics",
        "cuts,diam",
    )
    assert doc["cuts"] == [5]
    assert doc["n"] == 9 and doc["diam"] >= 2


def test_analyze_widths_on_path(capsys):
    doc = run_json(
        capsys, "analyze", "--perm", "1 2 3 4 5 6", "--metrics", "tw,cw,cwid,iso"
    )
    assert doc["tw"] == 1 and doc["cw"] == 1 and doc["cwid"] == 1
    assert doc["vertex_iso"] == "1/3"


def test_analyze_rejects_unknown_metric(capsys):
    code, _, err = run(
        capsys, "analyze", "--perm", "1 2 3", "--metrics", "tw,bogus"
    )
    assert code == 2 and "bogus" in err


def test_analyze_needs_exactly_one_source(capsys):
    code, _, err = run(capsys, "analyze", "--metrics", "diam")
    assert code == 2
    code, _, err = run(
        capsys,
        "analyze",
        "--perm",
        "1 2 3",
        "--trace",
        "1 1 1",
        "--q",
        "0.5",
        "--metrics",
        "diam",
    )
    assert code == 2


def test_prob_flush_golden(capsys):
    doc = run_json(capsys, "prob", "flush", "--n", "3", "--k", "1", "--q", "0.5")
    assert doc["flush"] == pytest.approx(4 / 7, abs=1e-12)
    assert doc["reverse_flush"] == pytest.approx(0.5**2 * 4 / 7, abs=1e-12)


def test_prob_flush_bounds_contain_log(capsys):
    doc = run_json(
        capsys, "prob", "flush", "--n", "100", "--k", "50", "--q", "0.8", "--bounds"
    )
    b = doc["bounds"]
    assert b["log_lower"] - 1e-9 <= b["log_flush"] <= b["log_upper"] + 1e-9
    assert b["cheap_upper"] >= doc["flush"]


def test_prob_cut_and_expected(capsys):
    doc = run_json(capsys, "prob", "cut", "--n", "9", "--k", "4", "--q", "0.6")
    assert 0 < doc["cut_R"] < doc["cut_F"] < 1
    doc = run_json(capsys, "prob", "expected", "--n", "9", "--q", "0.0")
    assert doc["expected_cuts"] == 4.0 and doc["k_lo"] == 3 and doc["k_hi"] == 6


def test_prob_flush_requires_k(capsys):
    code, _, err = run(capsys, "prob", "flush", "--n", "5", "--q", "0.5")
    assert code == 2 and "--k" in err


def test_events_figure_trace(capsys):
    doc = run_json(capsys, "events", "--trace", "1 1 3 2 1 1 1 3 2", "--q", "0.5")
    assert doc["cut_set"] == [5]
    assert 5 in doc["flush"]
    assert doc["cut_forward"] == [5]


def test_events_sparse_flag(capsys):
    doc = run_json(
        capsys,
        "events",
        "--trace",
        "1 1 1 1 1",
        "--q",
        "0.5",
        "--sparse",
        "1:2:3",
    )
    assert doc["sparse"] == {"1:2:3": True}
    code, _, err = run(
        capsys, "events", "--trace", "1 1 1", "--q", "0.5", "--sparse", "1:2"
    )
    assert code == 2 and "K:B:ELL" in err


def test_events_local_at_q_one_is_refused(capsys):
    code, _, err = run(
        capsys, "events", "--trace", "1 1 2", "--q", "1.0", "--local"
    )
    assert code == 3 and "refused" in err


def test_oracle_flush_matches_formula(capsys):
    doc = run_json(
        capsys, "oracle", "enumerate", "--n", "3", "--q", "1.0", "--event", "flush@1"
    )
    assert doc["enumerated"] == pytest.approx(1 / 3, abs=1e-10)
    assert doc["formula"] == pytest.approx(flush_prob(3, 1, 1.0), rel=1e-12)
    assert doc["abs_error"] < 1e-10


def test_oracle_cut_summary(capsys):
    doc = run_json(
        capsys, "oracle", "enumerate", "--n", "5", "--q", "0.5", "--event", "cut"
    )
    assert doc["enumerated_expected"] == pytest.approx(
        doc["formula_expected"], abs=1e-10
    )
    assert 0 <= doc["enumerated_prob_any"] <= 1


def test_oracle_matches_per_trace_loop(capsys):
    """The flag-matrix oracle against a running total over enumerate_traces,
    with each trace's events read by detect_events and cut_vertices_from_trace."""
    for n in (1, 2, 3, 6):
        for q in (0.0, 0.45, 1.0):
            total = expected = p_any = 0.0
            flush = [0.0] * n
            for trace, w in enumerate_traces(n, q):
                total += w
                cuts = cut_vertices_from_trace(trace)
                expected += w * len(cuts)
                p_any += w * bool(cuts)
                rep = detect_events(trace)
                flush = [f + w * hit for f, hit in zip(flush, rep.flush)]
            base = ["oracle", "enumerate", "--n", str(n), "--q", str(q)]
            doc = run_json(capsys, *base)
            assert doc["total_weight"] == total
            doc = run_json(capsys, *base, "--event", "cut")
            assert doc["enumerated_expected"] == expected
            assert doc["enumerated_prob_any"] == p_any
            for k in range(1, n + 1):
                doc = run_json(capsys, *base, "--event", f"flush@{k}")
                assert doc["enumerated"] == flush[k - 1]


def test_oracle_refuses_large_n(capsys):
    code, _, err = run(capsys, "oracle", "enumerate", "--n", "12", "--q", "0.5")
    assert code == 3 and "refused" in err


def test_oracle_refuses_flush_index_beyond_n(capsys):
    for event in ("flush@9", "flush@0", "flush@-1"):
        code, out, err = run(capsys, "oracle", "enumerate", "--n", "4", "--q", "0.5",
                             "--event", event)
        assert code == 2 and out == "" and f"k={event[6:]} outside" in err, (event, err)


def test_sweep_nan_margin_is_a_config_error_before_any_cell(capsys, tmp_path, monkeypatch):
    import tangledpath.sweeps as sweeps

    monkeypatch.setattr(sweeps, "_run_cell", lambda *a: pytest.fail("a cell ran"))
    cfg = tmp_path / "s.cfg"
    cfg.write_text("experiment = separator\nn_list = 100\nq_grid = critical+nanmargin\n")
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: margin=nan outside") and "cell" not in err


def test_sweep_writes_csv_and_json(capsys, tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "experiment = separator\nn_list = 25\nq_grid = 0.0, 0.5\n"
        "trials = 30\nmaster_seed = 12\n"
    )
    out = tmp_path / "rows.csv"
    code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 0, err
    assert out.exists() and out.with_suffix(".json").exists()
    assert "sweep ok" in err
    header = out.read_text().split("\n", 1)[0]
    assert header.startswith("experiment,n,q,")


def test_exhaustive_sweep_writes_json(capsys, tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "experiment = flush-validate\nn_list = 5\nq_grid = 0.5\n"
        "k_fracs = 0.4, 0.6\nexhaustive = true\n"
    )
    out = tmp_path / "rows.csv"
    code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 0, err
    doc = json.loads(out.with_suffix(".json").read_text())
    freq = [r for r in doc["rows"] if r["stat"].startswith("flush_freq")]
    assert len(freq) == 2
    assert all(r["within_band"] is True and r["trials"] == 120 for r in freq)


def test_sweep_stdout_when_no_out(capsys, tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "experiment = separator\nn_list = 20\nq_grid = 0.5\ntrials = 10\n"
    )
    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert out.startswith("experiment,n,q,")


def test_sweep_bad_config_is_exit_two(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = separator\nn_list = 20\nwat = 1\n")
    code, _, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 2 and "wat" in err
    code, _, _ = run(capsys, "sweep", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2


def test_sweep_band_failure_is_exit_four(capsys, tmp_path, monkeypatch):
    import tangledpath.sweeps as sweeps

    monkeypatch.setattr(sweeps, "expected_cuts_in_range", lambda *a: 999.0)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "experiment = separator\nn_list = 25\nq_grid = 0.5, 0.7\ntrials = 20\n"
    )
    code, _, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 4 and "statistical check failed" in err
    # each failed row is listed once
    assert err.count("cut_count") == 2
    assert err.count("q=0.5 cut_count") == err.count("q=0.7 cut_count") == 1


def test_sampled_instance_matches_its_trace(capsys):
    """graph, analyze and events with --n --q --seed read the trace that
    sample prints for the same flags."""
    sampled = ["--n", "12", "--q", "0.6", "--seed", "5"]
    code, out, _ = run(capsys, "sample", *sampled)
    assert code == 0
    explicit = ["--trace", out.removeprefix("v = ").strip(), "--q", "0.6"]
    for command, *extra in (["graph"], ["analyze", "--metrics", "tw,diam,cuts"], ["events"]):
        code, from_seed, err = run(capsys, command, *sampled, *extra)
        assert code == 0, err
        assert from_seed == run(capsys, command, *explicit, *extra)[1]


@pytest.mark.parametrize("flags, message", [
    (["--perm", "2 1 3", "--q", "0.5"], "--perm conflicts with --q/--seed"),
    (["--perm", "2 1 3", "--seed", "1"], "--perm conflicts with --q/--seed"),
    (["--trace", "1 1 2", "--q", "0.5", "--seed", "1"], "--trace conflicts with --seed"),
    (["--trace", "1 1 2"], "--trace requires --q"),
    (["--n", "5", "--seed", "1"], "--n requires --q"),
])
def test_instance_flag_conflicts_are_usage_errors(capsys, flags, message):
    for command in ("graph", "analyze", "events"):
        extra = ["--metrics", "diam"] if command == "analyze" else []
        code, out, err = run(capsys, command, *flags, *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_non_integer_seed_variable_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("TANGLED_SEED", "abc")
    code, out, err = run(capsys, "sample", "--n", "5", "--q", "0.5")
    assert (code, out, err) == (2, "", "error: TANGLED_SEED='abc' is not an integer\n")
    monkeypatch.setenv("TANGLED_SEED", "0x10")
    assert run(capsys, "sample", "--n", "5", "--q", "0.5")[1] == run(
        capsys, "sample", "--n", "5", "--q", "0.5", "--seed", "16")[1]


@pytest.mark.parametrize("flags, code, stdout, stderr", [
    # below the size hypothesis n >= (100/(1-alpha))^5: the upper end only
    (["--n", "1000", "--k", "500", "--q", "0.9"], 0,
     '{"bounds": {"lower": null, "relaxed": true, "upper": 3.369880699463516e-06}, '
     '"cut_F": 1.2860674342766125e-07, "cut_R": 0.0, "k": 500, "n": 1000, "q": 0.9}\n', ""),
    (["--n", "9", "--k", "4", "--q", "0.6"], 0,
     '{"bounds": {"lower": null, "relaxed": true, "upper": 1.536518997947299}, '
     '"cut_F": 0.0890128244332982, "cut_R": 7.029611769433975e-07, "k": 4, "n": 9, "q": 0.6}\n',
     ""),
    (["--n", "1000", "--k", "2", "--q", "0.9"], 3, "",
     "refused: k=2 outside the cut range [334, 666] for alpha=0.6666666666666666\n"),
    (["--n", "1000", "--k", "500", "--q", "0.999"], 3, "",
     "refused: window needs 1 <= 1/(1-q) <= n^(4/5); got 1000 vs 251.2\n"),
    (["--n", "1000", "--k", "500", "--q", "0.0"], 3, "",
     "refused: window needs 0 < q < 1; got q=0.0\n"),
])
def test_prob_cut_bounds(capsys, flags, code, stdout, stderr):
    assert run(capsys, "prob", "cut", *flags, "--bounds") == (code, stdout, stderr)


def test_prob_cut_bounds_past_the_size_hypothesis(capsys):
    """At n >= (100/(1-alpha))^5 the window claims both ends, and the exact
    Pr[C_k^F] lies inside it."""
    n, k = 3 * 10**12, 15 * 10**11
    strict = cut_prob_window(n, k, 0.9, 2 / 3)
    doc = run_json(capsys, "prob", "cut", "--n", str(n), "--k", str(k), "--q", "0.9", "--bounds")
    assert doc["bounds"] == {"lower": strict.lower, "relaxed": False, "upper": strict.upper}
    assert 0 < strict.lower < doc["cut_F"] < strict.upper


@pytest.mark.parametrize("q", [0.5, 1 - math.pi**2 / (6 * math.log(10**13))])
def test_prob_answers_at_n_1e13(capsys, q):
    """At n = 10^13 each exact sum is a short head of nonzero terms and long
    runs of zero or equal ones, which cost O(log n); Pr[C_k^F] at the middle
    vertex lies in the strict window."""
    n, k = 10**13, 5 * 10**12
    size = ["--n", str(n), "--q", repr(q)]
    flush = run_json(capsys, "prob", "flush", "--k", str(k), *size, "--bounds")
    assert 0 < flush["flush"] < 1 and flush["reverse_flush"] == 0.0
    expected = run_json(capsys, "prob", "expected", *size)
    assert 0 < expected["expected_cuts"] < n
    cut = run_json(capsys, "prob", "cut", "--k", str(k), *size, "--bounds")
    assert cut["bounds"]["relaxed"] is False
    assert cut["bounds"]["lower"] < cut["cut_F"] < cut["bounds"]["upper"]


def test_prob_refuses_past_the_term_cap(capsys):
    """q = 1 - 10^-10 at n = 10^13 needs more nonzero terms than the exact
    cap; the refusal names the cap, as the exit-3 text of the docstring does."""
    import tangledpath.cli as cli

    n = 10**13
    for what in (["flush", "--k", str(n // 2)], ["expected"], ["cut", "--k", str(n // 2)]):
        code, out, err = run(capsys, "prob", *what, "--n", str(n), "--q", "0.9999999999")
        assert (code, out) == (3, "") and err.startswith("refused: "), err
        assert "exact cap of 2^28 = 268435456" in err
    assert "more than 2^28 nonzero terms" in " ".join(cli.__doc__.split())


def test_prob_expected_refuses_k_and_bounds(capsys):
    """prob expected has no --k and no bounds: either flag is a usage error,
    as a missing --k is for prob flush, and the docstring says so."""
    import tangledpath.cli as cli

    for flags in (["--k", "3"], ["--bounds"], ["--k", "3", "--bounds"]):
        code, out, err = run(capsys, "prob", "expected", "--n", "9", "--q", "0.5", *flags)
        assert (code, out, err) == (2, "", "error: prob expected takes neither --k nor --bounds\n")
    assert "refuses ``--k`` and ``--bounds``" in " ".join(cli.__doc__.split())


@pytest.mark.parametrize("n", [10**19, 2 * 10**19, 10**20, 10**30])
@pytest.mark.parametrize("q", [0.5, 1 - math.pi**2 / (6 * math.log(10**19)), 1.0])
def test_prob_expected_past_int64_answers_or_refuses(capsys, n, q):
    """Where k or n - k + 1 would pass 2^63, prob expected refuses (exit 3)
    before building any int64 block; below that it answers.  It never exits
    5, which it did from n = 2 * 10^19 on."""
    code, out, err = run(capsys, "prob", "expected", "--n", str(n), "--q", repr(q))
    if n <= 10**19:
        assert code == 0 and json.loads(out)["expected_cuts"] >= 0.0, err
    else:
        assert (code, out) == (3, "") and "past 2^63" in err, err


def test_prob_expected_refuses_sizes_below_one(capsys):
    for n in ("0", "-5"):
        code, out, err = run(capsys, "prob", "expected", "--n", n, "--q", "0.5")
        assert (code, out, err) == (2, "", f"error: n={n} outside [1, inf]\n")


@pytest.mark.parametrize("kind", ["cut", "flush"])
def test_prob_checks_n_before_k(capsys, kind):
    """A size below 1 is named as n, not as a k outside an empty range."""
    for n in ("0", "-5"):
        code, out, err = run(capsys, "prob", kind, "--n", n, "--k", "1", "--q", "0.5")
        assert (code, out, err) == (2, "", f"error: n={n} outside [1, inf]\n")


def test_out_of_memory_is_a_refusal(capsys, monkeypatch):
    import tangledpath.cli as cli

    def no_room(*args):
        raise MemoryError("Unable to allocate 36.4 TiB")

    monkeypatch.setattr(cli, "flush_prob", no_room)
    code, out, err = run(capsys, "prob", "flush", "--n", "10", "--k", "5", "--q", "0.5")
    assert (code, out, err) == (3, "", "refused: out of memory: Unable to allocate 36.4 TiB\n")


def test_unexpected_error_exits_5_with_its_class(capsys, monkeypatch):
    """An exception of a class main() does not map is a bug: exit 5, one
    line naming its class and message, then the traceback."""
    import tangledpath.cli as cli

    def broken(*args):
        raise RuntimeError("flush table out of step")

    monkeypatch.setattr(cli, "flush_prob", broken)
    code, out, err = run(capsys, "prob", "flush", "--n", "10", "--k", "5", "--q", "0.5")
    lines = err.splitlines()
    assert (code, out) == (5, "")
    assert lines[0] == "internal error: RuntimeError: flush table out of step"
    assert lines[1] == "Traceback (most recent call last):"
    assert lines[-1] == "RuntimeError: flush table out of step"
    assert "5 internal error" in " ".join(cli.__doc__.split())


def test_sweep_threads_flag_and_plot_out(capsys, tmp_path):
    """--threads overrides thread_count without moving a byte of the CSV,
    and a config's plot_out writes one gnuplot block per statistic."""
    plot = tmp_path / "sep.dat"
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"experiment = separator\nn_list = 30\nq_grid = 0.4, 0.8\ntrials = 40\n"
                   f"plot_out = {plot}\n")
    code, serial, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0 and f"wrote {plot}\n" in err
    assert plot.read_text().split("\n", 2)[:2] == ["# stat cut_count", "# n q mean stderr"]
    assert plot.read_text().count("# stat ") == 2
    out = tmp_path / "rows.csv"
    code, _, err = run(capsys, "sweep", "--config", str(cfg), "--threads", "2", "--out", str(out))
    assert code == 0, err
    assert out.read_text() == serial
    assert json.loads(out.with_suffix(".json").read_text())["metadata"]["thread_count"] == 2


_EDGE_NS = (0, 1, 2, 3, 16, 2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63 + 1, 10**30)
_EDGE_QS = ("0", "5e-324", "0.5", repr(1 - 2**-53), "1", "nan", "inf", "-0.0")
_EDGE_ALPHAS = ("0.5", repr(2 / 3), "1", "0.9999999999")


@st.composite
def _edge_argv(draw):
    """A `prob` or `oracle enumerate` argument list at the edge values: n and
    q from their lists, k and flush@K at and past the ends of 1..n, any
    alpha, with and without --bounds."""
    n = draw(st.sampled_from(_EDGE_NS))
    q = draw(st.sampled_from(_EDGE_QS))
    k = draw(st.sampled_from((None, -1, 0, 1, n // 2, n - 1, n, n + 1)))
    if draw(st.booleans()):
        event = draw(st.sampled_from((None, "cut", f"flush@{k}", "flush@x", "bogus")))
        return ["oracle", "enumerate", "--n", str(n), "--q", q] + (
            [] if event is None else ["--event", event])
    what = draw(st.sampled_from(("flush", "cut", "expected")))
    argv = ["prob", what, "--n", str(n), "--q", q]
    if k is not None and (what != "expected" or draw(st.booleans())):
        argv += ["--k", str(k)]
    if draw(st.booleans()):
        argv += ["--alpha", draw(st.sampled_from(_EDGE_ALPHAS))]
    return argv + ["--bounds"] * draw(st.booleans())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_edge_argv())
def test_no_edge_input_is_an_internal_error(argv):
    """Exit 5 marks a bug: every edge-value argument list exits 0, is refused
    as bad input (2) or refused as beyond a capability (3)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag it cannot parse
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
