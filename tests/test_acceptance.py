"""Acceptance gate: one test per shipped guarantee, run at full scale.

Each test emits exactly one "criterion NN PASS|FAIL <name>" line (to
stderr, and to acceptance_report.txt at the repository root, so the full
scoreboard survives pytest's output capture) and then asserts.  The report
file is rewritten only by a run in which all 12 criteria reported.
Tolerances, sample sizes, and runtime budgets are stated inline; nothing
here is scaled down from the values the guarantee names.
"""

import dataclasses
import itertools
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tangledpath import (
    InsertionTrace,
    articulation_points,
    bad_edge_classification,
    build_tangled,
    contains_consecutively,
    cut_event_probs,
    cut_vertices_from_trace,
    cutwidth_exact,
    cutwidth_identity,
    detect_events,
    diameter,
    displacement_samples,
    enumerate_traces,
    euler_log_product,
    event_flag_matrix,
    expected_cuts,
    flush_cheap_bound,
    flush_log_bounds,
    flush_prob,
    mallows_pmf,
    mallows_process,
    parse_trace,
    reverse,
    reverse_flush_prob,
    sample_trace,
    sample_trace_matrix,
    standardize,
    threshold_window,
    treewidth_exact,
    tv_distance_to_uniform,
    vertex_iso,
)
from tangledpath.events import alpha_cut_range
from tangledpath.rng import derive, derive_array
from tangledpath.sweeps import make_config, render_csv, run_sweep
from conftest import SplitMix64

MASTER = 20260823
REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
CRITERIA = 12
_REPORTED: dict[int, str] = {}


@pytest.fixture(scope="module", autouse=True)
def _full_report():
    # A partial run (say -k criterion_04) leaves the committed report alone.
    _REPORTED.clear()
    yield
    if len(_REPORTED) == CRITERIA:
        REPORT_PATH.write_text("".join(_REPORTED[k] + "\n" for k in sorted(_REPORTED)))


def report(num, name, ok, budget_s, elapsed_s, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"; {detail}" if detail else ""
    line = (
        f"criterion {num:02d} {status} {name} "
        f"[{elapsed_s:.1f}s / budget {budget_s:.0f}s{tail}]"
    )
    print(line, file=sys.__stderr__, flush=True)
    _REPORTED[num] = line
    assert ok, line


def test_criterion_01_figure_goldens():
    t0 = time.perf_counter()
    ok_a = mallows_process(parse_trace("1,2,1,3,2,5", 0.5)).image == (3, 5, 1, 4, 6, 2)

    ok_b = detect_events(parse_trace("1,1,2,1,3,1,1,3,2", 0.5)).flush[4]

    rep = detect_events(parse_trace("1,1,3,2,1,1,1,3,2", 0.5))
    ok_c = rep.cut_set == (5,) and rep.cut_forward[4]

    ok_d = standardize((5, 7, 4, 2, 9)).image == (3, 4, 2, 1, 5) and (
        contains_consecutively((1, 3, 5, 7, 4, 2, 9, 6, 8), (3, 4, 2, 1, 5)) == 3
    )

    trace = parse_trace("1,1,2,4,2,1,3,1,5,1,2,3,1,2,1", 0.5)
    sigma = mallows_process(trace).image
    bad, a3, b3, c3 = bad_edge_classification(trace, 3, 3, 8)
    ok_e = (
        sigma == (15, 13, 14, 10, 11, 12, 8, 6, 2, 7, 9, 5, 3, 1, 4)
        and len(bad) == 3
        and a3 == (4, 9)
        and b3 == (5, 6, 7, 8, 10, 11)
        and c3 == (12, 13, 14, 15)
    )

    elapsed = time.perf_counter() - t0
    ok = all([ok_a, ok_b, ok_c, ok_d, ok_e]) and elapsed < 1.0
    parts = "abcde"
    flags = [ok_a, ok_b, ok_c, ok_d, ok_e]
    detail = "all five exact" if all(flags) else (
        "failed: " + ",".join(p for p, f in zip(parts, flags) if not f)
    )
    report(1, "figure-goldens", ok, 1.0, elapsed, detail)


def test_criterion_02_process_law_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        for q in (0.2, 0.5, 0.9, 1.0):
            acc: dict = {}
            for trace, w in enumerate_traces(n, q):
                img = reverse(mallows_process(trace)).image
                acc[img] = acc.get(img, 0.0) + w
            for perm in itertools.permutations(range(1, n + 1)):
                err = abs(acc.get(perm, 0.0) - mallows_pmf(perm, q))
                worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(2, "process-law-equivalence", ok, 5.0, elapsed, f"max |err| {worst:.2e}")


def test_criterion_03_sampler_distribution():
    t0 = time.perf_counter()
    n, q, trials = 4, 0.5, 10**6
    seeds = derive_array(derive(MASTER, 3), np.arange(trials, dtype=np.uint64))
    batch = sample_trace_matrix(n, q, seeds)
    # mixed-radix index over (v2, v3, v4); v1 is always 1
    idx = ((batch[:, 1] - 1) * 3 + (batch[:, 2] - 1)) * 4 + (batch[:, 3] - 1)
    counts = np.bincount(idx, minlength=24).astype(float) / trials

    emp: dict = {}
    exact: dict = {}
    for trace, w in enumerate_traces(n, q):
        v = trace.positions
        i = ((v[1] - 1) * 3 + (v[2] - 1)) * 4 + (v[3] - 1)
        img = reverse(mallows_process(trace)).image
        emp[img] = emp.get(img, 0.0) + counts[i]
        exact[img] = exact.get(img, 0.0) + w
    tv = 0.5 * sum(abs(emp.get(p, 0.0) - exact[p]) for p in exact)
    elapsed = time.perf_counter() - t0
    ok = tv <= 0.01 and elapsed < 10.0
    report(3, "sampler-tv", ok, 10.0, elapsed, f"TV {tv:.5f} over {trials} samples")


def test_criterion_04_cut_characterization():
    t0 = time.perf_counter()
    mismatches = 0

    for combo in itertools.product(*[range(1, i + 1) for i in range(1, 8)]):
        trace = InsertionTrace(combo, 0.5)
        if cut_vertices_from_trace(trace) != articulation_points(
            build_tangled(mallows_process(trace))
        ):
            mismatches += 1

    for n in (50, 200):
        for trial in range(10**4):
            trace = sample_trace(n, 0.7, derive(MASTER, 4, n, trial))
            if cut_vertices_from_trace(trace) != articulation_points(
                build_tangled(mallows_process(trace))
            ):
                mismatches += 1

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report(
        4,
        "cut-characterization",
        ok,
        30.0,
        elapsed,
        f"{mismatches} mismatches over 5040 + 2x10^4 traces",
    )


def test_criterion_05_exact_formula_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 8):
        base = None
        for q in (0.2, 0.5, 0.8):
            rows = []
            ws = []
            for trace, w in enumerate_traces(n, q):
                rows.append(trace.positions)
                ws.append(w)
            arr = np.asarray(rows, dtype=np.int64)
            wv = np.asarray(ws)
            if base is None:
                base = event_flag_matrix(arr)
            flags = base
            for k in range(1, n + 1):
                worst = max(
                    worst,
                    abs(float(wv @ flags["flush"][:, k - 1]) - flush_prob(n, k, q)),
                    abs(
                        float(wv @ flags["reverse_flush"][:, k - 1])
                        - reverse_flush_prob(n, k, q)
                    ),
                )
            for k in range(2, n):
                pf, pr = cut_event_probs(n, k, q)
                worst = max(
                    worst,
                    abs(float(wv @ flags["cut_forward"][:, k - 1]) - pf),
                    abs(float(wv @ flags["cut_reverse"][:, k - 1]) - pr),
                )
            k_lo, k_hi = alpha_cut_range(n, 2 / 3)
            k_lo, k_hi = max(k_lo, 1), min(k_hi, n)
            cut_any = (
                flags["cut_forward"][:, k_lo - 1 : k_hi]
                | flags["cut_reverse"][:, k_lo - 1 : k_hi]
            )
            worst = max(
                worst,
                abs(float(wv @ cut_any.sum(axis=1)) - expected_cuts(n, q, 2 / 3)),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    report(5, "exact-formula-oracle", ok, 30.0, elapsed, f"max |err| {worst:.2e}")


def test_criterion_06_monte_carlo_vs_closed_form():
    t0 = time.perf_counter()
    checks = []

    n, k, q, trials = 100, 50, 0.9, 10**5
    hits = 0
    chunk = 10**4
    for start in range(0, trials, chunk):
        seeds = derive_array(
            derive(MASTER, 6, 0), np.arange(start, start + chunk, dtype=np.uint64)
        )
        flags = event_flag_matrix(sample_trace_matrix(n, q, seeds))
        hits += int(flags["flush"][:, k - 1].sum())
    p = flush_prob(n, k, q)
    emp = hits / trials
    # the exact-based binomial deviation keeps the band honest when the
    # rare event draws zero hits and the empirical stderr degenerates
    stderr = max(
        math.sqrt(emp * (1 - emp) / trials), math.sqrt(p * (1 - p) / trials)
    )
    checks.append(("flush", abs(emp - p), 4 * stderr))

    nn, alpha, trials_x = 1000, 2 / 3, 10**4
    k_lo, k_hi = alpha_cut_range(nn, alpha)
    for qi, qq in enumerate((0.3, 0.5, 0.7)):
        counts = np.empty(trials_x)
        chunk = 2000
        for start in range(0, trials_x, chunk):
            seeds = derive_array(
                derive(MASTER, 6, 1 + qi),
                np.arange(start, start + chunk, dtype=np.uint64),
            )
            flags = event_flag_matrix(sample_trace_matrix(nn, qq, seeds))
            cut_any = (
                flags["cut_forward"][:, k_lo - 1 : k_hi]
                | flags["cut_reverse"][:, k_lo - 1 : k_hi]
            )
            counts[start : start + chunk] = cut_any.sum(axis=1)
        exact = expected_cuts(nn, qq, alpha)
        stderr = float(np.std(counts, ddof=1)) / math.sqrt(trials_x)
        checks.append((f"X_n(q={qq})", abs(float(counts.mean()) - exact), 4 * stderr))

    elapsed = time.perf_counter() - t0
    bad = [name for name, err, tol in checks if err > tol]
    ok = not bad and elapsed < 120.0
    detail = "; ".join(f"{name} err {err:.2e} tol {tol:.2e}" for name, err, tol in checks)
    report(6, "monte-carlo-vs-closed-form", ok, 120.0, elapsed, detail)


def test_criterion_07_threshold_reproduction():
    t0 = time.perf_counter()
    n, alpha, trials = 10**5, 0.6, 200
    win = threshold_window(n, 3.0)
    k_lo, k_hi = alpha_cut_range(n, alpha)
    k_lo, k_hi = max(k_lo, 2), min(k_hi, n - 1)

    def separator_fraction(q, tag):
        found = 0
        chunk = 50
        for start in range(0, trials, chunk):
            seeds = derive_array(
                derive(MASTER, 7, tag), np.arange(start, start + chunk, dtype=np.uint64)
            )
            flags = event_flag_matrix(sample_trace_matrix(n, q, seeds))
            cut_any = (
                flags["cut_forward"][:, k_lo - 1 : k_hi]
                | flags["cut_reverse"][:, k_lo - 1 : k_hi]
            )
            found += int(cut_any.any(axis=1).sum())
        return found / trials

    frac_exist = separator_fraction(win.q_exist, 0)
    frac_nonexist = separator_fraction(win.q_nonexist, 1)
    elapsed = time.perf_counter() - t0
    ok = frac_exist >= 0.9 and frac_nonexist <= 0.1 and elapsed < 300.0
    report(
        7,
        "separator-threshold",
        ok,
        300.0,
        elapsed,
        f"Pr at q_exist={win.q_exist:.4f}: {frac_exist:.3f} (need >= 0.9); "
        f"at q_nonexist={win.q_nonexist:.4f}: {frac_nonexist:.3f} (need <= 0.1)",
    )


def test_criterion_08_width_chain_and_monotonicity():
    """The stated chain floor(iso n) - 1 <= tw <= cw <= cwid <= |E| is run
    verbatim.  Its first link is mathematically false in general (an
    8-cycle already violates it), so this criterion is expected to fail
    honestly on that link while every other link holds; see the width
    module tests for the provable corrected form."""
    t0 = time.perf_counter()
    link_violations = [0, 0, 0, 0]
    qs = (0.3, 0.5, 0.7, 0.9)
    for trial in range(100):
        n = 8 + trial % 7
        q = qs[trial % 4]
        trace = sample_trace(n, q, derive(MASTER, 8, trial))
        g = build_tangled(mallows_process(trace), trace=trace)
        iso = vertex_iso(g)
        tw = treewidth_exact(g)
        cw = cutwidth_exact(g)
        cwid, _ = cutwidth_identity(g)
        if math.floor(iso * n) - 1 > tw:
            link_violations[0] += 1
        if tw > cw:
            link_violations[1] += 1
        if cw > cwid:
            link_violations[2] += 1
        if cwid > len(g.edges):
            link_violations[3] += 1

    mono_violations = 0
    rng = SplitMix64(derive(MASTER, 8, 1000))
    for trial in range(100):
        pi = mallows_process(sample_trace(12, 1.0, derive(MASTER, 8, 2000 + trial)))
        k = 3 + trial % 3
        start = int(rng.uniform() * (12 - k))
        pattern = standardize(pi.image[start : start + k])
        if treewidth_exact(build_tangled(pattern)) > treewidth_exact(build_tangled(pi)):
            mono_violations += 1

    elapsed = time.perf_counter() - t0
    ok = (
        sum(link_violations) == 0 and mono_violations == 0 and elapsed < 300.0
    )
    report(
        8,
        "width-chain-and-monotonicity",
        ok,
        300.0,
        elapsed,
        f"chain link violations {link_violations} "
        f"(links: floor(iso n)-1<=tw, tw<=cw, cw<=cwid, cwid<=|E|); "
        f"pattern monotonicity violations {mono_violations}/100",
    )


def test_criterion_09_analytic_bound_containment():
    t0 = time.perf_counter()
    violations = 0
    for n in (20, 200, 2000):
        for k in (n // 4, n // 2):
            for q in (0.3, 0.5, 0.7, 0.9, 0.99):
                lo, hi = flush_log_bounds(n, k, q)
                exact = math.log(flush_prob(n, k, q))
                if not (lo - 1e-9 <= exact <= hi + 1e-9):
                    violations += 1
                if flush_cheap_bound(n, k, q) < flush_prob(n, k, q) - 1e-9:
                    violations += 1
    qs = [round(0.1 + 0.05 * i, 2) for i in range(18)] + [0.96, 0.97, 0.98, 0.99]
    for q in qs:
        mid = euler_log_product(q) - math.pi**2 / (6 * math.log(q)) + math.log(1 - q) / 2
        if not (
            q * math.log(q) / (6 * (1 - q)) - 1e-9
            <= mid
            <= -(1 - q) / (q * math.log(q)) + 1e-9
        ):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    report(9, "analytic-bounds", ok, 10.0, elapsed, f"{violations} violations")


def test_criterion_10_tail_bounds():
    t0 = time.perf_counter()
    n, q, i, trials = 200, 0.8, 100, 10**5
    disp = displacement_samples(n, q, i, trials, derive(MASTER, 10))
    disp_fail = 0
    for t in range(1, 21):
        emp = float(np.mean(disp >= t))
        stderr = math.sqrt(emp * (1 - emp) / trials)
        if emp > 2 * q**t + 4 * stderr:
            disp_fail += 1

    tv_fail = 0
    for k in range(1, 501):
        for qq in (1 - 1 / (4 * k), 1 - 1 / (8 * k)):
            if tv_distance_to_uniform(k, qq) > 3 * k * (1 - qq):
                tv_fail += 1

    elapsed = time.perf_counter() - t0
    ok = disp_fail == 0 and tv_fail == 0 and elapsed < 120.0
    report(
        10,
        "tail-bounds",
        ok,
        120.0,
        elapsed,
        f"displacement violations {disp_fail}/20; TV violations {tv_fail}/1000",
    )


def test_criterion_11_structural_properties():
    t0 = time.perf_counter()
    problems = []

    diam_bad = 0
    for qi, q in enumerate((0.3, 0.6, 0.9)):
        for trial in range(30):
            trace = sample_trace(500, q, derive(MASTER, 11, qi, trial))
            g = build_tangled(mallows_process(trace), trace=trace)
            if diameter(g) < len(cut_vertices_from_trace(trace)) + 1:
                diam_bad += 1
    if diam_bad:
        problems.append(f"diameter bound failed on {diam_bad}/90 instances")

    trace0 = sample_trace(500, 0.0, derive(MASTER, 11, 99))
    g0 = build_tangled(mallows_process(trace0), trace=trace0)
    small0 = build_tangled(
        mallows_process(sample_trace(16, 0.0, derive(MASTER, 11, 98)))
    )
    if diameter(g0) != 499 or cutwidth_identity(g0)[0] != 1:
        problems.append("q=0 large instance is not the path")
    if treewidth_exact(small0) != 1 or cutwidth_exact(small0) != 1:
        problems.append("q=0 exact widths differ from 1")

    medians = []
    for qi, q in enumerate((0.2, 0.5, 0.8)):
        tws = []
        for trial in range(50):
            trace = sample_trace(18, q, derive(MASTER, 11, 200 + qi, trial))
            tws.append(treewidth_exact(build_tangled(mallows_process(trace))))
        medians.append(float(np.median(tws)))
    if not all(a <= b for a, b in zip(medians, medians[1:])):
        problems.append(f"median treewidth not nondecreasing: {medians}")

    isos = []
    for trial in range(200):
        g = build_tangled(mallows_process(sample_trace(16, 1.0, derive(MASTER, 11, 300, trial))))
        isos.append(vertex_iso(g))
    frac = sum(1 for x in isos if x >= 1 / 40) / len(isos)

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 600.0
    detail = (
        f"tw medians {medians}; iso>=1/40 fraction {frac:.2f} (observational)"
        if not problems
        else "; ".join(problems)
    )
    report(11, "structural-properties", ok, 600.0, elapsed, detail)


def test_criterion_12_reproducibility():
    t0 = time.perf_counter()
    cfg = make_config(
        experiment="separator",
        n_list=[150],
        q_grid=[0.4, 0.8],
        trials=48,
        master_seed=MASTER,
    )
    outputs = {
        t: render_csv(run_sweep(dataclasses.replace(cfg, thread_count=t)))
        for t in (1, 4, 8)
    }
    elapsed = time.perf_counter() - t0
    ok = outputs[1] == outputs[4] == outputs[8] and elapsed < 60.0
    report(
        12,
        "thread-reproducibility",
        ok,
        60.0,
        elapsed,
        "CSV byte-identical at 1/4/8 threads" if ok else "outputs differ",
    )
