"""The import boundary: graph.py is the only module that imports scipy, on
the first call that traverses a graph.  Each test runs a fresh interpreter,
since this process has long since loaded scipy."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tangledpath
from test_sweeps import GOLDEN_CSV_DIGESTS

SRC = Path(tangledpath.__file__).resolve().parent.parent


def _run_fresh(script: str) -> list:
    """Run ``script`` in a new interpreter importing this tangledpath; return
    the JSON its last output line holds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_trace_only_work_never_loads_scipy():
    """Sampling, events, exact probabilities, the cut check on a built graph,
    the trace-only sweep cells and the trace-only CLI commands run on numpy
    alone; the first diameter loads scipy."""
    loaded_before, loaded_after = _run_fresh("""
        import contextlib, io, json, sys
        import numpy as np
        import tangledpath
        from tangledpath import (
            articulation_points, build_tangled, diameter, event_flag_matrix,
            expected_cuts_in_range, flush_prob, mallows_process, sample_trace,
        )
        from tangledpath.cli import main
        from tangledpath.sweeps import make_config, run_sweep

        trace = sample_trace(300, 0.7, seed=1)
        event_flag_matrix(np.array([trace.positions]))
        flush_prob(300, 100, 0.7)
        expected_cuts_in_range(300, 0.7, 100, 200)
        g = build_tangled(mallows_process(trace))
        articulation_points(g)
        # n = 10^4 at q = 0.9 counts on candidate windows, the other cells in blocks
        run_sweep(make_config(experiment="separator", n_list=[300, 10**4],
                              q_grid=[0.5, 0.9, "critical"], trials=130, thread_count=2))
        run_sweep(make_config(experiment="flush-validate", n_list=[300], q_grid=[0.5, 1.0],
                              k_fracs=[0.3, 0.6], trials=130, thread_count=2))
        run_sweep(make_config(experiment="displacement", n_list=[300], q_grid=[0.6],
                              trials=130, t_list=[1, 3], thread_count=2))
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["sample", "--n", "8", "--q", "0.5", "--seed", "7", "--emit", "both"],
                ["graph", "--trace", "1 2 1 3 2 5", "--q", "0.5"],
                ["events", "--trace", "1 1 3 2 1 5 5 2", "--q", "0.5", "--sparse", "2:1:4"],
                ["prob", "flush", "--n", "9", "--k", "5", "--q", "0.5", "--bounds"],
                ["prob", "expected", "--n", "300", "--q", "0.7"],
                ["prob", "cut", "--n", "300", "--k", "150", "--q", "0.7", "--bounds"],
            ):
                assert main(argv) == 0, argv
        before = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
        diameter(g)
        print(json.dumps([before, "scipy.sparse.csgraph" in sys.modules]))
    """)
    assert loaded_before == []
    assert loaded_after


def test_width_work_never_loads_scipy():
    """The width and expansion cells on both sides of the exact cap, the
    exact width report, the treewidth bounds, the unit separator and
    `tangled analyze` without diam run on numpy alone."""
    loaded = _run_fresh("""
        import contextlib, io, json, sys
        from tangledpath import (
            build_tangled, build_width_report, mallows_process, sample_trace,
            treewidth_bounds, unit_separator,
        )
        from tangledpath.cli import main
        from tangledpath.sweeps import make_config, run_sweep

        g = build_tangled(mallows_process(sample_trace(12, 0.9, seed=1)))
        build_width_report(g, exact=True)
        unit_separator(g, 2 / 3)
        treewidth_bounds(build_tangled(mallows_process(sample_trace(200, 0.9, seed=2))))
        for experiment in ("width", "expansion"):
            run_sweep(make_config(experiment=experiment, n_list=[12, 40], q_grid=[0.5, 0.9],
                                  trials=6, thread_count=2))
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["analyze", "--n", "16", "--q", "0.9", "--seed", "1",
                    "--metrics", "tw,cw,cwid,iso,cuts"]
            assert main(argv) == 0
        print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
    """)
    assert loaded == []


@pytest.mark.parametrize("experiment", ["diameter", "width"])
def test_first_scipy_import_inside_sweep_threads(experiment):
    """A diameter cell's first traversal, and so the scipy import, happens in
    two worker threads at once; a width cell, which loads no scipy, runs in
    the same two threads.  Each CSV equals the one-thread run's, and the
    golden digest holds in the same process."""
    digest, raw = next((d, raw) for d, raw in GOLDEN_CSV_DIGESTS.items()
                       if raw["experiment"] == experiment)
    fresh_before, same, got = _run_fresh(f"""
        import dataclasses, hashlib, json, sys
        from tangledpath.sweeps import make_config, render_csv, run_sweep

        golden = make_config(master_seed=11, thread_count=2, **{raw!r})
        wide = dataclasses.replace(golden, trials=130)  # three chunks of trials per cell
        fresh = "scipy" not in sys.modules
        two = render_csv(run_sweep(wide))
        one = render_csv(run_sweep(dataclasses.replace(wide, thread_count=1)))
        got = hashlib.sha256(render_csv(run_sweep(golden)).encode()).hexdigest()
        print(json.dumps([fresh, two == one, got]))
    """)
    assert fresh_before
    assert same
    assert got == digest
