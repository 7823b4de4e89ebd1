"""The benchmark workloads, each a closed loop of jobs with one caller.

A workload is built from the workload seed.  ``job(i, threads)`` is the timed
part: it calls the public API of ``tangledpath`` through module attributes
looked up at call time (``mallows.sample_trace``, not a name imported once),
so the traced run can wrap those attributes.  ``check(i, raw)`` runs after
the clock stops; it returns the units of work done, a deterministic output
text and the failed checks.  Jobs with the same ``input_key`` must return
the same text, which the runner checks through its SHA-256 digest.

Checks call the library through the names bound below at import, before any
wrapping, so the traced run does not count their calls.

Why each workload exists, and which modules it stresses, is in README.md.
"""

from __future__ import annotations

from importlib import import_module

import numpy as np

events = import_module("tangledpath.events")
graph = import_module("tangledpath.graph")
mallows = import_module("tangledpath.mallows")
rng = import_module("tangledpath.rng")
sweeps = import_module("tangledpath.sweeps")
widths = import_module("tangledpath.widths")

_bfs_distances = graph.bfs_distances
_build_tangled = graph.build_tangled
_diameter = graph.diameter
_mallows_process = mallows.mallows_process
_sample_trace_matrix = mallows.sample_trace_matrix


def _sweep_check(result, unit_of) -> tuple[int, str, list[str]]:
    cells = {(r.n, r.q): r.trials for r in result.rows}
    problems = [
        f"n={r.n} q={r.q!r} {r.stat}: mean={r.mean!r} exact={r.exact!r} stderr={r.stderr!r}"
        for r in result.failing_rows()
    ]
    units = sum(unit_of(n, trials) for (n, _), trials in cells.items())
    return units, sweeps.render_csv(result), problems


class Separator:
    """The threshold experiment of criterion 07: traces only, no graphs.

    Every job repeats the same two cells.  The sweep's cut-count row is a
    4-stderr band check, so each fresh draw has a small chance of a false
    alarm; one draw per seed keeps that chance to one band check per seed.
    Its cost depends on n and the trial count, not on the draw.
    """

    name = "separator"
    unit = "trace entries"
    threads = 2
    required = (
        "sweeps.run_sweep",
        "rng.uniform_matrix",
        "mallows.sample_trace_matrix",
        "events.event_flag_matrix",
    )
    N = 10**5
    TRIALS = 80  # eight chunks of ten traces per cell at n = 10^5

    def __init__(self, seed: int) -> None:
        self.master = rng.derive(seed, 7)

    def input_key(self, i: int) -> int:
        return 0

    def job(self, i: int, threads: int):
        cfg = sweeps.make_config(
            experiment="separator",
            n_list=[self.N],
            q_grid=["critical+-3margin"],
            trials=self.TRIALS,
            master_seed=self.master,
            thread_count=threads,
        )
        return sweeps.run_sweep(cfg)

    def check(self, i: int, result) -> tuple[int, str, list[str]]:
        return _sweep_check(result, lambda n, trials: n * trials)


class Diameter:
    """Diameter sweep with one n on each side of the all-pairs cutover (256).

    Each sweep graph's diameter is checked by a route the sweep did not
    take: scipy all-pairs at n = 200, and at n = 2000 the double-sweep lower
    bound and twice an eccentricity as upper bound, from the in-package BFS.
    The sweep's trial t of cell c is seeded by derive(master_seed, c, t).

    Each job also makes criterion 04's comparison on 10 traces (n = 50,
    q = 0.7): cut vertices read off the trace against the graph's
    articulation points; and the exact width report of ``tangled analyze``
    on one n = 12 graph (q alternating 0.5 and 0.9), with its provable chain
    tw <= cw <= cwid <= |E|.  That keeps every graph and width function
    traced and checked at about 1% of the job's time; these graphs are not
    counted as units.
    """

    name = "diameter"
    unit = "graphs"
    threads = 1
    required = (
        "sweeps.run_sweep",
        "mallows.process",
        "graph.diameter_n200",
        "graph.diameter_n2000",
        "mallows.sample_trace",
        "graph.build_tangled",
        "graph.articulation_points",
        "events.cut_vertices_from_trace",
        "widths.treewidth_exact",
        "widths.cutwidth_exact",
        "widths.vertex_iso",
        "widths.edge_iso",
    )
    N_LIST = (200, 2000)
    Q_GRID = (0.5, 0.9)
    CUT_N, CUT_Q, CUT_TRACES = 50, 0.7, 10
    SMALL_N = 12
    SMALL_QS = (0.5, 0.9)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def input_key(self, i: int) -> int:
        return i

    def job(self, i: int, threads: int):
        cfg = sweeps.make_config(
            experiment="diameter",
            n_list=list(self.N_LIST),
            q_grid=list(self.Q_GRID),
            trials=1,
            master_seed=rng.derive(self.seed, 3, i),
            thread_count=threads,
        )
        result = sweeps.run_sweep(cfg)
        cuts = []
        for t in range(i * self.CUT_TRACES, (i + 1) * self.CUT_TRACES):
            trace = mallows.sample_trace(self.CUT_N, self.CUT_Q, rng.derive(self.seed, self.CUT_N, t))
            g = graph.build_tangled(mallows.mallows_process(trace))
            cuts.append((graph.articulation_points(g), events.cut_vertices_from_trace(trace)))
        q = self.SMALL_QS[i % len(self.SMALL_QS)]
        trace = mallows.sample_trace(self.SMALL_N, q, rng.derive(self.seed, self.SMALL_N, i))
        rep = widths.build_width_report(graph.build_tangled(mallows.mallows_process(trace)), exact=True)
        return cfg, result, cuts, (q, rep)

    def check(self, i: int, raw) -> tuple[int, str, list[str]]:
        cfg, result, cuts, (q, rep) = raw
        units, output, problems = _sweep_check(result, lambda n, trials: trials)
        problems += self._check_diameters(cfg.master_seed, result)
        for t, (from_graph, from_trace) in enumerate(cuts):
            if from_trace != from_graph:
                problems.append(
                    f"job {i} trace {t}: trace says cuts {sorted(from_trace)}, graph says {sorted(from_graph)}"
                )
        record = (
            [tuple(sorted(c)) for c, _ in cuts], q, rep.treewidth, rep.cutwidth_exact,
            rep.cutwidth_identity, rep.edge_count, str(rep.vertex_iso), str(rep.edge_iso),
        )
        # The provable links only; floor(iso * n) - 1 <= tw is false in general.
        if not rep.treewidth <= rep.cutwidth_exact <= rep.cutwidth_identity <= rep.edge_count:
            problems.append(f"job {i}: width chain broken: tw, cw, cwid, |E| = {record[2:6]}")
        return units, output + repr(record), problems

    def _check_diameters(self, master_seed: int, result) -> list[str]:
        problems = []
        reported = {(r.n, r.q): r.mean for r in result.rows if r.stat == "diameter"}
        cells = [(n, q) for n in self.N_LIST for q in self.Q_GRID]
        for cell, (n, q) in enumerate(cells):
            seeds = np.array([rng.derive(master_seed, cell, 0)], dtype=np.uint64)
            v = _sample_trace_matrix(n, q, seeds)[0]
            g = _build_tangled(_mallows_process([int(x) for x in v]))
            if n <= 256:
                low = high = _diameter(g, method="sparse")
            else:
                first = _bfs_distances(g, 1)
                far = max(range(n), key=first.__getitem__) + 1
                low, high = max(_bfs_distances(g, far)), 2 * max(first)
            if not low <= reported[(n, q)] <= high:
                problems.append(f"n={n} q={q}: diameter {reported[(n, q)]} outside [{low}, {high}]")
        return problems


WORKLOADS = {w.name: w for w in (Separator, Diameter)}
