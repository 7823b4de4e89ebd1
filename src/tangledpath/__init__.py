"""Tangled paths: random graphs built from q-Mallows permutations.

A tangled path on n vertices is the union of the path 1-2-...-n with its
image under a Mallows-distributed permutation.  This package samples them
reproducibly, detects the insertion-trace events that govern their structure
(flush, reverse flush, cut vertices, local and sparse flush), evaluates the
exact event probabilities and the analytic bounds around them, computes
graph-width quantities (treewidth, cutwidth, isoperimetric ratios, diameter),
and drives deterministic Monte Carlo sweeps over (n, q) grids.
"""

# The package's one version string: pyproject.toml and the sweep metadata
# read it.  Defined before the submodule imports so they can import it.
__version__ = "0.1.0"

from .errors import CapabilityError, StatisticalCheckError
from .events import (
    CutProbWindow,
    EventReport,
    ThresholdWindow,
    b_value,
    cut_event_probs,
    cut_prob_window,
    cut_vertices_from_trace,
    detect_events,
    event_flag_matrix,
    expected_cuts,
    expected_cuts_in_range,
    flush_cheap_bound,
    flush_log_bounds,
    flush_prob,
    reverse_flush_prob,
    sparse_flush_holds,
    threshold_window,
)
from .graph import (
    TangledGraph,
    articulation_points,
    bfs_distances,
    build_tangled,
    diameter,
    format_edge_list,
    make_graph,
    parse_edge_list,
)
from .mallows import (
    ENUMERATION_CAP,
    InsertionTrace,
    Permutation,
    displacement_samples,
    format_permutation,
    format_trace,
    mallows_process,
    parse_permutation,
    parse_trace,
    sample_trace,
    sample_trace_matrix,
    trace_table,
)
from .rng import derive, derive_array, mix64, stream_u64, uniform_matrix
from .sweeps import (
    SweepConfig,
    SweepResult,
    SweepRow,
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
)
from .widths import (
    EXACT_CAP,
    WidthReport,
    build_width_report,
    cutwidth_exact,
    cutwidth_identity,
    edge_iso,
    treewidth_bounds,
    treewidth_exact,
    unit_separator,
    vertex_iso,
)
