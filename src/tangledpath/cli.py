"""The ``tangled`` command line tool.

Seven subcommands over the library: ``sample`` (traces and permutations),
``graph`` (edge lists), ``analyze`` (width/diameter/cut metrics as JSON),
``prob`` (exact event probabilities and bounds), ``events`` (per-trace event
flags), ``oracle`` (exhaustive small-n enumeration), and ``sweep`` (the Monte
Carlo harness).

Conventions: stdout carries machine-parseable output only (JSON, or the
documented text formats for traces, permutations, and edge lists); anything
diagnostic goes to stderr.  Exit codes: 0 success, 2 usage or input error,
3 refusal (exact computation beyond its cap, such as a ``prob`` answer that
needs more than 2^28 nonzero terms of log(1 - q^i), which takes n above
about 2*10^8 and 1 - q below about 1.5e-7; or an allocation the memory cannot
hold, printed as ``refused: out of memory: <msg>``), 4 statistical check
failure, 5 internal error (an exception of any other class, a bug: the first
stderr line is ``internal error: <Class>: <msg>``, the traceback follows).
When ``--seed`` is omitted the TANGLED_SEED environment variable is consulted
before giving up.  ``prob flush`` and ``prob cut`` require ``--k``; ``prob
expected`` sums over the alpha cut range and refuses ``--k`` and ``--bounds``
as usage errors, as it has neither an index nor bounds to report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from .errors import CapabilityError, StatisticalCheckError
from .events import (
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
)
from ._util import alpha_cut_range, as_int, trace_order_sum
from .graph import articulation_points, build_tangled, diameter, format_edge_list
from .mallows import (
    InsertionTrace,
    Permutation,
    format_permutation,
    format_trace,
    mallows_process,
    parse_permutation,
    parse_trace,
    sample_trace,
    trace_table,
)
from .rng import derive
from .sweeps import (
    check_bands,
    config_from_file,
    render_csv,
    run_sweep,
    write_csv,
    write_json,
    write_plot_data,
)
from .widths import (
    cutwidth_exact,
    cutwidth_identity,
    edge_iso,
    treewidth_exact,
    vertex_iso,
)

ANALYZE_METRICS = ("tw", "cw", "cwid", "diam", "iso", "cuts")


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("TANGLED_SEED")
    if env is None:
        raise ValueError("no --seed given and TANGLED_SEED is unset")
    try:
        return int(env, 0)
    except ValueError as exc:
        raise ValueError(f"TANGLED_SEED={env!r} is not an integer") from exc


def _load_instance(args) -> InsertionTrace | Permutation:
    """Resolve the instance source flags to a trace, or for --perm a permutation.

    Exactly one of --perm, --trace, --n must be given; --trace needs --q and
    --n needs --q plus a seed.  Conflicting combinations are rejected before
    any work.
    """
    sources = [args.perm is not None, args.trace is not None, args.n is not None]
    if sum(sources) != 1:
        raise ValueError("give exactly one of --perm, --trace, or --n")
    if args.perm is not None:
        if args.q is not None or args.seed is not None:
            raise ValueError("--perm conflicts with --q/--seed")
        return parse_permutation(args.perm)
    if args.trace is not None:
        if args.seed is not None:
            raise ValueError("--trace conflicts with --seed")
        if args.q is None:
            raise ValueError("--trace requires --q")
        return parse_trace(args.trace, args.q)
    if args.q is None:
        raise ValueError("--n requires --q")
    return sample_trace(args.n, args.q, _resolve_seed(args.seed))


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--perm", help="explicit permutation, e.g. '3 5 1 4 6 2'")
    p.add_argument("--trace", help="explicit insertion trace, e.g. '1 2 1 3 2 5'")
    p.add_argument("--n", type=int, help="sample a trace of this length")
    p.add_argument("--q", type=float, help="Mallows parameter in [0, 1]")
    p.add_argument("--seed", type=int, help="sampling seed (fallback: TANGLED_SEED)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_sample(args) -> int:
    as_int(args.count, "--count", 1)
    seed = _resolve_seed(args.seed)
    for i in range(args.count):
        trace = sample_trace(args.n, args.q, derive(seed, i) if args.count > 1 else seed)
        if args.emit in ("trace", "both"):
            print(format_trace(trace))
        if args.emit in ("perm", "both"):
            print(format_permutation(mallows_process(trace)))
    return 0


def cmd_graph(args) -> int:
    sigma = _load_instance(args)
    sigma = mallows_process(sigma) if isinstance(sigma, InsertionTrace) else sigma
    print(format_edge_list(build_tangled(sigma)))
    return 0


def cmd_analyze(args) -> int:
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    bad = [m for m in metrics if m not in ANALYZE_METRICS]
    if bad or not metrics:
        raise ValueError(
            f"unknown metrics {bad}; choose from {','.join(ANALYZE_METRICS)}"
        )
    instance = _load_instance(args)
    trace = instance if isinstance(instance, InsertionTrace) else None
    g = build_tangled(instance if trace is None else mallows_process(trace))
    out: dict = {"n": g.n, "edges": g.indices.size // 2}
    for m in metrics:
        if m == "tw":
            out["tw"] = treewidth_exact(g)
        elif m == "cw":
            out["cw"] = cutwidth_exact(g)
        elif m == "cwid":
            width, profile = cutwidth_identity(g)
            out["cwid"] = width
            out["cwid_profile"] = list(profile)
        elif m == "diam":
            out["diam"] = diameter(g)
        elif m == "iso":
            out["vertex_iso"] = str(vertex_iso(g))
            out["edge_iso"] = str(edge_iso(g))
        elif m == "cuts":
            out["cuts"] = sorted(
                articulation_points(g) if trace is None else cut_vertices_from_trace(trace)
            )
    _emit(out)
    return 0


def cmd_prob(args) -> int:
    n, q = args.n, args.q
    if args.what in ("flush", "cut") and args.k is None:
        raise ValueError(f"prob {args.what} requires --k")
    if args.what == "expected" and (args.k is not None or args.bounds):
        raise ValueError("prob expected takes neither --k nor --bounds")
    if args.what == "flush":
        out = {
            "n": n,
            "k": args.k,
            "q": q,
            "flush": flush_prob(n, args.k, q),
            "reverse_flush": reverse_flush_prob(n, args.k, q),
        }
        if args.bounds:
            lo, up = flush_log_bounds(n, args.k, q)
            out["bounds"] = {
                "log_flush": math.log(out["flush"]) if out["flush"] > 0 else -math.inf,
                "log_lower": lo,
                "log_upper": up,
                "cheap_upper": flush_cheap_bound(n, args.k, q),
            }
    elif args.what == "cut":
        pf, pr = cut_event_probs(n, args.k, q)
        out = {"n": n, "k": args.k, "q": q, "cut_F": pf, "cut_R": pr}
        if args.bounds:
            w = cut_prob_window(n, args.k, q, args.alpha)
            out["bounds"] = {"lower": w.lower, "upper": w.upper, "relaxed": w.lower is None}
    else:  # expected
        k_lo, k_hi = alpha_cut_range(n, args.alpha)
        out = {
            "n": n,
            "q": q,
            "alpha": args.alpha,
            "k_lo": k_lo,
            "k_hi": k_hi,
            "expected_cuts": expected_cuts(n, q, args.alpha),
        }
    _emit(out)
    return 0


def cmd_events(args) -> int:
    trace = _load_instance(args)
    if not isinstance(trace, InsertionTrace):
        raise ValueError("events needs a trace source (--trace or --n), not --perm")
    sparse = []
    for spec in args.sparse or ():
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"--sparse wants K:B:ELL, got {spec!r}")
        try:
            sparse.append(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ValueError(f"--sparse wants integers, got {spec!r}") from exc
    rep = detect_events(trace, local=args.local, sparse=sparse)

    def true_ks(flags) -> list[int]:
        return [k + 1 for k, hit in enumerate(flags) if hit]

    out = {
        "n": rep.n,
        "q": rep.q,
        "flush": true_ks(rep.flush),
        "reverse_flush": true_ks(rep.reverse_flush),
        "cut_forward": true_ks(rep.cut_forward),
        "cut_reverse": true_ks(rep.cut_reverse),
        "cut_set": sorted(rep.cut_set),
    }
    if rep.local_flush is not None:
        out["local_flush"] = true_ks(rep.local_flush)
        out["b"] = rep.b
    if rep.sparse:
        out["sparse"] = {
            f"{k}:{b}:{ell}": held for (k, b, ell), held in sorted(rep.sparse.items())
        }
    _emit(out)
    return 0


def cmd_oracle(args) -> int:
    n, q, event = args.n, args.q, args.event
    if event is not None and event.startswith("flush@"):
        try:
            k = int(event.split("@", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad --event {event!r}") from exc
        formula = flush_prob(n, k, q)  # refuses k outside [1, n]
    elif event not in (None, "cut"):
        raise ValueError(f"unknown --event {event!r}; use flush@K or cut")
    V, w = trace_table(n, q)
    if event is None:
        _emit({"n": n, "q": q, "count": len(w), "total_weight": trace_order_sum(w, 1.0)})
    elif event == "cut":
        cuts = event_flag_matrix(V)["cut"].sum(axis=1)
        _emit(
            {
                "n": n,
                "q": q,
                "event": "cut",
                "enumerated_prob_any": trace_order_sum(w, cuts > 0),
                "enumerated_expected": trace_order_sum(w, cuts),
                "formula_expected": expected_cuts_in_range(n, q, 2, n - 1),
            }
        )
    else:
        p = trace_order_sum(w, event_flag_matrix(V)["flush"][:, k - 1])
        _emit(
            {
                "n": n,
                "q": q,
                "event": f"flush@{k}",
                "enumerated": p,
                "formula": formula,
                "abs_error": abs(p - formula),
            }
        )
    return 0


def cmd_sweep(args) -> int:
    cfg = config_from_file(args.config)
    if args.threads is not None:
        cfg = replace(cfg, thread_count=args.threads)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    result = run_sweep(cfg)
    if cfg.out:
        out = Path(cfg.out)
        write_csv(result, out)
        write_json(result, out.with_suffix(".json"))
        print(f"wrote {out} and {out.with_suffix('.json')}", file=sys.stderr)
    else:
        sys.stdout.write(render_csv(result))
    if cfg.plot_out:
        write_plot_data(result, cfg.plot_out)
        print(f"wrote {cfg.plot_out}", file=sys.stderr)
    check_bands(result)
    print(
        f"sweep ok: {len(result.rows)} rows, all exact-reference bands satisfied",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangled",
        description="Sample, analyze, and validate tangled path graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample insertion traces / permutations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--seed", type=int, help="fallback: TANGLED_SEED")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--emit", choices=("trace", "perm", "both"), default="trace")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("graph", help="emit the tangled graph's edge list")
    _add_instance_flags(p)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("analyze", help="width/diameter/cut metrics as JSON")
    _add_instance_flags(p)
    p.add_argument(
        "--metrics",
        required=True,
        help=f"comma-separated subset of {','.join(ANALYZE_METRICS)}",
    )
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("prob", help="exact event probabilities and bounds")
    p.add_argument("what", choices=("flush", "cut", "expected"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--alpha", type=float, default=2.0 / 3.0)
    p.add_argument("--bounds", action="store_true", help="include analytic bounds")
    p.set_defaults(fn=cmd_prob)

    p = sub.add_parser("events", help="event flags for one trace")
    _add_instance_flags(p)
    p.add_argument("--local", action="store_true", help="require local flush flags")
    p.add_argument(
        "--sparse",
        action="append",
        metavar="K:B:ELL",
        help="evaluate sparse flush S(K, B, ELL); repeatable",
    )
    p.set_defaults(fn=cmd_events)

    p = sub.add_parser("oracle", help="exhaustive enumeration checks (small n)")
    p.add_argument("mode", choices=("enumerate",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--event", help="flush@K or cut")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("sweep", help="run a Monte Carlo sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="CSV path (JSON mirror written alongside)")
    p.add_argument("--threads", type=int, help="override the config's thread_count")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"refused: out of memory: {exc}", file=sys.stderr)
        return 3
    except StatisticalCheckError as exc:
        print(f"statistical check failed: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 5


if __name__ == "__main__":
    sys.exit(main())
