"""Source hygiene: every imported name in src/ and tests/ is used, every
top-level private function or class in src/ is referenced, every library
function the benchmark's tracer wraps still exists, and the src/ line count
README quotes is the tree's."""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    # A package __init__ imports names to re-export them.
    files = [p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert files
    unused = [hit for p in files for hit in _unused_imports(p)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def _references(node: ast.AST) -> Counter:
    """Names a node's subtree reads: bare names, attributes and names
    imported from another module."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def test_no_unreferenced_private_helpers():
    # A private helper nothing in the package reads (its own body aside) is
    # dead code left behind by a removal.
    files = sorted((ROOT / "src").rglob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in files}
    assert trees
    refs = sum((_references(t) for t in trees.values()), Counter())
    dead = [f"{p.relative_to(ROOT)}:{node.lineno}: {node.name}"
            for p, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            and refs[node.name] == _references(node)[node.name]]
    assert not dead, "private helpers nothing references:\n" + "\n".join(dead)


def test_bench_wrap_points_exist():
    # bench/run.py --trace 1 wraps these module attributes; a rename in src/
    # would otherwise only show up when the traced benchmark runs.
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAP_POINTS
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.WRAP_POINTS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, "wrap points missing from the library:\n" + "\n".join(missing)


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_separator_sweep_records_required_spans():
    # The separator workload's traced run needs these spans; a refactor that
    # routes its trials around a wrap point would otherwise only fail there.
    tracing, workloads = _bench_module("tracing"), _bench_module("workloads")
    sweeps = importlib.import_module("tangledpath.sweeps")
    tracer = tracing.Tracer()
    with tracer.installed():
        sweeps.run_sweep(sweeps.make_config(
            experiment="separator", n_list=[2000], q_grid=[0.6, 0.95], trials=6, thread_count=2,
        ))
    calls = tracer.calls()
    missing = [span for span in workloads.Separator.required if not calls[span]]
    assert not missing, "spans recorded no calls:\n" + "\n".join(missing)



def test_traced_window_route_sweep_records_required_spans():
    # A separator sweep whose cells all count on candidate windows still
    # records every required span, and its uniform draws, which go through
    # mallows.uniform_matrix, count at least one word per trace and window
    # index; else a bench run with both cells on that route would record
    # no calls.
    tracing, workloads = _bench_module("tracing"), _bench_module("workloads")
    sweeps = importlib.import_module("tangledpath.sweeps")
    alpha_cut_range = importlib.import_module("tangledpath._util").alpha_cut_range
    n, qs, trials = 10**4, (0.9, 0.95), 6
    k_lo, k_hi = alpha_cut_range(n, 2 / 3)
    assert all(sweeps._window_thresholds(n, q, k_lo, k_hi) is not None for q in qs)
    tracer = tracing.Tracer()
    with tracer.installed():
        sweeps.run_sweep(sweeps.make_config(
            experiment="separator", n_list=[n], q_grid=list(qs), trials=trials, thread_count=2,
        ))
    calls = tracer.calls()
    missing = [span for span in workloads.Separator.required if not calls[span]]
    assert not missing, "spans recorded no calls:\n" + "\n".join(missing)
    words = sum(s[6] for s in tracer.spans if s[1] == "rng.uniform_matrix")
    assert words >= len(qs) * trials * (k_hi - k_lo + 1)

def test_readme_src_line_count_is_current():
    # ROADMAP tracks the size of src/ through this number, so it must not
    # go stale when src/ changes.
    quoted = re.findall(r"`src/` is (\d+) lines", (ROOT / "README.md").read_text())
    actual = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert quoted == [str(actual)], f"README quotes {quoted}, src/ has {actual} lines"
