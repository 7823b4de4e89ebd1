"""Source hygiene: every imported name in src/ and tests/ is used, every
top-level private function or class in src/ is referenced, every exported
name is read outside the tests, every library function the benchmark's
tracer wraps still exists, the src/ line count README quotes is the tree's,
and README's quick start and `tangled` examples print what they say."""

import ast
import contextlib
import importlib
import importlib.util
import io
import re
import shlex
from collections import Counter
from pathlib import Path

from tangledpath.cli import main

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


def _modules(tree: ast.AST) -> set[str]:
    """Names a file binds to a module: by ``import``, by ``from . import m``
    or by ``m = import_module(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            if getattr(func, "id", getattr(func, "attr", None)) == "import_module":
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _references(node: ast.AST, modules: set[str]) -> Counter:
    """Names a node's subtree reads: bare names, names imported from another
    module, and attributes read off a name in ``modules``; ``x.name`` on any
    other x is some object's attribute, such as a list's ``reverse``."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in modules:
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
    modules = {p: _modules(tree) for p, tree in trees.items()}
    refs = sum((_references(t, modules[p]) for p, t in trees.items()), Counter())
    dead = [f"{p.relative_to(ROOT)}:{node.lineno}: {node.name}"
            for p, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            and refs[node.name] == _references(node, modules[p])[node.name]]
    assert not dead, "private helpers nothing references:\n" + "\n".join(dead)


def test_every_export_has_a_reader():
    # The package exports a name only while its own code outside that name's
    # definition, a bench script or README's code reads it; reference code
    # that only the tests read lives in tests/conftest.py.
    init = ast.parse((ROOT / "src" / "tangledpath" / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert exported
    reads, own = Counter(), Counter()
    for p in sorted((ROOT / "src").rglob("*.py")):
        if p.name != "__init__.py":
            tree = ast.parse(p.read_text(), filename=str(p))
            modules = _modules(tree)
            reads += _references(tree, modules)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    own[node.name] += _references(node, modules)[node.name]
    for p in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(p.read_text(), filename=str(p))
        reads += _references(tree, _modules(tree))
    readme = (ROOT / "README.md").read_text()
    quoted = set(re.findall(r"\w+", " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))))
    unread = [name for name in exported if reads[name] <= own[name] and name not in quoted]
    assert not unread, "exported names nothing but the tests reads:\n" + "\n".join(unread)


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


def test_readme_quick_start_prints_what_it_claims():
    # The quick start is the first code a reader runs; its commented outputs
    # have drifted from the library before.
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S).group(1)
    claimed = [ln.split("#", 1)[1].rsplit(": ", 1)[-1].strip()
               for ln in block.splitlines() if ln.startswith("print(") and "#" in ln][:3]
    assert claimed == ["(190,)", "{190}", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[:3] == claimed


def _readme_cli_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) of every `$ tangled` line in README's sh
    blocks; a shown line that starts with a space continues the one before."""
    text = (ROOT / "README.md").read_text()
    return [(shlex.split(cmd), shown.replace("\n ", " ").splitlines())
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for cmd, shown in re.findall(r"^\$ tangled (.*)\n((?:(?!\$ ).*\n)*)", block, re.M)]


def test_readme_cli_examples_print_what_they_show(capsys):
    # The examples are the CLI's documentation, and a value they show has
    # gone stale before.  A value shown in full must be printed exactly,
    # one shown as `0.476...` must start the printed one, and a `...` line
    # stands for the rest of the output.  The sweep example needs a file.
    examples = [(argv, shown) for argv, shown in _readme_cli_examples() if argv[0] != "sweep"]
    assert len(examples) == 7
    for argv, shown in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        if shown[-1] == "...":
            shown, out = shown[:-1], out[:len(shown) - 1]
        pattern = [re.escape(line).replace(r"\.\.\.", r"[0-9]*(e[-+][0-9]+)?") for line in shown]
        assert len(out) == len(shown), (argv, out)
        for want, got in zip(pattern, out):
            assert re.fullmatch(want, got), (argv, got)
