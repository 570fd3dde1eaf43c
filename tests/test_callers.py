"""Every top-level function and class in ``src/gridcast`` has a caller outside
the tests, and every name that the benchmark wraps exists.

A name passes when an ``ast.Name`` or ``ast.Attribute`` refers to it somewhere
outside its own definition, in a ``src/gridcast`` module other than
``__init__.py`` or in a ``bench/*.py`` file. Re-exports, imports, comments,
strings and tests are not callers: a name that only they reach is code that
no command and no benchmark runs.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# "module.name" -> why it stays without a caller; keep it empty
ALLOWED: dict[str, str] = {}


def _references(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attribute names that ``node`` refers to, outside ``skip``."""
    found, todo = set(), [node]
    while todo:
        n = todo.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        todo.extend(ast.iter_child_nodes(n))
    return found


def _uncalled(root: Path = ROOT) -> list[str]:
    package = root / "src" / "gridcast"
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    modules.pop("__init__")
    bench = set()
    for p in sorted((root / "bench").glob("*.py")):
        bench |= _references(ast.parse(p.read_text(), str(p)))
    uncalled = []
    for module, tree in modules.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            called = d.name in bench or any(
                d.name in _references(other, d) for other in modules.values()
            )
            if not called:
                uncalled.append(f"{module}.{d.name}")
    return uncalled


def test_every_top_level_name_in_src_has_a_caller_outside_the_tests():
    uncalled = _uncalled()
    assert set(ALLOWED) <= set(uncalled), "ALLOWED names a deleted name or one with a caller"
    uncalled = [name for name in uncalled if name not in ALLOWED]
    assert not uncalled, f"no src/ or bench/ code refers to {uncalled}: delete them or give a reason in ALLOWED"


@pytest.mark.parametrize(
    "reached_by, module, code, uncalled",
    [
        ("a_re_export", "__init__.py", "from gridcast.b import f\n__all__ = ['f']\n", ["b.f"]),
        ("a_string_or_comment", "src/gridcast/a.py", "# f()\nDOC = 'call f() first'\n", ["b.f"]),
        ("its_own_body", "src/gridcast/a.py", "", ["b.f"]),
        ("a_test", "tests/test_b.py", "from gridcast.b import f\nf(0)\n", ["b.f"]),
        ("another_module", "src/gridcast/a.py", "from gridcast import b\nb.f(0)\n", []),
        ("the_benchmark", "bench/run.py", "from gridcast.b import f\nf(0)\n", []),
    ],
)
def test_the_scan_counts_only_src_and_bench_code_as_a_caller(tmp_path, reached_by, module, code, uncalled):
    """A recursive ``f`` in ``b.py``, reached only by ``code``."""
    package = tmp_path / "src" / "gridcast"
    for d in (package, tmp_path / "bench", tmp_path / "tests"):
        d.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text("")
    (package / "b.py").write_text("def f(n):\n    return f(n - 1) if n else 0\n")
    target = package / module if module == "__init__.py" else tmp_path / module
    target.write_text(code)
    assert _uncalled(tmp_path) == uncalled


def test_the_benchmark_finds_every_name_it_wraps(monkeypatch):
    """``bench/hooks.py`` wraps gridcast's functions by attribute name, in
    strings that the scan above does not read: installing every hook must
    find each of them."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import hooks

    patcher = hooks.Patcher()
    tracer = hooks.Tracer()
    try:
        tracer.install(patcher)
        hooks.Clock(tracer).install(patcher)
    finally:
        patcher.restore()
