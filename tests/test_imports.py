"""Every name imported in ``src/`` is used by the module that imports it."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "musereact"

#: (module path under src/musereact, name) -> why the unused import stays.
ALLOWED = {
    ("vocal.py", "segment_session"):
        "benchmarks/layers.py and benchmarks/test_benchmark.py look up vocal.segment_session",
}


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names bound by an import in ``path`` that nothing else in it reads;
    a package ``__init__`` uses the names it lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_import_in_src_is_used():
    unused = {(path.relative_to(SRC).as_posix(), name)
              for path in sorted(SRC.rglob("*.py")) for name in unused_imports(path)}
    assert unused == set(ALLOWED)


def test_checker_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys as system\nfrom math import pi, tau\n"
                      "__all__ = ['tau']\nprint(system.argv)\n")
    assert unused_imports(module) == ["os", "pi"]
