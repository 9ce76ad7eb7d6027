"""Every file ``src/`` opens and every JSON text it encodes goes through
``core``'s file layer: ``audio.wav`` and the text files alike."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "musereact"

#: (module path under src/musereact, enclosing function, call) -> why the call is there.
ALLOWED = {
    ("core.py", "read_bytes", "open"): "the one reader of a whole file",
    ("core.py", "write_bytes", "open"): "the one writer of a file",
    ("core.py", "json_document", "json.dumps"): "the one JSON-document layout",
    ("core.py", "write_jsonl", "json.dumps"): "the one JSON-lines line layout",
}

#: Calls that open a file or encode JSON text.
WATCHED = {"open", "json.dumps", "json.dump"}


def _call_name(node: ast.Call) -> str:
    """``open`` or ``module.attr`` for a call of a name or of an attribute of one."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            return f"{func.value.id}.{func.attr}"
        return func.attr
    return ""


def file_calls(path: pathlib.Path) -> list[tuple[str, str]]:
    """``(enclosing function, call)`` for each watched call in ``path``, the
    function being the innermost ``def`` around it (``""`` at module level)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in WATCHED or name.endswith(".open"):
                found.append((function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_only_the_file_layer_opens_files_and_encodes_json():
    calls = {(path.relative_to(SRC).as_posix(), function, name)
             for path in sorted(SRC.rglob("*.py")) for function, name in file_calls(path)}
    assert calls == set(ALLOWED)


def test_checker_finds_a_writer_outside_the_layer(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import json, gzip\n"
        "def save(path, obj):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(json.dumps(obj))\n"
        "def pack(path):\n"
        "    return gzip.open(path)\n"
        "json.dump({}, None)\n")
    assert file_calls(module) == [("save", "open"), ("save", "json.dumps"),
                                  ("pack", "gzip.open"), ("", "json.dump")]
