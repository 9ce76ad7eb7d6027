"""Every public function, class and method in ``src/musereact`` has a reader
outside the tests: the library itself, ``benchmarks/`` or ``demos/``.

The scan matches bare names.  A definition counts as read when its name is
loaded anywhere in those trees, as a variable or as an attribute; a package
``__init__`` re-export is an import and an ``__all__`` string, so it reads
nothing.  Matching names means a definition whose name is also used for
something else cannot be seen.  ``ScoreVector.top``, ``LstmWeights.zeros``,
``DecisionTree.depth`` and ``ScoreFileClassifier.from_file`` had no reader
outside the tests, yet the scan passed them, because ``args.top``,
``np.zeros``, the tree builder's ``depth`` argument and
``FilePitchTracker.from_file`` load the same names.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "musereact"
READERS = (SRC, ROOT / "benchmarks", ROOT / "demos")

#: The brute-force references the tests check the dynamic programs against.
REFERENCES = SRC / "harness" / "oracles.py"

#: (module path under src/musereact, qualified name) -> why it stays unread.
ALLOWED = {
    ("vocal.py", "viterbi_path"):
        "the tests' full decoder, and the per-window smoothing reference for "
        "windows longer than harness.viterbi_oracle's limit of 6",
    ("engage.py", "save_training_csv"):
        "the only writer of the CSV that `musereact train-tree` reads",
}


def public_definitions(path: pathlib.Path) -> list[str]:
    """Qualified names of the public functions, classes and methods that
    ``path`` defines at module level or in a class body."""
    def walk(body, prefix):
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield prefix + node.name
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")
    return list(walk(ast.parse(path.read_text(encoding="utf-8")).body, ""))


def read_names(path: pathlib.Path) -> set[str]:
    """Every name ``path`` loads, as a variable or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def unread_definitions(package: pathlib.Path, readers, skip=()) -> set[tuple[str, str]]:
    """(module path under ``package``, qualified name) of each public
    definition whose last name no file under ``readers`` loads."""
    read = set().union(*(read_names(path) for root in readers
                         for path in sorted(root.rglob("*.py"))))
    return {(path.relative_to(package).as_posix(), name)
            for path in sorted(package.rglob("*.py")) if path not in skip
            for name in public_definitions(path)
            if name.rsplit(".", 1)[-1] not in read}


def test_every_public_name_in_src_has_a_reader():
    assert unread_definitions(SRC, READERS, skip={REFERENCES}) == set(ALLOWED)


def test_checker_finds_an_unused_name(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .m import Used, unused\n"
                                         "__all__ = ['Used', 'unused']\n")
    (package / "m.py").write_text("class Used:\n    def _helper(self):\n        pass\n\n"
                                  "def unused():\n    pass\n")
    (tmp_path / "demo.py").write_text("from pkg import Used\nprint(Used())\n")
    assert unread_definitions(package, [tmp_path]) == {("m.py", "unused")}
