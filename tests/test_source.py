"""Source checks on the package: no module imports a name it never uses,
and no private helper goes unread.

No linter ships with the project, so this is stdlib `ast`: a name bound by
an import in `src/boundbench/<module>.py` must be read somewhere in that
module, in code or in a string annotation. An import kept for another
reader is marked `# noqa: F401` on its line. `__init__.py` only re-exports
and is not checked for imports. A module-level function or class, or a
method, whose name starts with `_` (dunders aside) must be read by a name
or an attribute somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boundbench"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names that an import statement binds and the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in read]


def test_unused_imports_finds_an_unread_name():
    source = 'import math\nfrom x import a, b\nfrom y import c  # noqa: F401\ndef f(v: "a") -> None:\n    pass\n'
    assert unused_imports(source) == ["line 1: math", "line 2: b"]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.AST) -> list[str]:
    """Module-level functions and classes, and methods, named `_x` but not `__x__`."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    scopes = [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]
    names = [node.name for scope in scopes for node in scope.body if isinstance(node, defs)]
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def unread_private_helpers(sources: list[str]) -> list[str]:
    """Private definitions that no name or attribute in `sources` reads."""
    trees = [ast.parse(source) for source in sources]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return sorted(name for tree in trees for name in private_definitions(tree) if name not in read)


def test_unread_private_helpers_finds_an_unread_helper():
    source = (
        "def _used():\n    pass\n"
        "def _unused():\n    pass\n"
        "class _Box:\n    def __init__(self):\n        self._n = _used()\n"
        "    def _read(self):\n        return self._n\n"
        "    def _dead(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
    )
    other = "from m import _Box\n_Box()._read()\n"
    assert unread_private_helpers([source, other]) == ["_dead", "_unused"]


def test_package_reads_every_private_helper():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_helpers(sources) == []
