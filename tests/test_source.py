"""Source checks on the package: no module imports a name it never uses,
no private helper goes unread, and every public name without a reader in
the package is listed once, with its reason.

No linter ships with the project, so this is stdlib `ast`: a name bound by
an import in `src/boundbench/<module>.py` must be read somewhere in that
module, in code or in a string annotation. An import kept for another
reader is marked `# noqa: F401` on its line. `__init__.py` only re-exports
and is not checked for imports. A module-level function or class, or a
method, whose name starts with `_` (dunders aside) must be read by a name
or an attribute somewhere in the package. So must a public module-level
name (function, class or assigned name) or public method, unless it is
listed in `PUBLIC_WITHOUT_SRC_READER`; the list must name exactly the ones
that have no reader, so it shrinks as they gain one or leave.
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


def _read_names(trees: list[ast.AST]) -> set[str]:
    """Every name, and every attribute name, that the trees load."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread_private_helpers(sources: list[str]) -> list[str]:
    """Private definitions that no name or attribute in `sources` reads."""
    trees = [ast.parse(source) for source in sources]
    read = _read_names(trees)
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


# public names that no code in the package reads, each with the reason it stays
PUBLIC_WITHOUT_SRC_READER = {
    "activations.swish": "the Swish constructor beside `huberized`, for library users",
    "linalg.stack_axpy": "pinned by `benchmark/spans.py` TARGETS",
    "linalg.stack_dot": "pinned by `benchmark/spans.py` TARGETS",
    "network.forward": "pinned by `benchmark/spans.py` TARGETS",
    "network.output_gradient": "pinned by `benchmark/spans.py` TARGETS",
    "ntk.approx_error_sample": "its only caller outside the tests is the t32 benchmark workload",
    "ntk.nt_class_minimize": "its only caller outside the tests is the t32 benchmark workload",
    "ntk.ntk_features": "its only caller outside the tests is the t32 benchmark workload",
}


def public_definitions(tree: ast.AST) -> list[str]:
    """Module-level functions, classes and assigned names, and methods as
    `Class.method`, whose own name does not start with `_`."""
    functions = ast.FunctionDef, ast.AsyncFunctionDef
    names = []
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{item.name}" for item in node.body if isinstance(item, functions)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if not name.rpartition(".")[2].startswith("_")]


def unread_public_names(modules: dict[str, str]) -> list[str]:
    """`module.name` for each public definition in the sources (keyed by
    module name) whose name no name or attribute in any of them reads."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    read = _read_names(list(trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in public_definitions(tree)
        if name.rpartition(".")[2] not in read
    )


def test_unread_public_names_finds_an_unread_name():
    source = (
        "LIMIT = 1\nUNUSED: int = 2\n_hidden = 3\n"
        "def used():\n    return LIMIT\n"
        "def unused():\n    pass\n"
        "class Box:\n    def read(self):\n        return used()\n"
        "    def dead(self):\n        pass\n    def __len__(self):\n        return 0\n"
    )
    other = "from m import Box\nBox().read()\n"
    assert unread_public_names({"m": source, "n": other}) == ["m.Box.dead", "m.UNUSED", "m.unused"]


def test_every_public_name_has_a_reader_in_the_package_or_a_listed_reason():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_public_names(modules) == sorted(PUBLIC_WITHOUT_SRC_READER)
