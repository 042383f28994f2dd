"""Import hygiene, read from the source with `ast`: every module-level import
is used in its file, `src/` has no function-local import, and the modules'
imports of each other form no cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "dualcache").glob("*.py"))
FILES = [p for p in SRC + sorted((ROOT / "tests").glob("*.py")) if p.name != "__init__.py"]

# every import sits at module level, so the import graph alone orders the modules
LOCAL_IMPORTS: set[tuple[str, str, str]] = set()


def _imports(tree: ast.Module) -> list[tuple[ast.stmt, str | None]]:
    """Every import statement with the name of its enclosing function (None
    at module level)."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child, function))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(tree, None)
    return found


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        name
        for node, function in _imports(tree) if function is None
        for name in _bound_names(node) if name not in read
    ]
    assert unused == [], f"{path.name} imports {unused} without using them"


def test_no_function_local_import_in_src():
    local = set()
    for path in SRC:
        for node, function in _imports(ast.parse(path.read_text(), filename=str(path))):
            if function is not None:
                module = node.module if isinstance(node, ast.ImportFrom) else node.names[0].name
                local.add((path.name, function, module))
    assert local == LOCAL_IMPORTS


def _package_imports(path: Path) -> set[str]:
    """The dualcache modules a source file imports, at module level or in a function."""
    found = set()
    for node, _ in _imports(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_the_module_import_graph_has_no_cycle():
    graph = {path.stem: _package_imports(path) for path in SRC}
    assert "envelope" in graph["simulator"]  # the simulator runs the runs envelope builds
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as error:
        raise AssertionError(f"import cycle {error.args[1]}") from None
    assert set(order) == {path.stem for path in SRC}
