"""Every import in the package and the test suite is used.

Each module under `src/` and `tests/` is parsed with `ast`. A name an
import binds counts as used when the module reads it, lists it in
`__all__`, or when another of these modules imports that name from it (a
re-export, such as the formulas `student` takes from `kernels`).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = (ROOT / "src", ROOT / "tests")


def _modules():
    """{dotted name: (path, parsed tree)} of every module, named as it is
    imported: package modules from `src/`, test modules from `tests/`."""
    out = {}
    for base in SOURCE_DIRS:
        for path in sorted(base.rglob("*.py")):
            parts = list(path.relative_to(base).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            out[".".join(parts)] = (path, ast.parse(path.read_text(), path))
    return out


def _source_module(name, path, node):
    """The dotted module an `ImportFrom` node reads, resolving relative
    imports against module `name`."""
    if not node.level:
        return node.module
    package = name.split(".")
    if path.name != "__init__.py":
        package.pop()
    package = package[:len(package) - (node.level - 1)]
    return ".".join(package + ([node.module] if node.module else []))


def _bindings(name, path, tree):
    """(bound name, source module or None, line) of each import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0], None,
                       node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = _source_module(name, path, node)
            for alias in node.names:
                yield alias.asname or alias.name, source, node.lineno


def _used_names(tree):
    """Names the module reads, plus the strings of its `__all__`."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return used


def test_every_import_is_used():
    modules = _modules()
    imported_from = set()     # (module, name) another module imports
    for name, (path, tree) in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _source_module(name, path, node)
                imported_from.update((source, a.name) for a in node.names)
    unused = []
    for name, (path, tree) in modules.items():
        used = _used_names(tree)
        for bound, _source, line in _bindings(name, path, tree):
            if bound not in used and (name, bound) not in imported_from:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {bound}")
    assert unused == [], "unused imports:\n" + "\n".join(unused)


def test_the_scan_sees_an_unused_import(tmp_path):
    # the scan itself: a module with one import it reads and one it does
    # not reports only the second
    tree = ast.parse("import os\nimport sys\nprint(os.sep)\n")
    path = tmp_path / "probe.py"
    found = [bound for bound, _source, _line in _bindings("probe", path, tree)
             if bound not in _used_names(tree)]
    assert found == ["sys"]
