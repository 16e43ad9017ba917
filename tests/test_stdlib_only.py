"""Runtime dependencies stay stdlib only: every absolute import in the
package names a standard-library module or the package itself.  Every
name a module (other than ``__init__``) imports is used in it.  No
exception handler is bare or catches ``Exception`` / ``BaseException``.
Every public function, class and method has a user."""

import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cubeclaw"


def test_package_imports_only_stdlib_and_itself():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "cubeclaw", (path.name, name)


def test_package_imports_are_used():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_no_broad_except():
    broad = {"Exception", "BaseException"}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            assert node.type is not None, (path.name, node.lineno, "bare except")
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {c.id for c in caught if isinstance(c, ast.Name)}
            assert not names & broad, (path.name, node.lineno, sorted(names & broad))


def test_public_names_have_a_user():
    # a user: an import by another module, a reference outside the
    # definition (by name in its own module, as an attribute anywhere),
    # or a per-layer benchmark metric; cli.main is the entry point
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    defs = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((mod, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (mod, f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                ]
    unused = []
    for mod, qual, node in defs:
        name = node.name
        if name.startswith("_") or f"{mod}.{qual}" == "cli.main":
            continue
        if any(m.startswith(f"{mod}.{qual}.") for m in metrics):
            continue
        inside = {id(n) for n in ast.walk(node)}
        by_name = "." not in qual
        used = any(
            id(n) not in inside
            and (
                isinstance(n, ast.Attribute) and n.attr == name
                or by_name and other == mod and isinstance(n, ast.Name) and n.id == name
                or by_name and other != mod and isinstance(n, ast.ImportFrom)
                and any(a.name == name for a in n.names)
            )
            for other, tree in trees.items()
            for n in ast.walk(tree)
        )
        if not used:
            unused.append(f"{mod}.{qual}")
    assert not unused, " ".join(unused)
