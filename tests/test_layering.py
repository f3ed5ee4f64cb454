"""Package layering, read from the source without importing it: the oracles
in verify.py stay out of production code paths, and the package's
``__init__`` binds nothing but its version."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sscavi"


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _verify_imports(tree):
    """"module" for each import of verify itself, "name" for each import from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ("module" for alias in node.names if alias.name == "sscavi.verify")
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("verify", "sscavi.verify"):
                yield "name"
            elif node.module in (None, "sscavi"):
                yield from ("module" for alias in node.names if alias.name == "verify")


def test_only_harness_imports_verify():
    trees = _trees()
    assert "verify" in trees and "harness" in trees
    assert {name for name, tree in trees.items() if any(_verify_imports(tree))} == {"harness"}


def test_no_module_imports_a_name_from_verify():
    for name, tree in _trees().items():
        assert "name" not in set(_verify_imports(tree)), name


def test_package_binds_only_its_version():
    tree = _trees()["__init__"]
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    assert len(body) == 1 and isinstance(body[0], ast.Assign), ast.unparse(tree)
    assert [ast.unparse(target) for target in body[0].targets] == ["__version__"]
