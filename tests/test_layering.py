"""Package layering, read from the source without importing it: the oracles
in verify.py stay out of production code paths, no module reads another's
private names, and the package's ``__init__`` binds nothing but its version.
The last test imports the package: each list of accepted values is stated
once, where it is validated, and the CLI offers that same list."""

import ast
import pathlib

import pytest

from sscavi import cli, engines, harness

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


def _private_sibling_reads(tree, siblings):
    """Each ``module._name`` or ``from .module import _name`` that reads a
    private (single-underscore) name of a sibling module."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("sscavi.").removeprefix("sscavi")
            for alias in node.names:
                if not module and alias.name in siblings:
                    bound.add(alias.asname or alias.name)
                elif module in siblings and alias.name.startswith("_"):
                    yield f"from {module} import {alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            yield f"{node.value.id}.{node.attr}"


def test_no_module_reads_a_private_name_of_another():
    trees = _trees()
    assert {"engines", "stability", "synth", "verify"} <= set(trees)
    reads = {name: list(_private_sibling_reads(tree, set(trees))) for name, tree in trees.items()}
    assert {name: found for name, found in reads.items() if found} == {}


def test_cli_choices_are_the_validated_tuples():
    assert cli._FLAGS["init"][2] is engines.INITS
    assert cli._FLAGS["panel"][2] is harness.PANELS
    for init in engines.INITS:
        engines.RunConfig(init=init)
    for panel in harness.PANELS:
        harness.StudyConfig(out_dir="out", panel=panel)
    with pytest.raises(ValueError):
        engines.RunConfig(init="custom")
    with pytest.raises(ValueError):
        harness.StudyConfig(out_dir="out", panel="custom")
