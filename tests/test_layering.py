"""Package layering, read from the source without importing it: the oracles
in verify.py stay out of production code paths, no module but verify.py
imports scipy.linalg beyond its BLAS and LAPACK drivers and ``LinAlgError``,
no module reads another's private names, the package's ``__init__`` binds
nothing but its version, no module keeps an ``__all__`` list, and no
function takes the dataset or the hyperparameters beside ``Precomputed``,
which keeps both.
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


def test_no_module_assigns_a_list_of_public_names():
    # a public name is one without a leading underscore; no second list states them
    for name, tree in _trees().items():
        assert not any(isinstance(node, ast.Name) and node.id == "__all__"
                       and isinstance(node.ctx, ast.Store) for node in ast.walk(tree)), name


# the BLAS and LAPACK driver modules, and the error their wrappers raise
_SCIPY_LINALG_ALLOWED = ("scipy.linalg.LinAlgError", "scipy.linalg.blas", "scipy.linalg.lapack")


def _scipy_linalg_imports(tree):
    """The dotted name of each absolute import of or from scipy.linalg that is
    not a driver module, a name from one, or ``LinAlgError``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        yield from (name for name in names
                    if (name + ".").startswith("scipy.linalg.")
                    and not any((name + ".").startswith(ok + ".") for ok in _SCIPY_LINALG_ALLOWED))


def test_only_verify_uses_scipy_linalg_solvers():
    # production calls the LAPACK and BLAS drivers directly; only the
    # oracles may use high-level solvers, so the two stay independent
    trees = _trees()
    assert "stability" in trees
    found = {name: list(_scipy_linalg_imports(tree)) for name, tree in trees.items()
             if name != "verify"}
    assert {name: names for name, names in found.items() if names} == {}


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


def _parameters(tree):
    """(name, {parameter: default node or None}) for every function in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            params = dict(zip((arg.arg for arg in positional), defaults))
            params.update(zip((arg.arg for arg in args.kwonlyargs), args.kw_defaults))
            yield node.name, params


def test_precomputed_is_the_one_carrier_past_precompute():
    # past precompute, the dataset and the hyperparameters reach every function,
    # the ELBO included, through Precomputed alone, so no call can pair a
    # Precomputed with another problem's data or prior
    both, optional = set(), set()
    for module, tree in _trees().items():
        for name, params in _parameters(tree):
            if "pre" in params and ("hyper" in params or "dataset" in params):
                both.add((module, name))
            default = params.get("pre")
            if isinstance(default, ast.Constant) and default.value is None:
                optional.add((module, name))
    assert both == set()
    assert optional == set()


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
