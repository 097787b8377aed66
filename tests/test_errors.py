"""Every named error is raised somewhere in the package and reached by a test."""

import ast
from pathlib import Path

import ksdlab.errors

ROOT = Path(__file__).resolve().parents[1]


def _names(node):
    """The class names an exception expression refers to: ``X``, ``errors.X``, a call of
    either, or a tuple of them."""
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _names(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _collect(directory, match):
    found = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            found |= match(node)
    return found


def _raised(node):
    return _names(node.exc) if isinstance(node, ast.Raise) and node.exc else set()


def _expected(node):
    is_raises = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "raises" and node.args)
    return _names(node.args[0]) if is_raises else set()


def test_every_error_raised_and_tested():
    # an error class with no raise is dead code, and one no test reaches is an untested
    # failure path; both are read from the source, so an orphan shows at once
    tree = ast.parse(Path(ksdlab.errors.__file__).read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    subclasses = classes - {"KSDLabError"}
    assert subclasses
    raised = _collect(ROOT / "src" / "ksdlab", _raised)
    tested = _collect(ROOT / "tests", _expected)
    assert sorted(subclasses - raised) == []
    assert sorted(subclasses - tested) == []
