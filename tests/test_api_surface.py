"""Every function and class in ``ksdlab``, and every method and property of its classes, is
used by the package itself or the benchmark; a public one may instead be used by the
acceptance criteria.  So no helper stays in the package for the other tests alone."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _refs(node: ast.AST, attributes_only: bool = False) -> Counter:
    """The identifiers ``node`` refers to, with their counts: attributes, and unless
    ``attributes_only`` also names and imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
    return out


def _defs(body):
    """The functions and classes of ``body``, dunder methods left out: Python calls those."""
    return [d for d in body if isinstance(d, (ast.FunctionDef, ast.ClassDef))
            and not (d.name.startswith("__") and d.name.endswith("__"))]


def _parse(paths):
    return [ast.parse(p.read_text()) for p in paths]


def _unreferenced(private: bool) -> set[str]:
    """Top-level names in ``src/ksdlab``, and ``Class.member`` for the methods and properties
    of its classes, that nothing refers to outside their own definition.  A public name (of a
    public class) may be referred to by the package, a ``perfbench`` module or an acceptance
    criterion; a private one, or any member of a private class, by the package or a
    ``perfbench`` module only.  A top-level name counts by any reference, a member by
    attribute access."""
    src = _parse(sorted((ROOT / "src" / "ksdlab").glob("*.py")))
    outside = _parse(sorted((ROOT / "perfbench").glob("*.py")))
    if not private:
        outside += _parse([ROOT / "tests" / "test_acceptance.py"])
    defs = []  # (reported name, definition, attributes_only)
    for tree in src:
        for d in _defs(tree.body):
            hidden = d.name.startswith("_")
            if hidden == private:
                defs.append((d.name, d, False))
            if isinstance(d, ast.ClassDef):
                defs += [(f"{d.name}.{m.name}", m, True) for m in _defs(d.body)
                         if (hidden or m.name.startswith("_")) == private]

    def total(trees, attributes_only):
        return sum((_refs(t, attributes_only) for t in trees), Counter())

    counts = {flag: (total(src, flag), total(outside, flag)) for flag in (False, True)}
    unreferenced = set()
    for name, d, attributes_only in defs:
        in_src, in_outside = counts[attributes_only]
        if not in_outside[d.name] and in_src[d.name] <= _refs(d, attributes_only)[d.name]:
            unreferenced.add(name)
    return unreferenced


def test_public_names_have_a_caller():
    assert _unreferenced(private=False) == set()


def test_private_names_have_a_caller_outside_the_tests():
    assert _unreferenced(private=True) == set()
