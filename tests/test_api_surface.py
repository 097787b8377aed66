"""Every function, class and module-level name in ``ksdlab``, and every method and property
of its classes, is used by the package itself or the benchmark; a public one may instead be
used by the acceptance criteria.  So no helper or constant stays in the package for the
other tests alone."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _refs(node: ast.AST, attributes_only: bool = False) -> Counter:
    """The identifiers ``node`` reads, with their counts: attributes, and unless
    ``attributes_only`` also names and imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
    return out


def _defs(body, assignments: bool = False):
    """``(name, definition)`` for the functions and classes of ``body``, dunder methods left
    out (Python calls those), and with ``assignments`` for the names it assigns."""
    out = []
    for d in body:
        if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
            if not (d.name.startswith("__") and d.name.endswith("__")):
                out.append((d.name, d))
        elif assignments and isinstance(d, (ast.Assign, ast.AnnAssign)):
            targets = d.targets if isinstance(d, ast.Assign) else [d.target]
            out += [(t.id, d) for t in targets if isinstance(t, ast.Name)]
    return out


def _parse(paths):
    return [ast.parse(p.read_text()) for p in paths]


def _unreferenced(private: bool) -> set[str]:
    """Top-level names in ``src/ksdlab`` (functions, classes and assigned names), and
    ``Class.member`` for the methods and properties of its classes, that nothing reads
    outside their own definition.  A public name (of a public class) may be read by the
    package, a ``perfbench`` module or an acceptance criterion; a private one, or any member
    of a private class, by the package or a ``perfbench`` module only.  A top-level name
    counts by any read or import, a member by attribute access."""
    src = _parse(sorted((ROOT / "src" / "ksdlab").glob("*.py")))
    outside = _parse(sorted((ROOT / "perfbench").glob("*.py")))
    if not private:
        outside += _parse([ROOT / "tests" / "test_acceptance.py"])
    defs = []  # (reported name, name, definition, attributes_only)
    for tree in src:
        for name, d in _defs(tree.body, assignments=True):
            hidden = name.startswith("_")
            if hidden == private:
                defs.append((name, name, d, False))
            if isinstance(d, ast.ClassDef):
                defs += [(f"{name}.{m}", m, md, True) for m, md in _defs(d.body)
                         if (hidden or m.startswith("_")) == private]

    def total(trees, attributes_only):
        return sum((_refs(t, attributes_only) for t in trees), Counter())

    counts = {flag: (total(src, flag), total(outside, flag)) for flag in (False, True)}
    unreferenced = set()
    for reported, name, d, attributes_only in defs:
        in_src, in_outside = counts[attributes_only]
        if not in_outside[name] and in_src[name] <= _refs(d, attributes_only)[name]:
            unreferenced.add(reported)
    return unreferenced


def test_public_names_have_a_caller():
    assert _unreferenced(private=False) == set()


def test_private_names_have_a_caller_outside_the_tests():
    assert _unreferenced(private=True) == set()
