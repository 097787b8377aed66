"""Every public function and class in ``ksdlab``, and every public method and property
of its public classes, is used by the package itself, the benchmark, or the acceptance
criteria."""

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


def _public(body):
    return [d for d in body
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")]


def _unreferenced() -> set[str]:
    """Public top-level names in ``src/ksdlab``, and ``Class.member`` for the public methods
    and properties of its public classes, that nothing refers to outside their own
    definition: not the package, no ``perfbench`` module and no acceptance criterion.  A
    top-level name counts by any reference, a member by attribute access."""
    src = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "ksdlab").glob("*.py"))]
    outside = [ast.parse(p.read_text()) for p in
               [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]]
    defs = []  # (reported name, definition, attributes_only)
    for tree in src:
        for d in _public(tree.body):
            defs.append((d.name, d, False))
            if isinstance(d, ast.ClassDef):
                defs += [(f"{d.name}.{m.name}", m, True) for m in _public(d.body)]

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
    assert _unreferenced() == set()
