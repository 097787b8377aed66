"""Every public function and class in ``ksdlab`` is used by the package itself, the
benchmark, or the acceptance criteria; the routes that only tests call are named."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# cross-checks of the paper's identities and of the heat and scaling oracles,
# which only the unit tests call
TEST_ONLY = {
    "heat_profile_residual",
    "quadratic_form_split",
    "sobolev_probe_low_order",
    "check_scaling_invariance",
}


def _names(node: ast.AST) -> set[str]:
    """The identifiers ``node`` refers to: names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def _unreferenced() -> set[str]:
    """Public top-level names in ``src/ksdlab`` that no other top-level statement of
    the package, no ``perfbench`` module and no acceptance criterion refers to."""
    public, used_by = [], []
    for path in sorted((ROOT / "src" / "ksdlab").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            used_by.append((stmt, _names(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                public.append(stmt)
    outside = set()
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside |= _names(ast.parse(path.read_text()))
    return {
        d.name for d in public
        if d.name not in outside and not any(d.name in names for stmt, names in used_by if stmt is not d)
    }


def test_public_names_have_a_caller():
    assert _unreferenced() == TEST_ONLY
