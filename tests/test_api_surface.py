"""Every function, class and module-level name in ``ksdlab``, and every method and property
of its classes, is used by the package itself or the benchmark; a public one may instead be
used by the acceptance criteria.  So no helper or constant stays in the package for the
other tests alone.  Likewise every dataclass field is read.  And each value enters once: no
function takes a profile beside its parameters, which the profile carries, and every
parameter of a public function is read."""

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


# Dataclasses that the package writes out whole through ``asdict``, each with that call: every
# field reaches an artifact, so each counts as read.
SERIALIZED_WHOLE = {
    "BlowupFit": ("cli.py", "asdict(fit)"),
    "RunConfig": ("cli.py", "asdict(config)"),
}


def test_dataclass_fields_are_read():
    # a field counts as read by any attribute load of its name in the package, a perfbench
    # module or an acceptance criterion, so a name another class shares hides it
    src = _parse(sorted((ROOT / "src" / "ksdlab").glob("*.py")))
    readers = src + _parse(sorted((ROOT / "perfbench").glob("*.py")))
    readers += _parse([ROOT / "tests" / "test_acceptance.py"])
    loads = {n.attr for t in readers for n in ast.walk(t)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = set()
    for tree in src:
        for name, d in _defs(tree.body):
            if (isinstance(d, ast.ClassDef) and name not in SERIALIZED_WHOLE
                    and any(ast.unparse(x).startswith("dataclass") for x in d.decorator_list)):
                fields = [f.target.id for f in d.body if isinstance(f, ast.AnnAssign)]
                unread |= {f"{name}.{f}" for f in fields if f not in loads}
    assert unread == set()
    for fname, call in SERIALIZED_WHOLE.values():
        text = (ROOT / "src" / "ksdlab" / fname).read_text()
        assert call in text, f"{fname} no longer calls {call}"


# Dataclass fields whose name another class in the package also declares, as a field, method,
# property or ``self.`` attribute: a read of that one counts for the field, so the rule above
# cannot see it go unread, and each needs a reader checked by hand.
SHARED_FIELD_NAMES = {"A", "coeffs", "grid", "h", "j0", "mu", "r", "s", "vanish_order"}


def test_shared_field_names_are_pinned():
    declared = {}  # class name -> (every name it declares, its dataclass fields)
    for tree in _parse(sorted((ROOT / "src" / "ksdlab").glob("*.py"))):
        for name, d in _defs(tree.body):
            if not isinstance(d, ast.ClassDef):
                continue
            fields = [f.target.id for f in d.body if isinstance(f, ast.AnnAssign)]
            names = set(fields) | {f.name for f in d.body if isinstance(f, ast.FunctionDef)}
            names |= {n.attr for n in ast.walk(d) if isinstance(n, ast.Attribute)
                      and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
                      and n.value.id == "self"}
            if not any(ast.unparse(x).startswith("dataclass") for x in d.decorator_list):
                fields = []
            declared[name] = (names, fields)
    shared = {f for name, (_, fields) in declared.items() for f in fields
              if any(f in names for other, (names, _) in declared.items() if other != name)}
    assert shared == SHARED_FIELD_NAMES


# Parameters kept only because a ``perfbench`` call binds them by position, each with that
# call: the benchmark change that drops them there deletes them here too.
PROFILE_BESIDE_PARAMS = {
    "apply_L": ("kernels.py", "linops.apply_L(prof, params, g, quad)"),
    "step_renorm": ("kernels.py", "renorm.step_renorm(state, prof, params, dt)"),
    "measure_rates": ("worker.py", "renorm.measure_rates(self.params, self.profile, 1,"),
}
UNREAD_PARAMETERS = {
    "step_renorm.profile": ("kernels.py", "renorm.step_renorm(state, prof, params, dt)"),
    "dt_policy.lam": ("kernels.py", "renorm.dt_policy(h, state.lam, params, state.grid[-1])"),
}


def _functions():
    """``(name, definition, public)`` for every function in ``src/ksdlab``, a method named
    ``Class.method``; public means a public module-level function or a public method of a
    public class."""
    out = []
    for tree in _parse(sorted((ROOT / "src" / "ksdlab").glob("*.py"))):
        for name, d in _defs(tree.body):
            if isinstance(d, ast.FunctionDef):
                out.append((name, d, not name.startswith("_")))
            else:
                out += [(f"{name}.{m}", md, not (name.startswith("_") or m.startswith("_")))
                        for m, md in _defs(d.body) if isinstance(md, ast.FunctionDef)]
    return out


def _arguments(d: ast.FunctionDef) -> list[ast.arg]:
    a = d.args
    return [x for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if x is not None and x.arg not in ("self", "cls")]


def _binds(exemptions: dict) -> None:
    for fname, call in exemptions.values():
        assert call in (ROOT / "perfbench" / fname).read_text(), f"{fname} no longer calls {call}"


def test_profile_carries_its_params():
    # mu, j0 and beta enter with the profile, as profile.params, never beside it
    def kind(arg):
        note = ast.unparse(arg.annotation) if arg.annotation else ""
        if arg.arg == "profile" or "RadialProfile" in note:
            return "profile"
        if arg.arg == "params" or "ProfileParams" in note:
            return "params"

    both = {name for name, d, _ in _functions()
            if {"profile", "params"} <= {kind(a) for a in _arguments(d)}}
    assert both == set(PROFILE_BESIDE_PARAMS)
    _binds(PROFILE_BESIDE_PARAMS)


def test_public_parameters_are_read():
    unread = set()
    for name, d, public in _functions():
        if public:
            loads = {n.id for n in ast.walk(d) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Load)}
            unread |= {f"{name}.{a.arg}" for a in _arguments(d) if a.arg not in loads}
    assert unread == set(UNREAD_PARAMETERS)
    _binds(UNREAD_PARAMETERS)
