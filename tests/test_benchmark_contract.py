"""The benchmark in ``perfbench/`` keeps working against the package's API.

Every call the benchmark makes into ``ksdlab`` must still bind to the callee's
signature, every function its per-layer tracer patches must still exist, and
its kernel timings must still run on what those calls return; otherwise a
parameter cut silently breaks a workload or ``--trace 1``.
"""

import ast
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# patched by the tracer but removed from the package with the profile cache
GONE = {"io.save_profile_cache"}


def _load(fname: str):
    """A ``perfbench`` module, loaded from its file."""
    name = f"perfbench_{Path(fname).stem}"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / fname)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ksdlab_imports(tree: ast.Module) -> dict[str, object]:
    """Local name -> ksdlab object, for every ``ksdlab`` import in the file."""
    names: dict[str, object] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ksdlab"):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    obj = getattr(mod, alias.name)
                except AttributeError:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = obj
    return names


def _resolve(expr: ast.expr, names: dict[str, object]):
    """The ksdlab object an expression like ``renorm.make_state`` names, or None."""
    if isinstance(expr, ast.Name):
        return names.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _resolve(expr.value, names)
        if base is None:
            return None
        if not hasattr(base, expr.attr):
            raise AssertionError(f"{ast.unparse(expr)} no longer exists")
        return getattr(base, expr.attr)
    return None


def _ksdlab_calls(path: Path) -> list[tuple[str, object, ast.Call]]:
    tree = ast.parse(path.read_text())
    names = _ksdlab_imports(tree)
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = _resolve(node.func, names)
            if callable(fn):
                calls.append((ast.unparse(node.func), fn, node))
    return calls


@pytest.mark.parametrize("fname", ["worker.py", "kernels.py"])
def test_call_shapes_bind(fname):
    calls = _ksdlab_calls(PERFBENCH / fname)
    assert calls, f"no ksdlab calls found in {fname}"
    for text, fn, node in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args), text
        args = [None] * len(node.args)
        kwargs = {kw.arg: None for kw in node.keywords}
        try:
            inspect.signature(fn).bind(*args, **kwargs)
        except TypeError as exc:
            pytest.fail(f"{fname}: {text}(...) no longer binds: {exc}")


def test_modal_and_kernel_calls_found():
    found = {
        text
        for fname in ("worker.py", "kernels.py")
        for text, _, _ in _ksdlab_calls(PERFBENCH / fname)
    }
    assert {
        "renorm.measure_rates",
        "renorm.make_state",
        "renorm.dt_policy",
        "renorm.step_renorm",
        "phys.build_initial",
        "phys.pde_residual",
        "linops.select_weight",
        "solve_profile",
        "build_series",
    } <= found


def test_traced_layers_exist():
    layers = _load("layers.py")
    missing = [
        f"{module}.{func}"
        for module, funcs in layers.LAYERS.items()
        for func in funcs
        if not hasattr(importlib.import_module(f"ksdlab.{module}"), func)
    ]
    assert sorted(missing) == sorted(GONE)


def test_kernel_metrics_run(mu0_params, mu0_profile, monkeypatch):
    # each kernel called once, so the attributes the timings read off the results
    # (st.grid, st.rho, state.lam, state.grid) are checked, not only the call shapes
    kernels = _load("kernels.py")

    def once(fn, calls, repeats=5):
        fn()
        return 0.0

    monkeypatch.setattr(kernels, "per_call_us", once)
    metrics = kernels.kernel_metrics(mu0_params, mu0_profile)
    assert {"kernel.renorm.step_renorm.n4096.us", "kernel.phys.pde_residual.n8192.us",
            "kernel.linops.apply_L.n1001.us",
            "kernel.profile.series_recurrence.N400.madds"} <= set(metrics)
    assert all(math.isfinite(v) for v in metrics.values())
