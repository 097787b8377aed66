"""Per-layer tracing from outside the package.

The public functions of each ``ksdlab`` module are wrapped in timing spans.
A function is replaced under every name it is bound to inside the package,
because modules such as ``ksdlab.cli`` bind it with ``from ... import``:
patching only the defining module would miss calls made through them.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions timed as that module's layer
LAYERS = {
    "profile": ("series_recurrence", "build_series", "solve_profile"),
    "linops": ("select_weight", "coercivity_probe", "apply_L", "weighted_inner"),
    "heat": ("heat_coercivity", "heat_apply_L", "heat_weighted_inner"),
    "renorm": ("measure_rates", "run_renorm", "make_state", "step_renorm", "extract_modes"),
    "phys": ("run_phys", "build_initial"),
    "io": ("write_csv", "write_json", "write_manifest", "save_profile_cache"),
    "cli": ("main",),
}


def _file_bytes(key):
    def hook(args, result, self_s):
        return {key: os.path.getsize(args[0])}
    return hook


def _phys_records(args, result, self_s):
    return {"phys.run_phys.records": len(result[0]["t"])}


def _cli_command(args, result, self_s):
    return {f"cli.main.{args[0][0]}.s": self_s}


# counts taken from a call's arguments or result, besides time and calls
HOOKS = {
    "io.write_csv": _file_bytes("io.write_csv.bytes"),
    "io.save_profile_cache": _file_bytes("io.save_profile_cache.bytes"),
    "phys.run_phys": _phys_records,
    "cli.main": _cli_command,
}


class Tracer:
    """Accumulates self seconds, calls and counts per ``<module>.<function>``."""

    def __init__(self):
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.hook_errors: Counter[str] = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, totals, hook = self._stack, self.totals, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s = dt - stack.pop()
                if stack:
                    stack[-1] += dt
                totals[name + ".s"] += self_s
                totals[name + ".calls"] += 1
            if hook is not None:
                try:
                    for key, val in hook(args, result, self_s).items():
                        totals[key] += val
                except (IndexError, KeyError, TypeError, OSError):
                    self.hook_errors[name] += 1
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function inside ``ksdlab``."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ksdlab" or n.startswith("ksdlab."))]
        self.missing = []
        for module, funcs in LAYERS.items():
            home = sys.modules.get(f"ksdlab.{module}")
            for func in funcs:
                orig = getattr(home, func, None)
                if orig is None:
                    self.missing.append(f"{module}.{func}")
                    continue
                wrapped = self._wrap(f"{module}.{func}", orig)
                for mod in package:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()
