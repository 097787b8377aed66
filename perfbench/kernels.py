"""Per-call timings of the inner kernels, at sizes chosen so scaling with n shows.

Each kernel is timed in batches of calls on fixed inputs; the reported time
is the median batch time divided by the batch size, in microseconds.

Bytes per call are computed, not measured: array length x 8 bytes x the
number of length-n float64 arrays the kernel reads or writes at the level of
its own source (inputs, stage results and output; temporaries inside the
functions it calls are not counted), so they are a lower bound on traffic.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from ksdlab import linops, phys, profile, renorm

# length-n arrays named at the kernel's own level, per call
ARRAYS = {
    # psi, grid; k1..k4; three stage inputs; new psi; the residual's F(new)
    "step_renorm": 11,
    # rho_a, rho_b, grid, midpoint, RHS, residual
    "pde_residual": 6,
    # r, Q, f, dQ, g, g', partial-mass integral J, output
    "apply_L": 8,
    # r, g, h, split weight, integrand
    "weighted_inner": 5,
    # the coefficient list Q_0..Q_N (mpmath values, counted as float64)
    "series_recurrence": 1,
}


def per_call_us(fn, calls: int, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def _recurrence_madds(q) -> int:
    """Multiply-adds the recurrence performs: pairs (i, j-i) with both nonzero."""
    nz = [c != 0 for c in q]
    return sum(nz[i] and nz[j - i] for j in range(1, len(q)) for i in range(1, j))


def kernel_metrics(params, prof) -> dict[str, float]:
    """Per-call microseconds and computed bytes for each kernel and size."""
    out = {}

    def put(name, n, us):
        kernel = name.rsplit(".", 1)[-1]
        out[f"kernel.{name}.n{n}.us"] = us
        out[f"kernel.{name}.n{n}.bytes"] = n * 8 * ARRAYS[kernel]

    for n in (1024, 4096):
        state = renorm.make_state(prof, 1e-24, n=n)
        h = state.grid[1] - state.grid[0]
        dt = renorm.dt_policy(h, state.lam, params, state.grid[-1])
        put("renorm.step_renorm", n,
            per_call_us(lambda: renorm.step_renorm(state, prof, params, dt), 10))

    for n in (1024, 8192):
        st = phys.build_initial(prof, 1e-8, n=n)
        a, b = (0.0, st.grid, st.rho), (1e-20, st.grid, st.rho)
        put("phys.pde_residual", n,
            per_call_us(lambda: phys.pde_residual(a, b, params.mu), 20))

    quad = linops.RadialQuad.make()
    w = linops.select_weight(prof, params.j0, A=36)
    g = linops.make_test_suite(w.A, count=1)[0].to_polygauss()
    Lg = linops.apply_L(prof, params, g, quad)
    n = len(quad.r)
    put("linops.apply_L", n,
        per_call_us(lambda: linops.apply_L(prof, params, g, quad), 10))
    put("linops.weighted_inner", n,
        per_call_us(lambda: linops.weighted_inner(Lg, g, w, quad), 10))

    N = 400
    q = profile.series_recurrence(params.mu, params.beta, N, j0=params.j0, q_j0=params.q_j0)
    us = per_call_us(lambda: profile.series_recurrence(
        params.mu, params.beta, N, j0=params.j0, q_j0=params.q_j0), 1, repeats=3)
    out[f"kernel.profile.series_recurrence.N{N}.us"] = us
    out[f"kernel.profile.series_recurrence.N{N}.bytes"] = (N + 1) * 8 * ARRAYS["series_recurrence"]
    out[f"kernel.profile.series_recurrence.N{N}.madds"] = _recurrence_madds(q)
    return out
