"""Analytic 1D semilinear-heat toy: explicit profile, operator, and coercivity.

The model blowup profile ``U_*(y) = (1 + c y^{2m})^{-1}`` solves

    -U - (1/(2m)) y U' + U^2 = 0,

and its linearization ``L e = -e - (1/(2m)) y e' + 2 U_* e`` is coercive in the
weighted space with ``Theta(y) = y^{-4m-4}`` (plus a small flat part kappa).
Everything here is closed-form, which makes the module an oracle for the
integral identities used by the full nonlocal operator probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linops import (
    PolyGauss,
    RadialQuad,
    SampledRadial,
    TestFunction,
    _probe,
    _probe_suite,
    _sample,
    _sample_slope,
    _WeightedL2,
)


@dataclass(frozen=True)
class HeatParams:
    """(m, c): vanishing order and profile parameter; weight Theta = y^{-4m-4}."""

    m: int
    c: float = 1.0

    def __post_init__(self):
        if not float(self.m).is_integer() or self.m < 2:
            raise DomainError("m must be an integer >= 2")
        if self.c <= 0:
            raise DomainError("c must be positive")

    @property
    def theta_exponent(self) -> int:
        return 4 * self.m + 4

    @property
    def min_vanish_order(self) -> int:
        """Least even vanishing order keeping e^2 Theta integrable near 0: 2m + 2."""
        return _WeightedL2.least_order(self.theta_exponent, 0)


def heat_profile(p: HeatParams, y):
    """Closed-form profile ``U_*(y) = (1 + c y^{2m})^{-1}``."""
    y = np.asarray(y, dtype=float)
    return 1.0 / (1.0 + p.c * y ** (2 * p.m))


def _heat_L_vals(p: HeatParams, y: np.ndarray, u2: np.ndarray, ev: np.ndarray, dv: np.ndarray):
    """``L e`` on the grid from the samples of ``e`` and ``e'``; ``u2`` is ``2 U_*(y)``."""
    return -ev - y * dv / (2.0 * p.m) + u2 * ev


def heat_apply_L(
    p: HeatParams,
    eps: PolyGauss | SampledRadial,
    quad: RadialQuad,
) -> SampledRadial:
    """Sample ``L e = -e - (1/(2m)) y e' + 2 U_* e`` on the quadrature grid."""
    y = quad.r
    ev, dv, p_ord = _sample_slope(eps, quad)
    vals = _heat_L_vals(p, y, 2.0 * heat_profile(p, y), ev, dv)
    return SampledRadial(r=y, vals=vals, vanish_order=p_ord)


def heat_weighted_inner(
    p: HeatParams,
    a: PolyGauss | SampledRadial,
    b: PolyGauss | SampledRadial,
    kappa: float,
    quad: RadialQuad,
) -> float:
    """``\\int_0^inf a b (y^{-4m-4} + kappa) dy`` on the log grid.

    Raises DivergentIntegrand unless ``pa + pb >= 4m + 4``.
    """
    av, pa = _sample(a, quad)
    bv, pb = _sample(b, quad)
    return _WeightedL2(quad, p.theta_exponent, 0).pair(av, pa, bv, pb, kappa)


def heat_multiplier_route(
    p: HeatParams,
    eps: PolyGauss,
    kappa: float,
    quad: RadialQuad,
) -> float:
    """Integration-by-parts route to ``(L e, e)_{Theta+kappa}``.

    Using ``-(1/(2m)) \\int y e' e W = (1/(4m)) \\int e^2 (y W)'`` with
    ``(y Theta)' = -(4m+3) Theta``:

        (L e, e) = \\int e^2 [ (-1 + 2 U_*)(Theta+kappa)
                              - ((4m+3)/(4m)) Theta + kappa/(4m) ],

    from the fine-node Gram block of ``(2 U_* - 1) e`` and ``e`` against ``e``.
    """
    ev, p_ord = _sample(eps, quad)
    rows = np.stack(((2.0 * heat_profile(p, quad.r) - 1.0) * ev, ev))
    core = _WeightedL2(quad, p.theta_exponent, 0)
    (su, se), (fu, fe) = core.grams(rows, p_ord, ev[None], p_ord)[0, :, :, 0]  # fine nodes
    c = (4.0 * p.m + 3.0) / (4.0 * p.m)
    return float(su + kappa * fu - c * se + kappa / (4.0 * p.m) * fe)


def make_heat_suite(p: HeatParams, count: int = 50, seed: int = 777) -> list[TestFunction]:
    """Randomized admissible 1D probe functions (same family as the 3D suite)."""
    return _probe_suite(p.min_vanish_order, count, seed)


def heat_coercivity(
    p: HeatParams,
    suite: list[TestFunction],
    quad: RadialQuad | None = None,
) -> dict:
    """Rayleigh quotients under Theta+kappa; keeps the largest admissible kappa
    of 1e-1, 1e-2, ..., 1e-6.

    Returns the chosen kappa and per-function records; every quotient at the
    accepted kappa is finite and <= -1/(4m) + 1e-3.  When no kappa passes, the
    smallest one is reported with its flagged records.  Each ``(p, s)`` family
    of the suite is sampled once per call, whatever the number of kappas tried.
    """
    core = _WeightedL2(quad, p.theta_exponent, 0)
    y = core.quad.r
    u2 = 2.0 * heat_profile(p, y)

    def L(_p, _s, e, de):  # the family enters only through its rows
        return _heat_L_vals(p, y, u2, e, de)

    kappa, records, all_pass = _probe(suite, core, L, [10.0**-k for k in range(1, 7)],
                                      -1.0 / (4.0 * p.m) + 1e-3)
    return {"kappa": kappa, "records": records, "all_pass": all_pass}
