"""Uniform-grid radial quadrature shared by the time loops and the operator probes."""

from __future__ import annotations

import math

import numpy as np


def cumulative_simpson_uniform(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` on a uniform grid of spacing ``h``, from 0.

    Uses the sub-interval rule of ``scipy.integrate.cumulative_simpson``:
    ``h/12 (5 y_i + 8 y_{i+1} - y_{i+2})`` on even intervals, the mirrored rule
    on odd intervals and on the last one, so the two agree to round-off.
    Needs at least 3 nodes.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    e0, o, e2 = y[:-2:2], y[1:-1:2], y[2::2]
    sub = np.empty(n - 1)
    sub[:-1:2] = 1.25 * e0 + 2.0 * o - 0.25 * e2
    sub[1::2] = 1.25 * e2 + 2.0 * o - 0.25 * e0
    sub[-1] = 1.25 * y[-1] + 2.0 * y[-2] - 0.25 * y[-3]
    out = np.zeros(n)
    np.cumsum(sub * (h / 3.0), out=out[1:])
    return out


def l2_norm(v: np.ndarray, grid: np.ndarray) -> float:
    """Radial L2 norm ``sqrt(4 pi int v^2 r^2 dr)`` by the trapezoid rule on ``grid``."""
    return math.sqrt(4.0 * math.pi * np.trapezoid(v * v * grid * grid, grid))
