"""Shared numeric kernels: composite Simpson quadrature, bisection, grid argmax.

Every integral in the package goes through one composite-Simpson rule:
:func:`cumulative_simpson` for running integrals of sampled schedules and
:func:`integrate` for checked definite integrals of vectorised integrands
(QUAD_CELLS = 4096 cells, error tolerance QUAD_TOL relative to the integral
of |f|).

Root finding is bisection-only on purpose: the payoff curves handled here are
frequently piecewise and derivative-based methods misbehave at kinks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError

QUAD_CELLS = 4096
QUAD_TOL = 1e-10
BISECT_MAX_ITER = 200
BISECT_RESIDUAL = 1e-12


def cumulative_simpson(y, h: float) -> np.ndarray:
    """Running composite-Simpson integral of samples y on a uniform grid of spacing h.

    y has odd length 2c + 1 (cell i spans samples 2i..2i+2); the result holds
    the c + 1 integrals from the first sample to each even-indexed sample.
    """
    y = np.asarray(y, dtype=float)
    cells = h / 3.0 * (y[:-1:2] + 4.0 * y[1::2] + y[2::2])
    return np.concatenate(([0.0], np.cumsum(cells)))


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integrate a vectorised f on [a, b] by composite Simpson on QUAD_CELLS cells.

    f is called once, on the 2 QUAD_CELLS + 1 grid points.  The same rule on
    every other sample gives a half-resolution estimate; when the fine
    estimate's estimated error |fine - coarse|/15 exceeds QUAD_TOL times the
    integral of |f|, or is not finite, the integral is unresolved and
    :class:`NumericError` is raised.  The estimate assumes a smooth integrand,
    and features narrower than the grid spacing (b - a)/(2 QUAD_CELLS) are not
    seen by either estimate.
    """
    if b <= a:
        return 0.0
    x = np.linspace(a, b, 2 * QUAD_CELLS + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / (2 * QUAD_CELLS)
    fine = cumulative_simpson(y, h)[-1]
    coarse = cumulative_simpson(y[::2], 2.0 * h)[-1]
    error = abs(fine - coarse) / 15.0
    if not error <= QUAD_TOL * cumulative_simpson(np.abs(y), h)[-1]:
        raise NumericError(f"integral on [{a}, {b}] unresolved: error estimate {error:.3g}")
    return float(fine)


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    max_iter: int = BISECT_MAX_ITER,
    residual: float = BISECT_RESIDUAL,
) -> float:
    """Bisection root of f on [lo, hi]; requires a sign change on the bracket.

    Raises :class:`NumericError` when ``max_iter`` halvings meet neither the
    residual test nor the bracket-width test.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NumericError(f"no sign change on bracket [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) < residual or hi - lo < residual * max(1.0, abs(mid)):
            return mid
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    raise NumericError(f"bisection unresolved after {max_iter} iterations on [{lo}, {hi}]")


def grid_argmax(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    step: float,
    refine_rounds: int = 3,
) -> tuple[float, float]:
    """Maximise f on [lo, hi]: uniform grid plus local refinement around the best point.

    Each refinement round rescans a +/- one-step window at a tenth of the step.
    Ties break toward the smaller argument, which keeps results deterministic.
    """
    if step <= 0.0:
        raise NumericError("grid step must be positive")
    best_x, best_v = lo, f(lo)
    x = lo
    while x < hi - 1e-15 * max(1.0, abs(hi)):
        x = min(x + step, hi)
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
    return _rescan_window(f, lo, hi, best_x, best_v, step, refine_rounds)


def _rescan_window(f, lo, hi, best_x, best_v, step, rounds):
    """Refine a best point: each round rescans [best_x - step, best_x + step] (clipped
    to [lo, hi]) at a tenth of the step; ties move toward the smaller argument."""
    for _ in range(rounds):
        window_lo = max(lo, best_x - step)
        window_hi = min(hi, best_x + step)
        step /= 10.0
        x = window_lo
        while x <= window_hi + 1e-15 * max(1.0, abs(window_hi)):
            v = f(x)
            if v > best_v or (v == best_v and x < best_x):
                best_x, best_v = x, v
            x += step
    return best_x, best_v


def integer_argmax(f: Callable[[int], float], lo: int, hi: int) -> tuple[int, float]:
    """Exhaustive argmax over integers in [lo, hi]; ties break toward smaller values."""
    best_x = lo
    best_v = f(lo)
    for x in range(lo + 1, hi + 1):
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v
