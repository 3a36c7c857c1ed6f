"""Shared numeric kernels: composite Simpson quadrature, bisection, grid argmax.

Every integral in the package goes through one composite-Simpson rule:
:func:`cumulative_simpson` for running integrals of sampled schedules and
:func:`integrate` for checked definite integrals of vectorised integrands
(QUAD_CELLS = 4096 cells, error tolerance QUAD_TOL relative to the integral
of |f|).

Root finding is bisection-only on purpose: the payoff curves handled here are
frequently piecewise and derivative-based methods misbehave at kinks.

Every maximisation takes the first maximum and never NaN (:func:`first_max`).
:func:`grid_argmax` calls a vectorised f 1 + rounds times (the coarse grid, then each
:func:`refine_argmax` window) at running sums, the points of a scalar ``x += step``
loop, and raises :class:`NumericError` when every grid value is NaN.
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


def first_max(values) -> int:
    """Index of the first largest value; NaN never wins, and all-NaN raises :class:`NumericError`."""
    values = np.asarray(values, dtype=float)
    if values.size and not np.isnan(values.max()):  # no NaN, so argmax is the first maximum
        return int(np.argmax(values))
    numbers = values[~np.isnan(values)]
    if not numbers.size:
        raise NumericError("no value to maximise: every value is NaN")
    return int(np.argmax(values == numbers.max()))


def _running(start: float, step: float, stop: float) -> np.ndarray:
    """start, start + step, ... through the first term past stop: the floats of repeated ``x += step``."""
    terms = np.full(max(int((stop - start) / step), 0) + 3, step)
    terms[0] = start
    return np.add.accumulate(terms)


def grid_argmax(f, lo: float, hi: float, step: float, refine_rounds: int) -> tuple[float, float]:
    """(x, f(x)) maximising a vectorised f on [lo, hi]: one call on the grid lo, lo + step, ...
    (the last point clipped to hi), then ``refine_rounds`` rounds of :func:`refine_argmax`.

    The first maximum wins, so ties go to the smaller x; NaN never wins, and a
    grid whose every value is NaN raises :class:`NumericError`.
    """
    if step <= 0.0:
        raise NumericError("grid step must be positive")
    stop = hi - 1e-15 * max(1.0, abs(hi))
    x = _running(lo, step, stop)
    x = x[: 1 + np.count_nonzero(x < stop)]
    x[1:] = np.minimum(x[1:], hi)
    values = np.asarray(f(x), dtype=float)
    i = first_max(values)
    return refine_argmax(f, lo, hi, x[i], values[i], step, refine_rounds)


def refine_argmax(f, lo: float, hi: float, x: float, v: float, step: float, rounds: int) -> tuple[float, float]:
    """Refine a best point x, v = f(x): each round calls the vectorised f once on
    [x - step, x + step] clipped to [lo, hi] at a tenth of the step, and moves to the
    first maximum of the window and the incumbent in x order (NaN never wins)."""
    for _ in range(rounds):
        window_lo, window_hi = max(lo, x - step), min(hi, x + step)
        step /= 10.0
        stop = window_hi + 1e-15 * max(1.0, abs(window_hi))
        xs = _running(window_lo, step, stop)
        xs = xs[xs <= stop]
        at = int(np.searchsorted(xs, x))  # in x order, so the first maximum has the smallest x
        values = np.insert(np.asarray(f(xs), dtype=float), at, v)
        i = first_max(values)
        x, v = np.insert(xs, at, x)[i], values[i]
    return float(x), float(v)
