"""Shared numeric kernels: composite Simpson quadrature, bisection, grid argmax.

Every integral in the package goes through one composite-Simpson rule:
:func:`cumulative_simpson` for running integrals at ``RingModel``'s nodes (a bid between
nodes adds one Simpson cell from the node below) and :func:`integrate` for checked definite
integrals of vectorised integrands (QUAD_CELLS = 4096 cells, error tolerance QUAD_TOL
relative to the integral of |f|).  :func:`integrate` needs only totals: ``_nested_totals`` forms the rule's
totals on every sample, every 2nd and every 4th from strided pairwise sums instead of
running sums, the fine one equal to ``cumulative_simpson``'s last entry to rounding.
One error test judges every checked integral (``_check_resolved``): the observed-order
bound of the three totals (``_observed_error``) must be at most QUAD_TOL times a scale.
The same rule as three rows of weights on the samples of a given number of cells
(``_simpson_weights``) serves integrands linear in parameters, such as
``RingModel.expected_profit``'s on the model's nodes.  ``ring_transfer`` climbs nested
levels of the rule up to QUAD_CELLS cells, reusing each level's samples and sampling only
the new midpoints (``_finer_samples``), and stops at the first level the bound certifies.
On 1-D samples (``integrate`` on one integrand, every level of ``ring_transfer``) the
totals and the bound are Python floats: the same IEEE arithmetic as numpy scalars, without
their cost per operation.

Root finding is bisection-only on purpose: the payoff curves handled here are
frequently piecewise and derivative-based methods misbehave at kinks.

Every maximisation takes the first maximum and never NaN (:func:`first_max`).
:func:`grid_argmax` calls a vectorised f 1 + rounds times (the coarse grid, then each
:func:`refine_argmax` window) at running sums, the points of a scalar ``x += step``
loop, and raises :class:`NumericError` when every grid value is NaN.  Each refinement
round takes the window's first maximum and keeps the incumbent when it beats that
maximum or ties it and comes first in x order: the first maximum of the window and the
incumbent in x order, so a tie keeps the incumbent.  A 1-D refinement runs as one row.

Row axis: the maximisers and the quadrature also run many problems at once.  When
f returns a (rows, points) array for the coarse grid, :func:`grid_argmax` returns one
(x, f(x)) per row, calling f with a (rows, points) array of per-row windows in each
refinement round; :func:`first_max` selects per row of a 2-D array, and
:func:`cumulative_simpson` and :func:`integrate` work along the last axis, with the
error check applied to each row.  Every row reproduces the 1-D call bit for bit.
"""

from __future__ import annotations

import functools
import os
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError

QUAD_CELLS = 4096
QUAD_TOL = 1e-10
BISECT_MAX_ITER = 200
BISECT_RESIDUAL = 1e-12
_RAMP = np.arange(2 * QUAD_CELLS + 1, dtype=float)  # integrate's sample indices 0, 1, ..., 2 QUAD_CELLS


@functools.cache
def _helper():
    """The package's one worker thread, shared by ``RingModel``'s IC ratio builds and the CLI's cake
    body rendering: started on first use and kept for the process; concurrent.futures is imported here,
    so importing the package does not pay for it.  A forked child drops it and starts its own: it has no
    copy of the thread."""
    from concurrent.futures import ThreadPoolExecutor

    if hasattr(os, "register_at_fork"):
        os.register_at_fork(after_in_child=_helper.cache_clear)
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="sybilgames-helper")


def _left_sum(values):
    """``0.0 + v0 + v1 + ...`` in order, on floats or elementwise on arrays: every sum of actions
    or slice values in the package, so ``core.verify_sybilproof``'s array scan rounds as the scalar
    payoffs do, and Python 3.12's compensated ``sum`` cannot change a byte."""
    total = 0.0
    for v in values:
        total = total + v
    return total


def cumulative_simpson(y, h: float) -> np.ndarray:
    """Running composite-Simpson integral of samples y on a uniform grid of spacing h.

    The last axis of y has odd length 2c + 1 (cell i spans samples 2i..2i+2); the
    result holds, row by row, the c + 1 integrals from the first sample to each
    even-indexed sample.
    """
    y = np.asarray(y, dtype=float)
    cells = h / 3.0 * (y[..., :-1:2] + 4.0 * y[..., 1::2] + y[..., 2::2])
    out = np.zeros(cells.shape[:-1] + (cells.shape[-1] + 1,))
    np.cumsum(cells, axis=-1, out=out[..., 1:])
    return out


# _nested_totals' strided sums: the odd samples, the samples 2 mod 4, 4 mod 8 and the interior 0 mod 8
_STRIDES = slice(1, None, 2), slice(2, None, 4), slice(4, None, 8), slice(8, -1, 8)


def _simpson_weights(h: float, cells: int) -> np.ndarray:
    """(3, 2 cells + 1) weights of integrate's rule on ``cells`` cells (a multiple of 4) at spacing
    h: the sum of row 0 (1, 2) times the samples is the fine (coarse, coarser) total of
    ``_nested_totals``, to rounding.

    A caller whose integrand is linear in some parameters folds these weights into them
    once instead of sampling the integrand for every parameter value.
    """
    odd, two, four, eight = _STRIDES
    w = np.zeros((3, 2 * cells + 1))
    w[:, [0, -1]] = 1.0
    w[0, odd], w[0, two], w[0, four], w[0, eight] = 4.0, 2.0, 2.0, 2.0
    w[1, two], w[1, four], w[1, eight] = 4.0, 2.0, 2.0
    w[2, four], w[2, eight] = 4.0, 2.0
    return w * (h / 3.0 * np.array([[1.0], [2.0], [4.0]]))


def _quadrature_points(a: float, b: float, cells: int = QUAD_CELLS):
    """(x, h): the 2 cells + 1 points of composite Simpson on ``cells`` cells of [a, b]
    (integrate's, by default), equal to ``np.linspace(a, b, 2 cells + 1)`` bit for bit,
    and their spacing h.  A spacing that underflows to 0 raises :class:`NumericError`."""
    h = _step(a, b, cells)
    x = _points(_RAMP[: 2 * cells + 1], h, a)
    x[-1] = b
    return x, h


def _step(a: float, b: float, cells: int) -> float:
    """The spacing (b - a)/(2 cells) of ``cells`` Simpson cells on [a, b]; :class:`NumericError` when it
    underflows to 0."""
    h = (b - a) / (2 * cells)
    if h == 0.0:
        raise NumericError(f"integral on [{a}, {b}] unresolved: the step (b - a)/{2 * cells} underflows to 0")
    return h


def _points(ramp: np.ndarray, h: float, a: float) -> np.ndarray:
    """ramp h + a, np.linspace's own steps; a = 0 adds nothing, since x + 0.0 == x."""
    x = ramp * h
    if a:
        x += a
    return x


def _finer_samples(f, y, a: float, b: float):
    """(samples, h) of a vectorised f on the ``_quadrature_points`` of [a, b] with twice y's cells:
    y on the even points (a halved step keeps them bit for bit) and f called on the new midpoints
    only, built as the odd points alone (the same floats as the full array's odd entries)."""
    cells = len(y) - 1
    h = _step(a, b, cells)
    out = np.empty(2 * cells + 1)
    out[::2], out[1::2] = y, f(_points(_RAMP[1 : 2 * cells : 2], h, a))
    return out, h


def _nested_totals(y: np.ndarray, h: float):
    """(fine, coarse, coarser) composite-Simpson totals along the last axis of samples y (length
    8c + 1) at spacing h, 2h and 4h, from pairwise sums of the ``_STRIDES`` slices and the ends.
    1-D samples give Python floats: the same IEEE arithmetic as on numpy scalars, at a fraction of
    the cost per operation."""
    if y.ndim == 1:
        odd, two, four, eight = [float(np.add.reduce(y[s])) for s in _STRIDES]
        ends = float(y[0]) + float(y[-1])
    else:
        odd, two, four, eight = [np.add.reduce(y[..., s], -1) for s in _STRIDES]
        ends = y[..., 0] + y[..., -1]
    return (
        h / 3.0 * (ends + 4.0 * odd + 2.0 * (two + four + eight)),
        2.0 * h / 3.0 * (ends + 4.0 * two + 2.0 * (four + eight)),
        4.0 * h / 3.0 * (ends + 4.0 * four + 2.0 * eight),
    )


def _observed_error(fine, coarse, coarser):
    """Error bound of the fine total at the order three nested totals show.  With d1 = |fine - coarse|,
    d2 = |coarse - coarser| and rho = d2/d1 (2^p for an error C H^p): 2 d1/(min(rho, 16) - 1) when
    rho > 2, else 2 max(d1, d2).  The 2 covers rho's drift before the asymptotic regime (fractional
    powers at an end); a NaN total gives a NaN bound, which fails every test.  Arrays of totals
    give one bound per element, floats one float."""
    d1, d2 = abs(fine - coarse), abs(coarse - coarser)
    if isinstance(d1, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):  # the d1 = 0 elements take d1
            ordered = np.where(d1 > 0.0, 2.0 * d1 / (np.minimum(d2, 16.0 * d1) / d1 - 1.0), d1)
        return np.where(d2 > 2.0 * d1, ordered, 2.0 * np.maximum(d1, d2))
    # floats: ring_transfer's test at every level of every bid
    if d2 > 2.0 * d1:
        return 2.0 * d1 / (min(d2, 16.0 * d1) / d1 - 1.0) if d1 else d1  # rho capped before it can overflow
    return 2.0 * (max(d1, d2) if d2 == d2 else d2)  # max keeps a NaN d1 but not a NaN d2


def _check_resolved(totals, scale, a: float, b: float) -> None:
    """Raise :class:`NumericError` unless every row's observed-order bound on the fine total of
    the nested ``totals`` (``_observed_error``) is at most QUAD_TOL times its scale (so a NaN
    fails); the error names the first unresolved row of an array.  Float totals are one row."""
    error = _observed_error(*totals)
    unresolved = ~np.less_equal(error, QUAD_TOL * scale)
    if unresolved.any():
        row = tuple(int(i) for i in np.argwhere(unresolved)[0])
        where = f" in row {row[0] if len(row) == 1 else row}" if row else ""
        estimate = np.asarray(error)[row]
        raise NumericError(f"integral on [{a}, {b}] unresolved{where}: error estimate {estimate:.3g}")


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Integrate a vectorised f on [a, b] by composite Simpson on QUAD_CELLS cells.

    f is called once, on the 2 QUAD_CELLS + 1 points of ``_quadrature_points``;
    a step (b - a)/(2 QUAD_CELLS) that underflows to 0 raises :class:`NumericError`
    without calling f.  The samples are made C-contiguous; the fine total and the
    same rule's totals on every second and every fourth sample are strided pairwise
    sums along the last axis (``_nested_totals``), equal to ``cumulative_simpson``'s
    last entry to rounding (a running sum rounds in another order).  When the
    observed-order bound on the fine total's error (``_observed_error``) exceeds
    QUAD_TOL times the integral of |f| (the fine total itself when no sample is
    negative), or is not finite, the integral is unresolved and
    :class:`NumericError` is raised (``_check_resolved``).  The bound reads the
    order off the three totals, so an endpoint power that slows convergence raises
    it; features narrower than the grid spacing (b - a)/(2 QUAD_CELLS) are not
    seen by any of the totals.

    When f returns leading row axes, the result is an array of one integral per
    row, each checked on its own; the error names the first unresolved row.
    b == a gives 0.0 without calling f, and b < a raises :class:`DomainError`.
    """
    if b < a:
        raise DomainError(f"integration range [{a}, {b}] is reversed")
    if b == a:
        return 0.0
    x, h = _quadrature_points(a, b)
    # C order: numpy sums a Fortran-ordered last axis in another order than the 1-D call
    y = np.ascontiguousarray(f(x), dtype=float)
    totals = _nested_totals(y, h)
    fine = totals[0]
    # |f| = f on nonnegative samples; a NaN fails the test and takes the |f| path
    scale = fine if y.min() >= 0.0 else _nested_totals(np.abs(y), h)[0]
    _check_resolved(totals, scale, a, b)
    return fine


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


def first_max(values):
    """Index of the first largest value, per row of a 2-D array; NaN never wins, and a
    row whose every value is NaN raises :class:`NumericError`."""
    values = np.asarray(values, dtype=float)
    if values.size and not np.isnan(values.max()):  # no NaN, so argmax is the first maximum
        best = np.argmax(values, axis=-1)
    else:
        nan = np.isnan(values)
        empty = nan.all(axis=-1)
        if empty.any():
            row = "" if values.ndim == 1 else f" in row {int(np.argmax(empty))}"
            raise NumericError(f"no value to maximise: every value is NaN{row}")
        top = np.where(nan, -np.inf, values).max(axis=-1, keepdims=True)
        best = np.argmax(values == top, axis=-1)
    return int(best) if values.ndim == 1 else best


def _at(a: np.ndarray, i: np.ndarray) -> np.ndarray:
    """a[r, i[r]] for every row r of a 2-D a."""
    return a[np.arange(len(a)), i]


def _running(start, step: float, stop) -> np.ndarray:
    """start, start + step, ... through the first term past stop: the floats of repeated ``x += step``.

    With arrays start and stop, one such run per row, each continued to the longest row's length.
    """
    span = (stop - start) / step
    rows = getattr(span, "shape", ())
    terms = np.full((max(int(span.max() if rows else span), 0) + 3,) + rows, step)
    terms[0] = start
    return np.add.accumulate(terms).T


def grid_argmax(f, lo: float, hi: float, step: float, refine_rounds: int):
    """(x, f(x)) maximising a vectorised f on [lo, hi]: one call on the grid lo, lo + step, ...
    (the last point clipped to hi), then ``refine_rounds`` rounds of :func:`refine_argmax`.

    The first maximum wins, so ties go to the smaller x; NaN never wins, and a
    grid whose every value is NaN raises :class:`NumericError`.  When f maps the
    grid to a (rows, points) array, x and f(x) are arrays of one maximum per row.
    """
    if step <= 0.0:
        raise NumericError("grid step must be positive")
    stop = hi - 1e-15 * max(1.0, abs(hi))
    x = _running(lo, step, stop)
    x = x[: 1 + np.count_nonzero(x < stop)]
    x[1:] = np.minimum(x[1:], hi)
    values = np.asarray(f(x), dtype=float)
    i = first_max(values)
    return refine_argmax(f, lo, hi, x[i], values[i] if values.ndim == 1 else _at(values, i), step, refine_rounds)


def refine_argmax(f, lo: float, hi: float, x, v, step: float, rounds: int):
    """Refine a best point x, v = f(x): each round calls the vectorised f once on
    [x - step, x + step] clipped to [lo, hi] at a tenth of the step and takes the
    window's first maximum (NaN never wins).  The incumbent stays when its value beats
    that maximum, ties it and comes first in x order (``count(window < x)`` at most
    the maximum's index), or the window holds no number; so the result is the first
    maximum of the window and the incumbent in x order, and a tie keeps the incumbent.

    With arrays x and v (one best point per row), each round calls f once with a
    (rows, points) array of the rows' windows, shorter windows padded by repeating
    their last point, and the result is one (x, v) per row; scalar x and v run as one
    row, calling f with that row's 1-D window.
    """
    rows = np.ndim(x) == 1
    x, v = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(v, dtype=float))
    index = np.arange(len(x))
    for _ in range(rounds):
        window_lo, window_hi = np.maximum(lo, x - step), np.minimum(hi, x + step)
        step /= 10.0
        stop = window_hi + 1e-15 * np.maximum(1.0, np.abs(window_hi))
        xs = _running(window_lo, step, stop)
        count = np.add.reduce(xs <= stop[:, None], axis=1)  # each window is a prefix
        # shorter windows repeat their last point, and a repeat never beats its first occurrence
        xs = np.minimum(xs[:, : count.max()], xs[index, count - 1][:, None])
        values = np.asarray(f(xs if rows else xs[0]), dtype=float).reshape(xs.shape)
        top = np.fmax.reduce(values, axis=1)  # NaN only where every value is NaN
        i = np.argmax(values == top[:, None], axis=1)  # the window's first maximum
        at = np.add.reduce(xs < x[:, None], axis=1)  # the incumbent's place in x order
        keep = (v > top) | ((v == top) & (at <= i)) | np.isnan(top)
        x, v = np.where(keep, x, xs[index, i]), np.where(keep, v, values[index, i])
    return (x, v) if rows else (float(x[0]), float(v[0]))
