"""Shared numeric kernels: adaptive Simpson quadrature, bisection, grid argmax.

Root finding is bisection-only on purpose: the payoff curves handled here are
frequently piecewise and derivative-based methods misbehave at kinks.
"""

from __future__ import annotations

from typing import Callable

from .errors import NumericError

BISECT_MAX_ITER = 200
BISECT_RESIDUAL = 1e-12


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> float:
    """Integrate f on [a, b] with adaptive Simpson to absolute tolerance tol."""
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _simpson_rec(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


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
