"""Independent oracles used by the tests: brute-force search, quadrature, and
finite differences that deliberately avoid the package's own numeric kernels."""

from __future__ import annotations

import itertools
import math

import numpy as np


def golden_max(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 300) -> float:
    """Golden-section argmax of a unimodal function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def grid_search_max(f, lo: float, hi: float, step: float) -> float:
    """Plain grid argmax, first maximiser wins."""
    xs = np.arange(lo, hi + step / 2.0, step)
    values = [f(float(x)) for x in xs]
    return float(xs[int(np.argmax(values))])


def midpoint_quad(f, a: float, b: float, n: int = 20001) -> float:
    """Composite midpoint rule; slow but structurally unlike adaptive Simpson."""
    xs = np.linspace(a, b, n + 1)
    mids = 0.5 * (xs[:-1] + xs[1:])
    return float(np.sum([f(float(m)) for m in mids]) * (b - a) / n)


def first_profitable_split(game, cost, max_identities, profiles, tol, budget=None):
    """Scalar split search: (profitable, actions, profile, gain, multisets scanned).

    One ``sybil_payoff - merged_payoff`` call per grid multiset, in the order
    profiles, identity count, then ``combinations_with_replacement``.  The first
    gain above ``tol`` is returned; otherwise the first largest gain (NaN never
    wins), or ``(False, None, None, -inf, count)`` when a budget excluded all.
    """
    from sybilgames.core import SybilStrategy, merged_payoff, sybil_payoff

    grid = [float(a) for a in game.space.grid() if a > 0.0]
    best = (False, None, None, -math.inf)
    scanned = 0
    for profile in profiles:
        profile = tuple(float(a) for a in profile)
        for m in range(2, max_identities + 1):
            for actions in itertools.combinations_with_replacement(grid, m):
                scanned += 1
                if budget is not None and sum(actions) > budget + 1e-12 * max(1.0, budget):
                    continue
                mine = SybilStrategy(actions)
                gain = sybil_payoff(game, cost, mine, profile) - merged_payoff(game, mine, profile, cost)
                if gain > tol:
                    return True, actions, profile, gain, scanned
                if gain > best[3]:
                    best = (False, actions, profile, gain)
    return best + (scanned,)


def central_diff(f, x: float, h: float = 1e-4) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def random_measure(rng: np.random.Generator, max_segments: int = 6):
    """Random piecewise-constant probability density on [0, 1]."""
    from sybilgames.cake import PiecewiseMeasure

    m = int(rng.integers(1, max_segments + 1))
    inner = np.sort(rng.random(m - 1))
    breakpoints = np.concatenate(([0.0], inner, [1.0]))
    densities = rng.random(m) + 0.05
    mass = float(np.sum(densities * np.diff(breakpoints)))
    return PiecewiseMeasure(breakpoints, densities / mass)
