"""Equilibrium computation for the aggregative games in this package.

Covers the closed-form symmetric equilibrium of the reward-sharing game, its integer-action
mixed equilibrium (two adjacent actions, indifference solved by bisection, expected payoffs
from the reward-share game's own phi weighted by binomial probabilities), a refined grid
best response that validates closed forms (one response per row of an array of others'
aggregates, so a whole table takes one call), and a grid price-of-anarchy estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import AggregativeGame, reward_share_game
from .errors import DomainError, NumericError
from .numerics import bisect_root, first_max, grid_argmax

BRD_REFINE_ROUNDS = 6


@dataclass(frozen=True)
class SymmetricEquilibrium:
    """All players take the same action; welfare is the n-fold per-player payoff."""

    per_player_action: float
    per_player_payoff: float
    n: int
    welfare: float

    def __post_init__(self):
        expected = self.n * self.per_player_payoff
        if abs(self.welfare - expected) > 1e-9 * max(1.0, abs(expected)):
            raise DomainError("welfare must equal n times the per-player payoff")


@dataclass(frozen=True)
class DiscreteMixedEquilibrium:
    """Mix over two adjacent integer actions; ``residual`` measures the
    equilibrium-condition violation (indifference when interior, the one-sided
    better-response gap at the p in {0, 1} boundaries)."""

    low: int
    high: int
    p: float
    n: int
    residual: float = 0.0

    def __post_init__(self):
        if self.high != self.low + 1:
            raise DomainError("the two mixed actions must be adjacent integers")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError("mixing probability must be in [0, 1]")

    @property
    def interior(self) -> bool:
        return 0.0 < self.p < 1.0


def reward_game_pure_equilibrium(R: float, c: float, n: int) -> SymmetricEquilibrium:
    """Unique symmetric equilibrium of the continuous reward-sharing game, in closed form:
    each player stakes (R/c)(n-1)/n^2 and earns R/n^2, so welfare is R/n."""
    if n < 2:
        raise DomainError("the continuous relaxation needs n >= 2")
    if R <= 0.0 or c <= 0.0:
        raise DomainError("need R > 0 and c > 0")
    return SymmetricEquilibrium((R / c) * (n - 1) / n**2, R / n**2, n, R / n)


def _against_mix(x, low: int, n: int, R: float, c: float) -> np.ndarray:
    """:func:`~sybilgames.core.reward_share_game`'s phi at actions x against n-1 opponents of
    whom j = 0..n-1 play low+1 and the rest low: one call on the (actions, j) array."""
    return reward_share_game(R, c).phi_values(np.asarray(x, dtype=float)[..., None], (n - 1) * low + np.arange(n))


def _binomial(p: float, n: int) -> np.ndarray:
    """Probabilities that j = 0..n-1 of n-1 opponents play low+1, each with probability 1 - p."""
    return np.array([math.comb(n - 1, j) * (1.0 - p) ** j * p ** (n - 1 - j) for j in range(n)])


def reward_game_expected_payoff(x, low: int, p: float, n: int, R: float, c: float):
    """Expected payoff of integer action x, or of each entry of an array of them, against
    n-1 opponents mixing low with probability p and low+1 otherwise: the phi values of
    ``_against_mix`` weighted by the binomial probabilities."""
    out = _against_mix(x, low, n, R, c) @ _binomial(p, n)
    return float(out) if out.ndim == 0 else out


def mixed_deviation_gain(
    eq: DiscreteMixedEquilibrium, R: float, c: float, x_max: Optional[int] = None
) -> float:
    """Best improvement any integer deviation up to x_max achieves over the mix."""
    if x_max is None:
        x_max = 4 * eq.high
    low, high, *values = reward_game_expected_payoff(np.r_[eq.low, eq.high, 0 : x_max + 1], eq.low, eq.p, eq.n, R, c)
    return float(values[first_max(values)] - (eq.p * low + (1.0 - eq.p) * high))


def reward_game_mixed_equilibrium(R: float, c: float, n: int) -> DiscreteMixedEquilibrium:
    """Symmetric equilibrium on the integer grid: mix floor/ceil of the
    continuous equilibrium action, with p solved from the indifference condition.

    When no interior indifference exists (one action dominates the other on the
    candidate support) the boundary pure profile that survives a brute-force
    deviation scan is returned with p in {0, 1}.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if R <= 0.0 or c <= 0.0:
        raise DomainError("need R > 0 and c > 0")
    low = int(math.floor((R / c) * (n - 1) / n**2))
    high = low + 1
    phi = _against_mix([low, high], low, n, R, c)  # no phi call depends on p

    def gap(p: float) -> float:
        low_payoff, high_payoff = phi @ _binomial(p, n)
        return float(low_payoff - high_payoff)

    g0, g1 = gap(0.0), gap(1.0)
    if g0 == 0.0 and g1 == 0.0:
        return DiscreteMixedEquilibrium(low, high, 0.5, n, residual=0.0)
    if g0 * g1 < 0.0:
        p = bisect_root(gap, 0.0, 1.0)
        return DiscreteMixedEquilibrium(low, high, p, n, residual=abs(gap(p)))
    # One action dominates on the support: fall back to the pure boundary.
    for p, violation in ((1.0, max(0.0, -g1)), (0.0, max(0.0, g0))):
        candidate = DiscreteMixedEquilibrium(low, high, p, n, residual=violation)
        if mixed_deviation_gain(candidate, R, c) <= 1e-9:
            return candidate
    raise NumericError("no equilibrium found on the floor/ceil support")


def grid_best_response(game: AggregativeGame, y):
    """Refined grid argmax of phi(., y) on the game's bounded action space, scoring the
    coarse grid and each refinement window with one :meth:`~AggregativeGame.phi_values` call.

    A 1-D array y gives an array of one response per entry, from the row path of
    :func:`~sybilgames.numerics.grid_argmax` (y as a column against the grid), each equal
    bit for bit to the call with that entry alone."""
    others = np.asarray(y, dtype=float)[:, None] if np.ndim(y) else y
    values = lambda a: game.phi_values(a, others)
    return grid_argmax(values, game.space.lower, game.space.upper, game.space.grid_step, BRD_REFINE_ROUNDS)[0]


def grid_welfare_optimum(game: AggregativeGame, n: int) -> float:
    """Supremum of total welfare over symmetric grid profiles, at grid resolution, scored by one
    :meth:`~AggregativeGame.phi_values` call on the whole grid."""
    a = game.space.grid()
    values = n * game.phi_values(a, game.aggregate_values([a] * (n - 1)))
    return float(values[first_max(values)])


def price_of_anarchy(game: AggregativeGame, n: int, eq_welfare: float) -> float:
    """Ratio of the grid welfare optimum to the given equilibrium welfare."""
    return _anarchy_ratio(grid_welfare_optimum(game, n), eq_welfare)


def _anarchy_ratio(w_opt: float, eq_welfare: float) -> float:
    """w_opt / eq_welfare; :class:`DomainError` for nonpositive equilibrium welfare."""
    if eq_welfare <= 0.0:
        raise DomainError("price of anarchy is undefined for nonpositive equilibrium welfare")
    return w_opt / eq_welfare
