"""Reward-distribution mechanisms: splitting a reward R among self-reported
identities so that registering extra identities never pays.

The proofness condition for a split schedule r is
``r(1+y)/(1+y) >= x * r(x+y)/(x+y)`` for every x >= 1, y >= 0; the welfare-optimal
schedule satisfying it is ``n R / 2^(n-1)`` ("shrink the pie as the crowd grows").
:func:`check_reward_sybilproof` tests it with :func:`~sybilgames.core.count_verdict`:
a violation is a gain above the tolerance, the witness the first failing y with its best x.
Also here: the tent-shaped pro-rata curves whose equilibrium welfare approaches R
when the player count is common knowledge (the symmetric equilibrium in closed
form, on the descending branch or at the kink, and every player count of a table
validated by one batched grid best response), and the unique dominant-strategy
pro-rata curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import CONTINUOUS, ActionSpace, AggregativeGame, CountVerdict, count_verdict, prorata_game
from .equilibrium import SymmetricEquilibrium, grid_best_response
from .errors import DomainError, NumericError


@dataclass(frozen=True)
class RewardMechanism:
    """Reward split schedule: r(n) is shared equally among n reported identities."""

    r: Callable[[int], float]
    R: float

    def __post_init__(self):
        if self.R < 0.0:
            raise DomainError("reward cap must be nonnegative")


def max_sybilproof_reward(n: int, R: float) -> float:
    """Largest total reward a proof mechanism may pay out to n identities: n R / 2^(n-1)."""
    if n < 1:
        raise DomainError("need n >= 1")
    if R < 0.0:
        raise DomainError("need R >= 0")
    return math.ldexp(n * R, 1 - n)


def rmax_mechanism(R: float) -> RewardMechanism:
    return RewardMechanism(r=lambda n: max_sybilproof_reward(n, R), R=R)


def constant_mechanism(R: float) -> RewardMechanism:
    return RewardMechanism(r=lambda n: R, R=R)


def check_reward_sybilproof(
    mech: RewardMechanism, x_max: int = 64, y_max: int = 64, tol: float = 1e-12
) -> CountVerdict:
    """Bounded check that a split schedule admits no profitable identity split.

    An r(n) outside [0, R] (or NaN), n <= x_max + y_max, raises :class:`DomainError`
    naming it.  Otherwise the (y = 0..y_max, x = 1..x_max) table x r(x+y)/(x+y) goes
    through :func:`~sybilgames.core.count_verdict` at ``tol``.  The condition
    quantifies over all integers; the bounds are explicit and adjustable.
    """
    if x_max < 2:
        raise DomainError("x_max must be at least 2")
    if y_max < 0:
        raise DomainError("y_max must be nonnegative")
    r = [mech.r(total) for total in range(1, x_max + y_max + 1)]
    for total, value in enumerate(r, 1):
        if not -1e-12 <= value <= mech.R * (1.0 + 1e-12):
            raise DomainError(f"r({total}) = {value} outside [0, R]")
    x = np.arange(1, x_max + 1)
    total = x + np.arange(y_max + 1)[:, None]
    return count_verdict(x * np.array(r, dtype=float)[total - 1] / total, tol)


@dataclass(frozen=True)
class DominantProrataCurve:
    """The unique smooth pro-rata curve whose prescribed stake is dominant.

    f(x) = (R e / K) x exp(-x/K); the per-player best response is K regardless
    of the others' total, and the peak value is exactly R at x = K.
    """

    R: float
    K: float

    def __post_init__(self):
        if not (self.R > 0.0 and self.K > 0.0):  # also a NaN parameter
            raise DomainError("need R > 0 and K > 0")

    def __call__(self, x: float) -> float:
        return (self.R * math.e / self.K) * x * math.exp(-x / self.K)

    def welfare(self, n: int) -> float:
        """Equilibrium welfare with n players, f(nK) = R n e^(1-n)."""
        return self(n * self.K)


def dominant_strategy_prorata(R: float, K: float) -> DominantProrataCurve:
    return DominantProrataCurve(R=R, K=K)


@dataclass(frozen=True)
class TentFunction:
    """Piecewise-linear pro-rata curve rising to R at K-epsilon and hitting zero at K."""

    R: float
    K: float
    epsilon: float

    def __post_init__(self):
        if not (self.R > 0.0 and self.K > 0.0):  # also a NaN parameter
            raise DomainError("need R > 0 and K > 0")
        if not 0.0 < self.epsilon < self.K:
            raise DomainError("epsilon must lie strictly between 0 and K")

    @property
    def peak(self) -> float:
        return self.K - self.epsilon

    def __call__(self, x):
        """The curve at x, elementwise on an array; a float gives a float."""
        value = np.where(x <= self.peak, self.R * x / self.peak, self.R * (self.K - x) / self.epsilon)
        return value if np.ndim(x) else float(value)


def tent_game(tent: TentFunction) -> AggregativeGame:
    space = ActionSpace(CONTINUOUS, 0.0, tent.K, tent.K / 400.0)
    return prorata_game(tent, space, name="tent")


def tent_equilibria(tent: TentFunction, ns: Iterable[int]) -> list[SymmetricEquilibrium]:
    """Symmetric equilibria of the pro-rata game with a tent curve, one per player count in ns.

    At the symmetric aggregate q the player's payoff x f(q)/q, x = q/n, has left
    derivative R/peak > 0 at the kink q = peak = K - eps and right derivative
    (R/peak)(n-1)/n - R/(n eps), which is <= 0 exactly when n eps <= K.  So the
    aggregate is the descending branch's first-order root q = K (n-1)/n when it lands
    in (peak, K), i.e. when eps > K/n, and the kink q = peak otherwise; the two meet
    at n eps = K.  Every closed form is validated by one row-batched grid best response
    to the others' aggregates (n-1) x, which must land within 1e-4 K of x; otherwise
    :class:`NumericError` names the first n that failed.
    """
    ns = list(ns)
    if any(n < 2 for n in ns):
        raise DomainError("need n >= 2")
    if not ns:
        return []
    K, peak = tent.K, tent.peak
    eqs = []
    for n in ns:
        q = K * (n - 1) / n
        if not peak < q < K:
            q = peak
        eqs.append(SymmetricEquilibrium(q / n, tent(q) / n, n, tent(q)))
    x = np.array([eq.per_player_action for eq in eqs])
    response = grid_best_response(tent_game(tent), (np.array(ns) - 1) * x)
    off = np.abs(response - x) > 1e-4 * K
    if off.any():
        raise NumericError(f"tent equilibrium for n = {ns[int(np.argmax(off))]} failed the best-response validation")
    return eqs
