"""Symmetric aggregative games, their fake-identity extension, and a brute-force
checker for whether splitting into several identities can ever beat playing once.

A game here is a payoff oracle ``phi(own_action, others_aggregate)`` over a
declared action space.  A player controlling several identities collects the sum
of the per-identity payoffs minus an identity-creation cost; the single-identity
comparator folds the identities together with the game's merge rule (``+`` for
quantity-style games, ``max`` for auction-style ones).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedOperationError
from .numerics import _rescan_window

#: Minimum strictly-profitable gain; absorbs floating-point noise.
SYBIL_TOL = 1e-9
#: Local refinement rounds around a continuous-grid candidate, a tenth of the step each.
REFINE_ROUNDS = 3

CONTINUOUS = "continuous"
INTEGER = "integer"


@dataclass(frozen=True)
class ActionSpace:
    """Interval of admissible actions, continuous or integer, with a search grid step."""

    kind: str
    lower: float = 0.0
    upper: Optional[float] = None
    grid_step: float = 1.0

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, INTEGER):
            raise DomainError(f"unknown action-space kind {self.kind!r}")
        if self.lower < 0.0:
            raise DomainError("action-space lower bound must be nonnegative")
        if self.upper is not None and not self.upper > self.lower:
            raise DomainError("action-space upper bound must exceed the lower bound")
        if not self.grid_step > 0.0:
            raise DomainError("grid_step must be positive")
        if self.upper is not None and not math.isfinite((self.upper - self.lower) / self.grid_step):
            raise DomainError("grid is not finite")

    def admissible(self, a: float) -> bool:
        if not math.isfinite(a) or a < self.lower:
            return False
        if self.upper is not None and a > self.upper + 1e-12 * max(1.0, abs(self.upper)):
            return False
        if self.kind == INTEGER and a != int(a):
            return False
        return True

    def grid(self, upper: Optional[float] = None) -> np.ndarray:
        """Search grid over the space; an explicit bound caps it (required when unbounded)."""
        hi = upper if upper is not None else self.upper
        if hi is None:
            raise ConfigurationError("unbounded action space needs an explicit search upper bound")
        if self.upper is not None:
            hi = min(hi, self.upper)
        if self.kind == INTEGER:
            return np.arange(math.ceil(self.lower), math.floor(hi) + 1, dtype=float)
        n_steps = int(math.floor((hi - self.lower) / self.grid_step + 1e-9))
        pts = self.lower + self.grid_step * np.arange(n_steps + 1)
        if pts[-1] < hi - 1e-12 * max(1.0, hi):
            pts = np.append(pts, hi)
        return pts


MERGE_SUM = "sum"
MERGE_MAX = "max"


@dataclass(frozen=True)
class AggregativeGame:
    """Anonymous game whose payoff depends on own action and the others' aggregate.

    ``phi(0, y) == 0`` must hold for every y (inactive identities earn nothing);
    construction spot-checks this.  ``aggregation`` is how the other identities'
    actions combine into phi's second argument (sum for stake and quantity games,
    max for auction-style ones).  ``merge`` is the separate rule that folds a
    player's own identities into one action for the single-identity comparator
    (duplicated bids collapse under max; split stakes add up), or None when the
    game has no such rule.
    """

    phi: Callable[[float, float], float]
    space: ActionSpace
    aggregation: str = MERGE_SUM
    merge: Optional[str] = MERGE_SUM
    name: str = "game"

    def __post_init__(self):
        if self.aggregation not in (MERGE_SUM, MERGE_MAX):
            raise DomainError(f"unknown aggregation rule {self.aggregation!r}")
        if self.merge not in (MERGE_SUM, MERGE_MAX, None):
            raise DomainError(f"unknown merge rule {self.merge!r}")
        for y in (0.0, 1.0, 3.7):
            if self.phi(0.0, y) != 0.0:
                raise DomainError("phi(0, y) must be exactly zero (inactive identities earn zero)")

    def aggregate_others(self, actions: Sequence[float]) -> float:
        if self.aggregation == MERGE_SUM:
            return float(sum(actions))
        return float(max(actions)) if actions else 0.0

    def merge_own(self, actions: Sequence[float]) -> float:
        if self.merge == MERGE_SUM:
            return float(sum(actions))
        if self.merge == MERGE_MAX:
            return float(max(actions)) if actions else 0.0
        raise UnsupportedOperationError(f"game {self.name!r} has no merge rule")


@dataclass(frozen=True)
class SybilCost:
    """Cost of running x own identities while the rest of the world runs y.

    Identity counts are integers in every use below even though the oracle
    accepts reals; the cost must be nondecreasing in x.
    """

    cost: Callable[[float, float], float]

    @staticmethod
    def zero() -> "SybilCost":
        return SybilCost(cost=lambda x, y: 0.0)

    @staticmethod
    def linear(c: float) -> "SybilCost":
        if c < 0.0:
            raise DomainError("identity cost must be nonnegative")
        return SybilCost(cost=lambda x, y: c * x)

    @staticmethod
    def prohibitive() -> "SybilCost":
        """Free single identity, infinitely costly extras: collapses to the base game."""
        return SybilCost(cost=lambda x, y: 0.0 if x <= 1 else math.inf)

    def __call__(self, x: float, y: float) -> float:
        value = self.cost(x, y)
        if value < 0.0:
            raise DomainError("identity cost must be nonnegative")
        return value


@dataclass(frozen=True)
class SybilStrategy:
    """One action per identity; every action must be admissible and strictly positive."""

    actions: tuple[float, ...]

    def __init__(self, actions: Iterable[float]):
        object.__setattr__(self, "actions", tuple(float(a) for a in actions))
        if len(self.actions) < 1:
            raise DomainError("a strategy needs at least one identity")

    def __len__(self) -> int:
        return len(self.actions)


def _check_actions(game: AggregativeGame, actions: Sequence[float], label: str, positive: bool):
    for a in actions:
        if not game.space.admissible(a) or (positive and not a > 0.0):
            raise DomainError(f"{label} action {a!r} is not admissible in the action space")


def _others_aggregate(game: AggregativeGame, mine: Sequence[float], foreign: Sequence[float], j: int) -> float:
    rest = list(foreign) + [a for i, a in enumerate(mine) if i != j]
    return game.aggregate_others(rest)


def sybil_payoff(
    game: AggregativeGame,
    cost: SybilCost,
    mine: SybilStrategy,
    foreign: Sequence[float],
) -> float:
    """Total payoff of a player running one identity per entry of ``mine``.

    Each identity is paid ``phi(a_j, aggregate of everyone else)`` and the player
    pays ``cost(len(mine), len(foreign))`` once.
    """
    _check_actions(game, mine.actions, "own", positive=True)
    _check_actions(game, foreign, "foreign", positive=False)
    total = sum(game.phi(a, _others_aggregate(game, mine.actions, foreign, j)) for j, a in enumerate(mine.actions))
    return total - cost(len(mine), len(foreign))


def merged_payoff(
    game: AggregativeGame,
    mine: SybilStrategy,
    foreign: Sequence[float],
    cost: Optional[SybilCost] = None,
) -> float:
    """Payoff of folding all own identities into a single one via the merge rule.

    This is the single-identity comparator the proofness check measures against;
    when a cost is supplied the single identity still pays ``cost(1, len(foreign))``.
    """
    _check_actions(game, mine.actions, "own", positive=True)
    _check_actions(game, foreign, "foreign", positive=False)
    merged = game.merge_own(mine.actions)
    value = game.phi(merged, game.aggregate_others(list(foreign)))
    if cost is not None:
        value -= cost(1, len(foreign))
    return value


@dataclass(frozen=True)
class SybilVerdict:
    """Outcome of the deviation search: a proof at grid resolution or a counterexample."""

    proof: bool
    mine: Optional[SybilStrategy] = None
    foreign: Optional[tuple[float, ...]] = None
    gain: float = 0.0

    def __bool__(self) -> bool:
        return self.proof


def verify_sybilproof(
    game: AggregativeGame,
    cost: SybilCost,
    max_identities: int,
    foreign_profiles: Sequence[Sequence[float]],
    tol: float = SYBIL_TOL,
    search_upper: Optional[float] = None,
    budget: Optional[float] = None,
) -> SybilVerdict:
    """Exhaustively search multi-identity deviations against each foreign profile.

    Grid-valued strategies with 2..max_identities identities are compared against
    the merged single-identity play; the first strictly profitable one (gain
    beyond ``tol``) is returned.  Continuous grids get local refinement around
    the best candidate (``REFINE_ROUNDS`` rounds, a tenth of the step each).
    """
    if max_identities < 2:
        raise DomainError("max_identities must be at least 2")
    grid = [float(a) for a in game.space.grid(search_upper) if a > 0.0]
    if not grid:
        raise ConfigurationError("search grid contains no positive actions")

    def gain_of(actions: tuple[float, ...], profile: Sequence[float]) -> float:
        if budget is not None and sum(actions) > budget + 1e-12 * max(1.0, budget):
            return -math.inf
        strategy = SybilStrategy(actions)
        return sybil_payoff(game, cost, strategy, profile) - merged_payoff(game, strategy, profile, cost)

    for profile in foreign_profiles:
        profile = tuple(float(a) for a in profile)
        _check_actions(game, profile, "foreign", positive=False)
        best_gain = -math.inf
        best_actions: Optional[tuple[float, ...]] = None
        for m in range(2, max_identities + 1):
            for actions in itertools.combinations_with_replacement(grid, m):
                g = gain_of(actions, profile)
                if g > best_gain:
                    best_gain, best_actions = g, actions
                if g > tol:
                    best_gain, best_actions = _refine(gain_of, actions, profile, game.space)
                    return SybilVerdict(False, SybilStrategy(best_actions), profile, best_gain)
        if best_actions is not None and game.space.kind == CONTINUOUS:
            best_gain, best_actions = _refine(gain_of, best_actions, profile, game.space)
            if best_gain > tol:
                return SybilVerdict(False, SybilStrategy(best_actions), profile, best_gain)
    return SybilVerdict(True)


def prorata_game(f: Callable[[float], float], space: ActionSpace, name: str = "prorata") -> AggregativeGame:
    """Game paying each identity its stake's share of f(total stake).

    Splitting a stake across identities is payoff-neutral here, which is what
    makes the whole family immune to identity splitting.
    """

    def phi(x: float, y: float) -> float:
        if x == 0.0:
            return 0.0
        total = x + y
        return x / total * f(total)

    return AggregativeGame(phi=phi, space=space, merge=MERGE_SUM, name=name)


def headcount_reward_game(R: float) -> AggregativeGame:
    """Reward R split by headcount; each identity's only action is to show up.

    Actions live on {0, 1} and duplicates fold by ``max``: a single player can
    only ever present one head, so merging several unit reports yields one.
    """

    def phi(x: float, y: float) -> float:
        if x == 0.0:
            return 0.0
        return R * x / (x + y)

    space = ActionSpace(INTEGER, lower=0.0, upper=1.0, grid_step=1.0)
    return AggregativeGame(
        phi=phi, space=space, aggregation=MERGE_SUM, merge=MERGE_MAX, name="headcount-reward"
    )


def reward_share_game(
    R: float, c: float, upper: Optional[float] = None, grid_step: float = 0.01
) -> AggregativeGame:
    """Continuous stake game paying R * own/(own+others) - c * own."""
    hi = upper if upper is not None else R / c
    space = ActionSpace(CONTINUOUS, lower=0.0, upper=hi, grid_step=grid_step)
    return prorata_game(lambda s: R - c * s, space, name="reward-share")


def _refine(gain_of, actions, profile, space):
    """Coordinate-wise local refinement of a candidate deviation on continuous spaces.

    Each round rescans every identity's action in turn with one
    :func:`~sybilgames.numerics._rescan_window` round, holding the others fixed.
    """
    actions = tuple(actions)
    best = gain_of(actions, profile)
    if space.kind != CONTINUOUS:
        return best, actions
    hi = space.upper if space.upper is not None else math.inf
    step = space.grid_step
    for _ in range(REFINE_ROUNDS):
        for j in range(len(actions)):
            rest = actions[:j] + actions[j + 1 :]

            def gain_at(a, rest=rest):
                return gain_of(tuple(sorted(rest + (a,))), profile) if a > 0.0 else -math.inf

            a, best = _rescan_window(gain_at, space.lower, hi, actions[j], best, step, 1)
            actions = tuple(sorted(rest + (a,)))
        step /= 10.0
    return best, actions
