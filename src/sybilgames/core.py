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

from .errors import ConfigurationError, DomainError, NumericError, UnsupportedOperationError
from .numerics import _left_sum, first_max, refine_argmax

#: Minimum strictly-profitable gain; absorbs floating-point noise.
SYBIL_TOL = 1e-9
#: Local refinement rounds around a continuous-grid candidate, a tenth of the step each.
REFINE_ROUNDS = 3
#: Fewest multisets per array scan in :func:`verify_sybilproof` (all but the last block).
VERIFY_CHUNK = 4096
#: Most pairs a block takes from one prefix at a time: blocks stay under
#: ``VERIFY_CHUNK + VERIFY_PIECE`` rows, small enough to stay in cache.
VERIFY_PIECE = 16384

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
        if not hi >= self.lower:  # also a NaN bound
            raise ConfigurationError(f"search upper bound {hi} is not at or above the lower bound {self.lower}")
        if self.kind == INTEGER:
            return np.arange(math.ceil(self.lower), math.floor(hi) + 1, dtype=float)
        n_steps = int(math.floor((hi - self.lower) / self.grid_step + 1e-9))
        pts = self.lower + self.grid_step * np.arange(n_steps + 1)
        if pts[-1] < hi - 1e-12 * max(1.0, hi):
            pts = np.append(pts, hi)
        return pts


MERGE_SUM = "sum"
MERGE_MAX = "max"


def _fold(rule: str, values: Sequence):
    """Floats, or equal-shape arrays elementwise, folded in order by ``rule`` (0.0 for an empty
    list): ``_left_sum`` under MERGE_SUM, else a running max keeping the first of equal values."""
    if rule == MERGE_SUM:
        return _left_sum(values)
    acc = values[0] if values else 0.0
    for v in values[1:]:
        acc = np.where(v > acc, v, acc)
    return acc


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

    ``phi`` is the game's one payoff oracle: a pure function of two float64
    arrays that broadcast against each other, returning phi elementwise in
    their broadcast shape (with ``np.where(x == 0.0, 0.0, ...)`` for the
    inactive branch, and no warnings).  A function of two floats becomes one
    under ``np.vectorize(f, otypes=[float])``.  Every evaluation goes through
    :meth:`phi_values`: :func:`verify_sybilproof` scores a block of splits at
    a time (one call per identity column and one for the merged comparator,
    never in enumeration order), the equilibrium grid scans score a whole grid
    per call, and the scalar payoffs :func:`sybil_payoff` and
    :func:`merged_payoff` make one call each.
    """

    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    space: ActionSpace
    aggregation: str = MERGE_SUM
    merge: Optional[str] = MERGE_SUM
    name: str = "game"

    def __post_init__(self):
        if self.aggregation not in (MERGE_SUM, MERGE_MAX):
            raise DomainError(f"unknown aggregation rule {self.aggregation!r}")
        if self.merge not in (MERGE_SUM, MERGE_MAX, None):
            raise DomainError(f"unknown merge rule {self.merge!r}")
        if np.any(self.phi_values(np.zeros(3), [0.0, 1.0, 3.7]) != 0.0):
            raise DomainError("phi(0, y) must be exactly zero (inactive identities earn zero)")

    def phi_values(self, x, y) -> np.ndarray:
        """``phi`` elementwise over x and y as float64 arrays (or floats) broadcast against
        each other: an action array against one aggregate or an equal-length array, or a
        (rows, 1) column of aggregates against a grid or (rows, points) windows.  An output
        of any other shape than x and y's broadcast shape raises :class:`DomainError`."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        out, shape = self.phi(x, y), np.broadcast(x, y).shape
        if np.shape(out) != shape:
            raise DomainError(f"phi returned shape {np.shape(out)} for inputs of broadcast shape {shape}")
        return out

    def aggregate_values(self, values: Sequence):
        """phi's second argument from the other identities' actions: floats, or equal-shape
        arrays elementwise, folded by the aggregation rule (``_fold``)."""
        return _fold(self.aggregation, values)

    def merge_values(self, values: Sequence):
        """A player's own identities' actions (floats, or equal-shape arrays elementwise) folded
        into one by the merge rule (``_fold``); :class:`UnsupportedOperationError` when the game has none."""
        if self.merge is None:
            raise UnsupportedOperationError(f"game {self.name!r} has no merge rule")
        return _fold(self.merge, values)


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
        if not c >= 0.0:  # also a NaN cost
            raise DomainError("identity cost must be nonnegative")
        if c == math.inf:  # every gain would be inf - inf; a custom SybilCost expresses prohibitive extras
            raise DomainError("identity cost must be finite")
        return SybilCost(cost=lambda x, y: c * x)

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


def sybil_payoff(
    game: AggregativeGame,
    cost: SybilCost,
    mine: SybilStrategy,
    foreign: Sequence[float],
) -> float:
    """Total payoff of a player running one identity per entry of ``mine``.

    Each identity is paid ``phi(a_j, aggregate of everyone else)``, folded per identity (the
    scalar reference :func:`verify_sybilproof`'s block scan equals bit for bit), all scored by
    one :meth:`~AggregativeGame.phi_values` call and summed in order as Python floats, and
    the player pays ``cost(len(mine), len(foreign))`` once.
    """
    _check_actions(game, mine.actions, "own", positive=True)
    _check_actions(game, foreign, "foreign", positive=False)
    others = [game.aggregate_values([*foreign, *mine.actions[:j], *mine.actions[j + 1 :]]) for j in range(len(mine))]
    total = _left_sum(game.phi_values(mine.actions, others).tolist())
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
    merged = game.merge_values(mine.actions)
    value = float(game.phi_values(merged, game.aggregate_values(list(foreign))))
    if cost is not None:
        value -= cost(1, len(foreign))
    return value


@dataclass(frozen=True)
class SybilVerdict:
    """Outcome of the deviation search and the bounds it searched within.

    A counterexample carries the first strictly profitable split (refined on
    continuous spaces) in ``mine``, ``foreign`` and ``gain``.  A proof carries
    the best deviation it found, with ``gain <= tol``; ``mine`` stays None and
    ``gain`` -inf when every split's gain is -inf (a cost infinite for x >= 2).
    ``candidates`` counts the grid multisets scanned, up to and including a
    counterexample's hit.
    """

    proof: bool
    mine: Optional[SybilStrategy] = None
    foreign: Optional[tuple[float, ...]] = None
    gain: float = 0.0
    candidates: int = 0
    grid_step: Optional[float] = None
    max_identities: int = 0
    tol: float = SYBIL_TOL

    def __bool__(self) -> bool:
        return self.proof


@dataclass(frozen=True, eq=False)
class CountVerdict:
    """Outcome of :func:`count_verdict`: per context (table row), the best gain of x >= 2
    identities over one, ``gains``, and the first x reaching it, ``xs``; the first context
    whose gain exceeds ``tol`` and its x (None on a proof); ``margin``, the largest gain."""

    proof: bool
    gains: np.ndarray
    xs: np.ndarray
    context: Optional[int]
    x: Optional[int]
    margin: float
    tol: float

    def __bool__(self) -> bool:
        return self.proof


def count_verdict(P, tol: float) -> CountVerdict:
    """Identity-count proofness of a (contexts, X) table of payoffs with x = 1..X own identities.

    A context fails when some x >= 2 gains more than ``tol`` over x = 1; a negative
    ``tol`` asks for strict dominance, so a tie fails.  NaN gains never win
    (:func:`~sybilgames.numerics.first_max`); a NaN at x = 1, or a row of NaN gains,
    raises :class:`NumericError`.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1 or P.shape[1] < 2:
        raise DomainError(f"need a (contexts, X) payoff table with a context and X >= 2, not shape {P.shape}")
    nan = np.isnan(P[:, 0])
    if nan.any():
        raise NumericError(f"the one-identity payoff is NaN in context {int(np.argmax(nan))}")
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN gain, which never wins
        table = P[:, 1:] - P[:, :1]
    best = first_max(table)
    gains = table[np.arange(len(table)), best]
    fails = np.flatnonzero(gains > tol)
    context, x = (int(fails[0]), int(best[fails[0]]) + 2) if fails.size else (None, None)
    return CountVerdict(context is None, gains, best + 2, context, x, float(gains.max()), tol)


def _multiset_blocks(values: np.ndarray, m: int):
    """Rows of ``combinations_with_replacement(values, m)`` in that order, for m >= 2.

    Each (m - 2)-prefix from itertools is broadcast against the pairs of
    ``np.triu_indices(len(values))`` (cached once per call) whose first index is
    at least the prefix's last index: a contiguous suffix, since the pairs are
    in lexicographic order.  That suffix is taken ``VERIFY_PIECE`` pairs at a
    time and consecutive pieces are joined until they reach ``VERIFY_CHUNK``
    rows, so every yielded (k, m) array but the last has
    ``VERIFY_CHUNK <= k < VERIFY_CHUNK + VERIFY_PIECE`` rows.  The arrays are
    column-major, so each identity's column is contiguous.
    """
    n = len(values)
    first, second = np.triu_indices(n)
    first, second = values[first], values[second]
    # the pairs whose first index is s start at s n - s (s - 1) / 2
    starts = np.concatenate(([0], np.cumsum(np.arange(n, 0, -1))))
    pending, count = [], 0
    for prefix in itertools.combinations_with_replacement(range(n), m - 2):
        for lo in range(starts[prefix[-1]] if prefix else 0, len(first), VERIFY_PIECE):
            hi = min(lo + VERIFY_PIECE, len(first))
            columns = np.empty((m, hi - lo), dtype=values.dtype)
            columns[: m - 2] = values[list(prefix), None]
            columns[m - 2] = first[lo:hi]
            columns[m - 1] = second[lo:hi]
            pending.append(columns)
            count += hi - lo
            if count >= VERIFY_CHUNK:
                yield (pending[0] if len(pending) == 1 else np.concatenate(pending, axis=1)).T
                pending, count = [], 0
    if pending:
        yield np.concatenate(pending, axis=1).T


def _grid_gains(game: AggregativeGame, cost: SybilCost, actions: np.ndarray, profile: tuple[float, ...]) -> np.ndarray:
    """``sybil_payoff - merged_payoff`` of every row of the (k, m) array ``actions``.

    The same float operations run in the same order as in the scalar payoffs, so
    each entry equals the scalar gain bit for bit.  A block costs m + 1
    :meth:`~AggregativeGame.phi_values` calls of length k: one per identity
    column and one for the merged comparator.
    """
    m = actions.shape[1]
    columns = list(actions.T)
    merged = game.merge_values(columns)
    total = 0.0
    for j in range(m):
        others = game.aggregate_values([*profile, *columns[:j], *columns[j + 1 :]])
        total = total + game.phi_values(columns[j], others)
    merged_value = game.phi_values(merged, game.aggregate_values(list(profile)))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan arise silently, as in float arithmetic
        return (total - cost(m, len(profile))) - (merged_value - cost(1, len(profile)))


def verify_sybilproof(
    game: AggregativeGame,
    cost: SybilCost,
    max_identities: int,
    foreign_profiles: Sequence[Sequence[float]],
    tol: float = SYBIL_TOL,
    search_upper: Optional[float] = None,
) -> SybilVerdict:
    """Exhaustively search multi-identity deviations against each foreign profile.

    Grid-valued strategies with 2..max_identities identities are compared against
    the merged single-identity play; the first strictly profitable one (gain
    beyond ``tol``) is returned.  Enumeration order is foreign profiles as
    given, then fewest identities, then sorted action tuples in lexicographic
    order.  Continuous grids get local refinement around the returned candidate
    (``REFINE_ROUNDS`` rounds, a tenth of the step each); on a proof, around
    each profile's best one.

    Each identity count is scanned in blocks of ``VERIFY_CHUNK`` (4,096) to
    ``VERIFY_CHUNK + VERIFY_PIECE`` (20,480) candidates from
    :func:`_multiset_blocks`, scored by :func:`_grid_gains` with m + 1 ``phi``
    calls per block, so ``phi`` must be a pure function defined on the whole
    grid.  The scan holds the grid's n (n + 1) / 2 pairs as two float columns
    (8 MB at 1,000 grid points) besides one block.  Refinement scores each
    identity's window as :func:`_grid_gains` rows too.
    The gains equal ``sybil_payoff - merged_payoff`` bit for bit, NaN gains
    never count as profitable or best (the first maximum wins), and the
    verdict names the same split as a scalar loop over the same order would.
    A foreign profile against which every scanned gain is NaN raises
    :class:`NumericError`; a cost infinite for every x >= 2 (gains of -inf)
    still gives a proof with no best deviation.
    """
    if max_identities < 2:
        raise DomainError("max_identities must be at least 2")
    grid = game.space.grid(search_upper)
    grid = grid[grid > 0.0]
    if not grid.size:
        raise ConfigurationError("search grid contains no positive actions")
    _check_actions(game, grid.tolist(), "own", positive=True)
    candidates = 0

    def verdict(proof, actions, profile, gain):
        return SybilVerdict(
            proof, None if actions is None else SybilStrategy(actions), profile, gain, candidates,
            game.space.grid_step if game.space.kind == CONTINUOUS else 1.0, max_identities, tol,
        )

    top_gain, top_actions, top_profile = -math.inf, None, None
    for profile in foreign_profiles:
        profile = tuple(float(a) for a in profile)
        _check_actions(game, profile, "foreign", positive=False)
        best_gain = -math.inf
        best_actions: Optional[tuple[float, ...]] = None
        scanned_a_number = False
        for m in range(2, max_identities + 1):
            for actions in _multiset_blocks(grid, m):
                gains = _grid_gains(game, cost, actions, profile)
                hits = np.flatnonzero(gains > tol)
                if hits.size:
                    i = int(hits[0])
                    candidates += i + 1
                    gain, mine = _refine(game, cost, tuple(actions[i].tolist()), float(gains[i]), profile)
                    return verdict(False, mine, profile, gain)
                candidates += len(actions)
                if np.isnan(gains).all():
                    continue
                scanned_a_number = True
                i = first_max(gains)
                if gains[i] > best_gain:
                    best_gain, best_actions = float(gains[i]), tuple(actions[i].tolist())
        if not scanned_a_number:
            raise NumericError(f"every split's gain is NaN against foreign profile {profile}")
        if best_actions is not None and game.space.kind == CONTINUOUS:
            best_gain, best_actions = _refine(game, cost, best_actions, best_gain, profile)
            if best_gain > tol:
                return verdict(False, best_actions, profile, best_gain)
        if best_gain > top_gain:
            top_gain, top_actions, top_profile = best_gain, best_actions, profile
    return verdict(True, top_actions, top_profile, top_gain)


def prorata_game(f: Callable[[np.ndarray], np.ndarray], space: ActionSpace, name: str = "prorata") -> AggregativeGame:
    """Game paying each identity its stake's share of f(total stake).

    Splitting a stake across identities is payoff-neutral here, which is what
    makes the whole family immune to identity splitting.  f maps a float64
    array of totals to f elementwise (``np.exp`` and the like, not ``math``).
    """

    def phi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):  # 0/0 on inactive entries; the where discards it
            total = x + y
            return np.where(x == 0.0, 0.0, x / total * f(total))

    return AggregativeGame(phi=phi, space=space, merge=MERGE_SUM, name=name)


def headcount_reward_game(R: float) -> AggregativeGame:
    """Reward R split by headcount; each identity's only action is to show up.

    Actions live on {0, 1} and duplicates fold by ``max``: a single player can
    only ever present one head, so merging several unit reports yields one.
    """
    if not math.isfinite(R):
        raise DomainError(f"headcount reward R = {R} must be finite")

    def phi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.where(x == 0.0, 0.0, R * x / (x + y))

    space = ActionSpace(INTEGER, lower=0.0, upper=1.0, grid_step=1.0)
    return AggregativeGame(phi=phi, space=space, aggregation=MERGE_SUM, merge=MERGE_MAX, name="headcount-reward")


def reward_share_game(
    R: float, c: float, upper: Optional[float] = None, grid_step: float = 0.01
) -> AggregativeGame:
    """Continuous stake game paying R * own/(own+others) - c * own, on [0, R/c] unless ``upper`` is given."""
    if upper is None and not c > 0.0:
        raise DomainError(f"stake cost c = {c} gives no action bound R/c: pass an explicit upper bound")
    hi = upper if upper is not None else R / c
    space = ActionSpace(CONTINUOUS, lower=0.0, upper=hi, grid_step=grid_step)

    return prorata_game(lambda s: R - c * s, space, name="reward-share")


def _refine(game, cost, actions, gain, profile):
    """Coordinate-wise local refinement of a candidate deviation on continuous spaces.

    Each round rescans every identity's action in turn with one
    :func:`~sybilgames.numerics.refine_argmax` round, holding the others fixed;
    the window's splits are sorted rows of :func:`_grid_gains`, and actions <= 0 score -inf.
    """
    space = game.space
    if space.kind != CONTINUOUS:
        return gain, actions
    hi = space.upper if space.upper is not None else math.inf
    step = space.grid_step
    for _ in range(REFINE_ROUNDS):
        for j in range(len(actions)):
            rest = actions[:j] + actions[j + 1 :]

            def gains_at(a, rest=rest):
                rows = np.sort(np.column_stack([np.tile(rest, (len(a), 1)), a]), axis=1)
                gains = np.full(len(a), -math.inf)
                positive = a > 0.0
                gains[positive] = _grid_gains(game, cost, rows[positive], profile)
                return gains

            a, gain = refine_argmax(gains_at, space.lower, hi, actions[j], gain, step, 1)
            actions = tuple(sorted(rest + (a,)))
        step /= 10.0
    _check_actions(game, actions, "own", positive=True)
    return gain, actions
