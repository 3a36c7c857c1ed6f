"""Two-phase identity-commitment games: identities are committed first (each then
plays the resulting n-player equilibrium), so an attacker weighs x committed
identities at x * payoff(x + foreign) minus the identity cost.

A game is commitment-proof when committing exactly one identity is strictly
dominant: :func:`scp_check` is :func:`~sybilgames.core.count_verdict` at tolerance
-SCP_MARGIN_TOL, so an exact tie counts against the game.  Any bounded game that
is both split-proof and commitment-proof under small linear costs has
equilibrium welfare capped by (n-1) R / 2^(n-2) + c n^2/2,
which the checker here evaluates on concrete instances; Cournot competition and
batched constant-product arbitrage are the stock counterexamples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .core import CONTINUOUS, ActionSpace, AggregativeGame, CountVerdict, SybilCost, count_verdict
from .errors import DomainError, NumericError

SCP_MARGIN_TOL = 1e-12


@dataclass(frozen=True)
class EqPayoffOracle:
    """Per-player payoff at the symmetric equilibrium of the n-player game."""

    payoff: Callable[[int], float]

    def welfare(self, n: int) -> float:
        """Equilibrium welfare: n times the per-player payoff."""
        return n * self.payoff(n)


@dataclass(frozen=True)
class CommitmentInstance:
    """An equilibrium-payoff oracle plus the identity cost for the commitment phase.

    ``gross`` overrides the attacker's pre-cost payoff when the game does not
    follow the x * payoff(x + foreign) pattern (the constant-pot example pays
    the player the same total regardless of how many identities it commits).
    """

    oracle: EqPayoffOracle
    cost: SybilCost
    gross: Optional[Callable[[int, int], float]] = None

    def attacker_value(self, x: int, foreign: int) -> float:
        if x < 1 or foreign < 0:
            raise DomainError("need x >= 1 and foreign >= 0")
        gross = self.gross(x, foreign) if self.gross is not None else x * self.oracle.payoff(x + foreign)
        return gross - self.cost(x, foreign)


def scp_check(inst: CommitmentInstance, foreign_max: int = 20, x_max: int = 32) -> CountVerdict:
    """Commitment-proofness: one identity must beat every x in 2..x_max by more than
    SCP_MARGIN_TOL against every foreign count 0..foreign_max; the verdict's contexts are
    the foreign counts, and its witness the first failing one with its best x."""
    if foreign_max < 0:
        raise DomainError("foreign_max must be nonnegative")
    if x_max < 2:
        raise DomainError("need x_max >= 2: no multi-identity deviation to check")
    values = [[inst.attacker_value(x, foreign) for x in range(1, x_max + 1)] for foreign in range(foreign_max + 1)]
    return count_verdict(values, -SCP_MARGIN_TOL)


def commitment_welfare_cap(n: int, R: float, c: float) -> float:
    """Equilibrium-welfare ceiling (n-1) R / 2^(n-2) + c n^2 / 2 for split-proof,
    commitment-proof bounded games with linear identity cost c."""
    if n < 2:
        raise DomainError("need n >= 2")
    return math.ldexp((n - 1) * R, 2 - n) + c * n * n / 2.0


def cournot_game(beta: float, upper: Optional[float] = None, grid_step: float = 0.01) -> AggregativeGame:
    """Linear-demand quantity competition: phi(x, y) = x (beta - x - y)."""
    hi = upper if upper is not None else beta

    def phi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.where(x == 0.0, 0.0, x * (beta - x - y))

    space = ActionSpace(CONTINUOUS, 0.0, hi, grid_step)
    return AggregativeGame(phi=phi, space=space, name="cournot")


def cournot_oracle(alpha: float, c_prod: float) -> EqPayoffOracle:
    """Equilibrium payoffs of the linear Cournot market: beta^2/(n+1)^2 each."""
    if not (math.isfinite(alpha) and math.isfinite(c_prod)):  # NaN or infinite
        raise DomainError("demand intercept and production cost must be finite")
    if not c_prod < alpha:
        raise DomainError("production cost at or above the demand intercept kills the market")
    beta = alpha - c_prod
    if not math.isfinite(beta * beta):
        raise DomainError(f"demand intercept net of production cost {beta!r} overflows when squared")

    def payoff(n: int) -> float:
        return beta * beta / (n + 1) ** 2

    return EqPayoffOracle(payoff)


def cfmm_curve(reserve_a: float, reserve_b: float, ext_price: float):
    """Net arbitrage proceeds f(t) = g(t) - price * t against a constant-product pool."""
    if not all(0.0 < x < math.inf for x in (reserve_a, reserve_b, ext_price)):  # also a NaN parameter
        raise DomainError("reserves and external price must be positive and finite")

    def f(t: float) -> float:
        return reserve_b * t / (reserve_a + t) - ext_price * t

    def fprime(t: float) -> float:
        return reserve_b * reserve_a / (reserve_a + t) ** 2 - ext_price

    return f, fprime


def cfmm_arbitrage_oracle(reserve_a: float, reserve_b: float, ext_price: float) -> EqPayoffOracle:
    """Equilibrium payoffs of batched arbitrage: the trades of all n arbitrageurs
    are pooled pro rata, so each earns its share of f(total trade).

    With a, b the reserves and p the price, the pro-rata first-order condition
    (n-1) f(q) + q f'(q) = 0 on the total trade q is the quadratic
    n p q^2 + B q - C = 0, B = 2 n p a - (n-1) b, C = n a (b - p a) > 0 (b > p a, with b - p a
    rounded once from its exact value), whose positive root is taken in the form that does not
    cancel: 2C/(B + sqrt(D)) for B >= 0, (sqrt(D) - B)/(2 n p) otherwise, D = B^2 + 4 n p C.
    Each arbitrageur earns f(q)/n; a payoff that does not come out finite (B^2 overflows once b
    is above about 1e154) raises NumericError.
    """
    f, _ = cfmm_curve(reserve_a, reserve_b, ext_price)
    excess = float(Fraction(reserve_b) - Fraction(ext_price) * Fraction(reserve_a))  # b - p a
    if not excess > 0.0:
        warnings.warn("no arbitrage at these reserves and price; payoffs are zero")
        return EqPayoffOracle(lambda n: 0.0)

    def payoff(n: int) -> float:
        value = f(_batched_trade(n, reserve_a, reserve_b, ext_price, excess)) / n
        if not math.isfinite(value):
            raise NumericError(
                f"batched arbitrage payoff at n = {n} is {value} "
                f"at reserves {reserve_a!r}, {reserve_b!r} and price {ext_price!r}"
            )
        return value

    return EqPayoffOracle(payoff)


def _batched_trade(n: int, a: float, b: float, p: float, excess: float) -> float:
    """The total trade q of n batched arbitrageurs: the positive root of n p q^2 + B q - C,
    B = 2 n p a - (n-1) b, C = n a excess (excess = b - p a), in the form that does not cancel."""
    B = 2.0 * n * p * a - (n - 1) * b
    C = n * a * excess
    root = math.sqrt(B * B + 4.0 * n * p * C)
    return 2.0 * C / (B + root) if B >= 0.0 else (root - B) / (2.0 * n * p)


def exponential_commitment_instance() -> CommitmentInstance:
    """Commitment-proof example: x identities out of n total earn x e^(-n) net.

    Per-identity equilibrium payoff is 2 e^(-n) and the identity cost is
    x e^(-(x + foreign)), so the attacker nets x e^(-(x+foreign)), maximal at x = 1.
    """
    oracle = EqPayoffOracle(lambda n: 2.0 * math.exp(-n))
    cost = SybilCost(cost=lambda x, y: x * math.exp(-(x + y)))
    return CommitmentInstance(oracle=oracle, cost=cost)


def trivial_commitment_instance(c: float) -> CommitmentInstance:
    """Constant-pot example: the player's total gross is 3c/2 however many
    identities it commits, so extras only ever add cost."""
    if not c > 0.0:
        raise DomainError("need c > 0")
    oracle = EqPayoffOracle(lambda n: 1.5 * c)
    return CommitmentInstance(
        oracle=oracle, cost=SybilCost.linear(c), gross=lambda x, foreign: 1.5 * c
    )


def cournot_commitment_instance(alpha: float, c_prod: float, identity_cost: float = 0.0) -> CommitmentInstance:
    return CommitmentInstance(oracle=cournot_oracle(alpha, c_prod), cost=SybilCost.linear(identity_cost))


def cfmm_commitment_instance(
    reserve_a: float, reserve_b: float, ext_price: float, identity_cost: float = 0.0
) -> CommitmentInstance:
    return CommitmentInstance(
        oracle=cfmm_arbitrage_oracle(reserve_a, reserve_b, ext_price),
        cost=SybilCost.linear(identity_cost),
    )


def rmax_commitment_instance(R: float, identity_cost: float) -> CommitmentInstance:
    """Reward split along the pie-shrinking schedule: each of n identities earns
    R / 2^(n-1); at zero identity cost one extra identity exactly ties, so any
    positive cost makes single reporting strictly dominant."""
    if not R > 0.0:  # also a NaN R
        raise DomainError("need R > 0")
    oracle = EqPayoffOracle(lambda n: math.ldexp(R, 1 - n))
    return CommitmentInstance(oracle=oracle, cost=SybilCost.linear(identity_cost))
