"""Mechanism-design laboratory for games where players can fabricate identities.

Core pieces: aggregative games and a brute-force identity-splitting verifier
(:mod:`sybilgames.core`), equilibrium solvers (:mod:`sybilgames.equilibrium`),
pie-shrinking reward mechanisms (:mod:`sybilgames.rdm`), burn-or-keep cake
cutting (:mod:`sybilgames.cake`), second-price bidding rings
(:mod:`sybilgames.ring`), and two-phase identity commitment
(:mod:`sybilgames.commitment`).  The :mod:`sybilgames.cli` driver reproduces
every experiment as a deterministic CSV.
"""

__version__ = "0.1.0"

from .core import (
    ActionSpace,
    AggregativeGame,
    SybilCost,
    SybilStrategy,
    SybilVerdict,
    headcount_reward_game,
    merged_payoff,
    prorata_game,
    reward_share_game,
    sybil_payoff,
    verify_sybilproof,
)
from .equilibrium import (
    DiscreteMixedEquilibrium,
    SymmetricEquilibrium,
    price_of_anarchy,
    reward_game_mixed_equilibrium,
    reward_game_pure_equilibrium,
)

__all__ = [
    "ActionSpace",
    "AggregativeGame",
    "DiscreteMixedEquilibrium",
    "SybilCost",
    "SybilStrategy",
    "SybilVerdict",
    "SymmetricEquilibrium",
    "headcount_reward_game",
    "merged_payoff",
    "price_of_anarchy",
    "prorata_game",
    "reward_game_mixed_equilibrium",
    "reward_game_pure_equilibrium",
    "reward_share_game",
    "sybil_payoff",
    "verify_sybilproof",
    "__version__",
]
