import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import first_profitable_split, identity_count_loop, scalar_refine, second_price_game
from sybilgames import core
from sybilgames.core import (
    ActionSpace,
    AggregativeGame,
    CONTINUOUS,
    INTEGER,
    MERGE_MAX,
    MERGE_SUM,
    SYBIL_TOL,
    VERIFY_CHUNK,
    SybilCost,
    SybilStrategy,
    headcount_reward_game,
    merged_payoff,
    prorata_game,
    reward_share_game,
    sybil_payoff,
    verify_sybilproof,
)
from sybilgames.commitment import cournot_game
from sybilgames.errors import ConfigurationError, DomainError, NumericError, UnsupportedOperationError


def identity_budget(base: SybilCost, most: int) -> SybilCost:
    """``base`` up to ``most`` identities and infinite beyond, so every larger split gains -inf."""
    return SybilCost(cost=lambda x, y: base(x, y) if x <= most else math.inf)


PROHIBITIVE = identity_budget(SybilCost.zero(), 1)  # a free single identity and infinitely costly extras


def test_action_space_validation():
    with pytest.raises(DomainError):
        ActionSpace(CONTINUOUS, lower=-1.0, upper=1.0)
    with pytest.raises(DomainError):
        ActionSpace(CONTINUOUS, lower=1.0, upper=1.0)
    with pytest.raises(DomainError):
        ActionSpace(CONTINUOUS, lower=0.0, upper=1.0, grid_step=0.0)
    with pytest.raises(DomainError):
        ActionSpace("weird", 0.0, 1.0)


def test_action_space_admissibility():
    space = ActionSpace(INTEGER, 0.0, 5.0, 1.0)
    assert space.admissible(3.0)
    assert not space.admissible(3.5)
    assert not space.admissible(6.0)
    assert not space.admissible(-1.0)


def test_sybil_payoff_reproduces_headcount_numbers():
    game = headcount_reward_game(10.0)
    cost = SybilCost.linear(0.1)
    assert sybil_payoff(game, cost, SybilStrategy([1]), [1, 1, 1]) == pytest.approx(2.4, abs=1e-12)
    assert sybil_payoff(game, cost, SybilStrategy([1, 1]), [1, 1, 1]) == pytest.approx(3.8, abs=1e-12)


def test_sybil_payoff_rejects_zero_action_identity():
    game = headcount_reward_game(10.0)
    with pytest.raises(DomainError):
        sybil_payoff(game, SybilCost.zero(), SybilStrategy([0]), [1])


def test_sybil_payoff_single_identity_empty_foreign():
    game = reward_share_game(10.0, 1.0)
    cost = SybilCost.linear(1.0)
    x = 2.0
    payoff = sybil_payoff(game, cost, SybilStrategy([x]), [])
    assert payoff == pytest.approx(float(game.phi_values(x, 0.0)) - 1.0)
    # Python floats, not numpy scalars, so a CSV row never prints np.float64(...)
    assert type(payoff) is float and type(merged_payoff(game, SybilStrategy([x, x]), [])) is float


def test_merged_payoff_prorata_sum():
    game = headcount_reward_game(10.0)
    # stake-style variant of the same split: merge by sum
    stake = prorata_game(lambda s: 10.0, ActionSpace(CONTINUOUS, 0.0, 10.0, 1.0))
    assert merged_payoff(stake, SybilStrategy([1.0, 1.0]), [1.0, 1.0, 1.0]) == pytest.approx(4.0)
    # one identity: merging is the identity operation
    one = SybilStrategy([1.0])
    assert merged_payoff(game, one, [1.0, 1.0]) == pytest.approx(
        sybil_payoff(game, SybilCost.zero(), one, [1.0, 1.0])
    )


def test_merged_payoff_auction_max_merge():
    game = second_price_game(valuation=0.8)
    # merging two bids keeps only the highest one
    merged = merged_payoff(game, SybilStrategy([0.5, 0.7]), [0.4])
    assert merged == pytest.approx(float(game.phi_values(0.7, 0.4))) == pytest.approx(0.4)
    # and a duplicated top bid is payoff-neutral against the merged comparator
    verdict = verify_sybilproof(game, SybilCost.zero(), 2, [[0.4]])
    assert verdict.proof


def test_merged_payoff_requires_merge_rule():
    space = ActionSpace(CONTINUOUS, 0.0, 1.0, 0.1)
    game = AggregativeGame(phi=lambda x, y: x, space=space, merge=None)
    with pytest.raises(UnsupportedOperationError):
        merged_payoff(game, SybilStrategy([0.5]), [])


def test_verifier_finds_headcount_counterexample():
    verdict = verify_sybilproof(headcount_reward_game(10.0), SybilCost.zero(), 2, [[1, 1, 1]])
    assert not verdict.proof
    assert verdict.mine.actions == (1.0, 1.0)
    assert verdict.gain == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize(
    "f",
    [lambda s: 10.0, lambda s: 10.0 - s, lambda s: s * np.exp(1.0 - s) * 10.0],
)
def test_verifier_proves_prorata_games(f):
    game = prorata_game(f, ActionSpace(CONTINUOUS, 0.0, 5.0, 0.5))
    verdict = verify_sybilproof(game, SybilCost.zero(), 3, [[1.0, 2.0], [0.5]])
    assert verdict.proof


def test_verifier_proves_cournot_split_neutrality():
    beta = 1.0
    game = cournot_game(beta, grid_step=0.1)
    q_star = beta / 3.0
    verdict = verify_sybilproof(game, SybilCost.zero(), 3, [[q_star]])
    assert verdict.proof


def test_verifier_superlinear_scaling_family_on_integers():
    # g(x) f(x+y) with g(x) = max(x^2, sqrt(x)) and a concave f vanishing at 6:
    # on the integer grid g is superadditive, so splitting never pays.  The
    # bound keeps totals where f is nonnegative; once f goes negative a split
    # shrinks the loss factor and the family stops being split-proof.
    def phi(x, y):
        total = x + y
        return np.where(x == 0.0, 0.0, np.maximum(x * x, np.sqrt(x)) * (total * (6.0 - total)))

    game = AggregativeGame(phi=phi, space=ActionSpace(INTEGER, 0.0, 2.0, 1.0), name="scaled")
    verdict = verify_sybilproof(game, SybilCost.zero(), 2, [[1.0, 1.0]])
    assert verdict.proof


def test_verifier_soundness_of_counterexamples():
    game = headcount_reward_game(10.0)
    cost = SybilCost.linear(0.1)
    verdict = verify_sybilproof(game, cost, 3, [[1, 1, 1]])
    assert not verdict.proof
    regain = sybil_payoff(game, cost, verdict.mine, verdict.foreign) - merged_payoff(
        game, verdict.mine, verdict.foreign, cost
    )
    assert regain == pytest.approx(verdict.gain)
    assert regain > 1e-9


def test_refined_continuous_counterexample_recomputes_and_beats_the_grid():
    # sqrt(a) + sqrt(b) > sqrt(a + b): every split pays, and refinement climbs past the first grid split
    game = AggregativeGame(
        phi=lambda x, y: np.sqrt(x), space=ActionSpace(CONTINUOUS, 0.0, 1.0, 0.1), name="sqrt"
    )
    verdict = verify_sybilproof(game, SybilCost.zero(), 2, [[0.5]])
    assert not verdict.proof
    regain = sybil_payoff(game, SybilCost.zero(), verdict.mine, verdict.foreign) - merged_payoff(
        game, verdict.mine, verdict.foreign, SybilCost.zero()
    )
    assert regain == verdict.gain
    assert verdict.gain > 2.0 * math.sqrt(0.1) - math.sqrt(0.2)


def test_prohibitive_cost_turns_every_game_proof():
    for game in (headcount_reward_game(10.0), reward_share_game(10.0, 1.0, grid_step=0.5)):
        verdict = verify_sybilproof(game, PROHIBITIVE, 3, [[1.0], []])
        assert verdict.proof


def test_verifier_needs_bounded_grid():
    space = ActionSpace(CONTINUOUS, 0.0, None, 0.5)
    game = prorata_game(lambda s: 10.0 - s, space)
    with pytest.raises(ConfigurationError):
        verify_sybilproof(game, SybilCost.zero(), 2, [[1.0]])
    assert verify_sybilproof(game, SybilCost.zero(), 2, [[1.0]], search_upper=5.0).proof


@pytest.mark.parametrize("upper", [0.2, -0.5, math.nan])
def test_a_search_bound_below_the_action_space_is_a_configuration_error(upper):
    # an empty grid used to end in IndexError, and a NaN bound in "cannot convert float NaN to integer"
    with pytest.raises(ConfigurationError, match="is not at or above the lower bound"):
        ActionSpace(CONTINUOUS, 0.5, 1.0, 0.1).grid(upper)
    assert ActionSpace(CONTINUOUS, 0.5, 1.0, 0.1).grid(0.5).tolist() == [0.5]


def test_budget_restricts_deviations():
    game = headcount_reward_game(10.0)
    verdict = verify_sybilproof(game, PROHIBITIVE, 2, [[1, 1, 1]])
    assert verdict.proof  # the profitable two-head deviation is over the identity budget
    # every split's gain is -inf, so the proof names no deviation
    assert (verdict.mine, verdict.foreign, verdict.gain, verdict.candidates) == (None, None, -math.inf, 1)


def test_a_game_undefined_on_every_split_raises_instead_of_proving():
    undefined = AggregativeGame(
        phi=lambda x, y: np.where(x == 0.0, 0.0, np.nan), space=ActionSpace(CONTINUOUS, 0.0, 1.0, 0.1), name="nan"
    )
    with pytest.raises(NumericError):
        verify_sybilproof(undefined, SybilCost.zero(), 3, [[0.5]])
    # defined against the first profile, undefined on every split against the second
    crowded = AggregativeGame(
        phi=lambda x, y: np.where(x == 0.0, 0.0, np.where(y >= 3.5, np.nan, -x)),
        space=ActionSpace(CONTINUOUS, 0.0, 1.0, 0.5),
        name="nan-when-crowded",
    )
    assert verify_sybilproof(crowded, SybilCost.zero(), 3, [[1.0]]).proof
    with pytest.raises(NumericError):
        verify_sybilproof(crowded, SybilCost.zero(), 3, [[1.0], [1.0, 1.0, 1.0, 1.0]])


def test_proof_verdict_states_its_bounds_and_best_deviation():
    game = reward_share_game(10.0, 1.0, grid_step=0.5)
    verdict = verify_sybilproof(game, SybilCost.zero(), 3, [[2.5, 2.5], [1.0]])
    assert verdict.proof
    assert (verdict.grid_step, verdict.max_identities, verdict.tol) == (0.5, 3, SYBIL_TOL)
    # 20 positive grid points: 210 pairs and 1540 triples per profile
    assert verdict.candidates == 2 * (math.comb(21, 2) + math.comb(22, 3))
    assert verdict.foreign in ((2.5, 2.5), (1.0,))
    regain = sybil_payoff(game, SybilCost.zero(), verdict.mine, verdict.foreign) - merged_payoff(
        game, verdict.mine, verdict.foreign, SybilCost.zero()
    )
    assert regain == verdict.gain <= SYBIL_TOL


def test_counterexample_verdict_counts_candidates_up_to_its_hit():
    verdict = verify_sybilproof(headcount_reward_game(10.0), SybilCost.linear(0.1), 3, [[1, 1, 1]])
    assert not verdict.proof
    assert (verdict.candidates, verdict.grid_step, verdict.max_identities, verdict.tol) == (1, 1.0, 3, SYBIL_TOL)


def test_zero_at_zero_holds_for_registered_games():
    rng = np.random.default_rng(0)
    games = [
        headcount_reward_game(10.0),
        reward_share_game(10.0, 1.0),
        cournot_game(1.0),
        prorata_game(lambda s: s * np.exp(1 - s), ActionSpace(CONTINUOUS, 0, 4, 0.1)),
    ]
    for game in games:
        assert np.all(game.phi_values(np.zeros(100), rng.random(100) * 7.0) == 0.0)


@pytest.mark.parametrize(
    "phi",
    [
        lambda x, y: 1.0,
        lambda x, y: x + 1.0,
        lambda x, y: np.where(y > 2.0, 1.0, x),  # nonzero at zero only against a crowd
    ],
)
def test_zero_at_zero_enforced_at_construction(phi):
    space = ActionSpace(CONTINUOUS, 0.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        AggregativeGame(phi=phi, space=space)


NEUTRAL_GAMES = [
    prorata_game(lambda s: 10.0, ActionSpace(CONTINUOUS, 0.0, 5.0, 0.5)),
    prorata_game(lambda s: 10.0 - s, ActionSpace(CONTINUOUS, 0.0, 5.0, 0.5)),
    prorata_game(lambda s: s * np.exp(1.0 - s), ActionSpace(CONTINUOUS, 0.0, 5.0, 0.5)),
    cournot_game(1.0),
]


@settings(max_examples=50)
@given(
    parts=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
    foreign=st.lists(st.floats(0.0, 1.0), max_size=3),
    c=st.floats(0.0, 1.0),
)
def test_prorata_merging_neutrality(parts, foreign, c):
    # phi(a, y) = a h(a + y) for pro-rata and Cournot, so a split earns what the merged stake does
    # and loses only the extra identities' cost
    mine, cost = SybilStrategy(parts), SybilCost.linear(c)
    for game in NEUTRAL_GAMES:
        split = sybil_payoff(game, cost, mine, foreign)
        merged = merged_payoff(game, mine, foreign, cost)
        scale = max(1.0, abs(merged), c * len(parts))
        assert abs((split - merged) + c * (len(parts) - 1)) <= 1e-12 * scale


@settings(max_examples=50)
@given(x1=st.integers(1, 8), x2=st.integers(1, 8), y=st.integers(0, 8))
def test_cost_monotone_in_own_identities(x1, x2, y):
    lo, hi = min(x1, x2), max(x1, x2)
    for cost in (SybilCost.zero(), SybilCost.linear(0.25), PROHIBITIVE):
        assert cost(lo, y) <= cost(hi, y)


def test_negative_cost_rejected():
    with pytest.raises(DomainError):
        SybilCost.linear(-1.0)
    with pytest.raises(DomainError):
        SybilCost.linear(math.nan)
    bad = SybilCost(cost=lambda x, y: -1.0)
    with pytest.raises(DomainError):
        bad(1, 0)


def _nan_below(x, y):
    # undefined on the low end of the grid: those splits never count as profitable or best
    return np.where(x == 0.0, 0.0, np.where(x < 0.35, np.nan, np.sqrt(x) * (3.0 - y) / 3.0))


def _scalar_nan_below(x, y):
    if x == 0.0:
        return 0.0
    if x < 0.35:
        return math.nan
    return math.sqrt(x) * (3.0 - y) / 3.0


NAN_GAME = AggregativeGame(phi=_nan_below, space=ActionSpace(CONTINUOUS, 0.0, 2.0, 0.1), name="nan-below")
# every split pays and more pays more, so refinement climbs past the first grid split
SQRT_GAME = AggregativeGame(phi=lambda x, y: np.sqrt(x), space=ActionSpace(CONTINUOUS, 0.0, 1.0, 0.1), name="sqrt")


def _scalar_prorata(x, y):
    if x == 0.0:
        return 0.0
    total = x + y
    return x / total * (10.0 - total)


# a split pays only once both identities reach 61, at enumeration index 4230 > VERIFY_CHUNK
TOP_HEAVY = AggregativeGame(
    phi=lambda x, y: np.where(x >= 61.0, x, 0.0),
    space=ActionSpace(INTEGER, 0.0, 100.0),
    merge=MERGE_MAX,
    name="top-heavy",
)
ORACLE_CASES = {
    "prorata": (reward_share_game(10.0, 1.0, grid_step=0.5), SybilCost.zero(), 3, [[2.5, 2.5], [1.0]]),
    "prorata-linear-budget": (
        reward_share_game(10.0, 1.0, grid_step=0.5), identity_budget(SybilCost.linear(0.1), 2), 3, [[2.5]]
    ),
    "cournot": (cournot_game(1.0, grid_step=0.05), SybilCost.zero(), 3, [[1.0 / 3.0]]),
    "cournot-linear-budget": (
        cournot_game(1.0, grid_step=0.05), identity_budget(SybilCost.linear(0.01), 2), 3, [[0.2, 0.3]]
    ),
    "headcount": (headcount_reward_game(10.0), SybilCost.linear(0.1), 3, [[1, 1, 1]]),
    "headcount-over-budget": (headcount_reward_game(10.0), PROHIBITIVE, 3, [[1, 1, 1]]),
    "second-price": (second_price_game(0.8, grid_step=0.1), SybilCost.zero(), 3, [[0.4], []]),
    "nan-proof": (NAN_GAME, SybilCost.zero(), 2, [[1.0, 1.0]]),
    "nan-counterexample": (NAN_GAME, SybilCost.zero(), 3, [[1.0, 1.0], [0.5]]),
    "chunk-boundary": (TOP_HEAVY, SybilCost.zero(), 2, [[1.0]]),
    "reward-share-c0": (reward_share_game(10.0, 0.0, upper=2.0, grid_step=0.1), SybilCost.zero(), 3, [[0.5, 0.7]]),
    "reward-share-c0.5": (reward_share_game(1.0, 0.5, grid_step=0.1), SybilCost.linear(0.01), 3, [[0.3]]),
    "cournot-0.01-foreign-0.05": (cournot_game(1.0, grid_step=0.01), SybilCost.zero(), 2, [[0.05]]),
    "cournot-0.01-foreign-0.95": (cournot_game(1.0, grid_step=0.01), SybilCost.zero(), 2, [[0.95]]),
    # a phi of two floats, mapped over the arrays by np.vectorize
    "prorata-scalar-phi": (
        AggregativeGame(np.vectorize(_scalar_prorata, otypes=[float]), ActionSpace(CONTINUOUS, 0.0, 5.0, 0.5)),
        SybilCost.zero(), 3, [[1.0, 2.0]],
    ),
    "sqrt-refined": (SQRT_GAME, SybilCost.zero(), 2, [[0.5]]),
}


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_verifier_pick_and_verdict_equal_the_scalar_oracle(case, monkeypatch):
    game, cost, max_identities, profiles = case
    profitable, actions, profile, gain, scanned = first_profitable_split(game, cost, max_identities, profiles, SYBIL_TOL)
    picks = []

    def unrefined(game, cost, actions, gain, profile):
        picks.append((actions, profile))
        return gain, actions

    with monkeypatch.context() as patch:
        patch.setattr(core, "_refine", unrefined)
        pick = verify_sybilproof(game, cost, max_identities, profiles)
    assert (not pick.proof, pick.mine and pick.mine.actions, pick.foreign, pick.gain, pick.candidates) == (
        profitable, actions, profile, gain, scanned,
    )
    if profitable:
        assert picks[-1] == (actions, profile)

    verdict = verify_sybilproof(game, cost, max_identities, profiles)
    assert (verdict.proof, verdict.candidates) == (pick.proof, scanned)
    if verdict.mine is None:
        assert verdict.gain == -math.inf
        return
    regain = sybil_payoff(game, cost, verdict.mine, verdict.foreign) - merged_payoff(
        game, verdict.mine, verdict.foreign, cost
    )
    assert regain == verdict.gain >= gain
    if game.space.kind == INTEGER:
        assert verdict == pick
    elif profitable or len(profiles) == 1:  # the refined split is the oracle's pick, refined
        def gain_of(actions, profile):
            mine = SybilStrategy(actions)
            return sybil_payoff(game, cost, mine, profile) - merged_payoff(game, mine, profile, cost)

        assert (verdict.gain, verdict.mine.actions) == scalar_refine(gain_of, actions, profile, game.space)
    if game is TOP_HEAVY:  # the hit lies past the first chunk
        assert scanned == 4231 > VERIFY_CHUNK


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_grid_gains_equal_scalar_gains_bit_for_bit(case):
    game, cost, max_identities, profiles = case
    grid = [float(a) for a in game.space.grid() if a > 0.0]
    for profile in profiles:
        profile = tuple(float(a) for a in profile)
        for m in range(2, max_identities + 1):
            rows = list(itertools.combinations_with_replacement(grid, m))
            expected = [
                sybil_payoff(game, cost, SybilStrategy(a), profile) - merged_payoff(game, SybilStrategy(a), profile, cost)
                for a in rows
            ]
            got = core._grid_gains(game, cost, np.array(rows), profile)
            np.testing.assert_array_equal(got, np.array(expected))


# (game, the same phi on two floats, max identities, profiles, the counterexample's gain and candidates)
SCALAR_TWINS = {
    "sqrt": (SQRT_GAME, lambda x, y: math.sqrt(x), 2, [[0.5]], 0.2412250939666325, 1),
    "nan-below": (NAN_GAME, _scalar_nan_below, 3, [[1.0, 1.0], [0.5]], 0.1507547467992153, 1808),
}


@pytest.mark.parametrize(
    "game, scalar_phi, max_identities, profiles, gain, candidates", SCALAR_TWINS.values(), ids=SCALAR_TWINS.keys()
)
def test_a_scalar_phi_under_vectorize_gives_its_array_twins_verdict(
    game, scalar_phi, max_identities, profiles, gain, candidates
):
    twin = AggregativeGame(phi=np.vectorize(scalar_phi, otypes=[float]), space=game.space, name="twin")
    got = verify_sybilproof(twin, SybilCost.zero(), max_identities, profiles)
    expected = verify_sybilproof(game, SybilCost.zero(), max_identities, profiles)
    assert (got.proof, got.mine, got.foreign, got.gain, got.candidates) == (
        expected.proof, expected.mine, expected.foreign, expected.gain, expected.candidates,
    )
    assert (got.proof, got.gain, got.candidates) == (False, gain, candidates)


def test_a_grid_gains_block_costs_m_plus_one_phi_calls():
    base = reward_share_game(10.0, 1.0, grid_step=0.5)
    shapes = []

    def phi(x, y):
        shapes.append(np.broadcast(x, y).shape)
        return base.phi(x, y)

    game = AggregativeGame(phi=phi, space=base.space, name="counted")
    grid = [float(a) for a in game.space.grid() if a > 0.0]
    rows = np.array(list(itertools.combinations_with_replacement(grid, 3)))
    shapes.clear()
    core._grid_gains(game, SybilCost.zero(), rows, (2.5, 2.5))
    assert shapes == [(len(rows),)] * 4


@pytest.mark.parametrize("aggregation", [MERGE_SUM, MERGE_MAX])
def test_aggregate_values_of_nothing_is_zero(aggregation):
    space = ActionSpace(CONTINUOUS, 0.0, 1.0, 0.1)
    game = AggregativeGame(phi=lambda x, y: x, space=space, aggregation=aggregation, merge=aggregation)
    assert game.aggregate_values([]) == 0.0 == game.merge_values([])
    columns = [np.array([0.3, 0.1]), np.array([0.2, 0.5])]
    expected = []
    for a, b in zip(*columns):
        acc = 0.0
        for v in (0.4, a, b):
            acc = acc + v if aggregation == MERGE_SUM else max(acc, v)
        expected.append(acc)
    for fold in (game.aggregate_values, game.merge_values):
        np.testing.assert_array_equal(fold([0.4, *columns]), expected)


@pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (1, 4), (1, 5), (7, 3), (6, 4), (3, 5), (100, 3), (200, 2)])
def test_multiset_blocks_enumerate_combinations_in_order(n, m):
    blocks = list(core._multiset_blocks(np.arange(n, dtype=np.intp), m))
    expected = np.array(list(itertools.combinations_with_replacement(range(n), m)), dtype=np.intp)
    np.testing.assert_array_equal(np.concatenate(blocks), expected)
    assert all(block.dtype == np.intp and block.shape[1] == m for block in blocks)
    assert all(len(block) >= VERIFY_CHUNK for block in blocks[:-1])
    assert all(len(block) < VERIFY_CHUNK + core.VERIFY_PIECE for block in blocks)


_PAYOFFS = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.5, 1e-13, -1e-13, math.inf, -math.inf])


@st.composite
def _count_tables(draw):
    """(contexts, X) payoff tables drawn from a few values, so ties are common, with NaN only at x >= 2."""
    rows, width = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    table = []
    for _ in range(rows):
        solo = draw(_PAYOFFS.filter(math.isfinite))
        rest = draw(st.lists(_PAYOFFS | st.just(math.nan), min_size=width - 1, max_size=width - 1))
        if all(math.isnan(v) for v in rest):
            rest[0] = solo
        table.append([solo] + rest)
    return table


@given(table=_count_tables(), tol=st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -0.5, 0.75]))
@settings(max_examples=300, deadline=None)
def test_count_verdict_equals_the_double_loop(table, tol):
    verdict = core.count_verdict(table, tol)
    gains, xs, proof, context, x = identity_count_loop(table, tol)
    assert verdict.gains.tolist() == gains and verdict.xs.tolist() == xs
    assert (verdict.proof, verdict.context, verdict.x) == (proof, context, x)
    assert verdict.margin == max(gains) and verdict.tol == tol


def test_count_verdict_rejects_what_it_cannot_compare():
    with pytest.raises(NumericError, match="context 1"):
        core.count_verdict([[1.0, 0.0], [math.nan, 0.0]], 0.0)
    with pytest.raises(NumericError):
        core.count_verdict([[1.0, math.nan, math.nan]], 0.0)
    for shape in [(0, 3), (2, 1), (3,)]:
        with pytest.raises(DomainError):
            core.count_verdict(np.zeros(shape), 0.0)
