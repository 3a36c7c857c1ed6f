import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    best_response_reward_game,
    concave_prorata_equilibrium,
    grid_search_max,
    per_point_welfare_optimum,
    second_price_game,
)
from sybilgames.commitment import cournot_game
from sybilgames.core import CONTINUOUS, ActionSpace, AggregativeGame, prorata_game, reward_share_game
from sybilgames.equilibrium import (
    grid_best_response,
    grid_welfare_optimum,
    mixed_deviation_gain,
    price_of_anarchy,
    reward_game_expected_payoff,
    reward_game_mixed_equilibrium,
    reward_game_pure_equilibrium,
)
from sybilgames.errors import DomainError, NumericError
from sybilgames.rdm import TentFunction, tent_game


def test_best_response_closed_form_vs_grid_oracle():
    R, c, y = 10.0, 1.0, 2.5
    closed = best_response_reward_game(R, c, y)
    assert closed == pytest.approx(2.5, abs=1e-12)
    xs = np.arange(0.0, 10.0 + 0.5e-4, 1e-4)  # grid_search_max's points, scored in one phi call
    oracle = float(xs[np.argmax(reward_share_game(R, c).phi_values(xs, y))])
    assert closed == pytest.approx(oracle, abs=1e-3)


def test_best_response_boundaries():
    assert best_response_reward_game(10.0, 1.0, 10.0) == 0.0
    assert best_response_reward_game(10.0, 1.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        best_response_reward_game(10.0, 0.0, 1.0)


def test_pure_equilibrium_reference_values():
    eq = reward_game_pure_equilibrium(10.0, 1.0, 2)
    assert eq.per_player_action == pytest.approx(2.5)
    assert eq.per_player_payoff == pytest.approx(2.5)
    assert eq.welfare == pytest.approx(5.0)
    assert reward_game_pure_equilibrium(10.0, 1.0, 10).welfare == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 11))
def test_pure_equilibrium_welfare_is_exactly_R_over_n(n):
    # the closed form: each player earns R/n^2, and welfare is R/n to the last bit
    eq = reward_game_pure_equilibrium(10.0, 1.0, n)
    assert eq.welfare == 10.0 / n
    assert eq.per_player_payoff == 10.0 / n**2


@pytest.mark.parametrize("n", range(2, 11))
def test_pure_equilibrium_is_a_fixed_point(n):
    R, c = 10.0, 1.0
    eq = reward_game_pure_equilibrium(R, c, n)
    response = best_response_reward_game(R, c, (n - 1) * eq.per_player_action)
    assert response == pytest.approx(eq.per_player_action, abs=1e-9)


@pytest.mark.parametrize("R", [1.0, 10.0, 100.0])
def test_pure_equilibrium_scaling(R):
    for c in (0.5, 1.0, 2.0):
        eq = reward_game_pure_equilibrium(R, c, 4)
        assert eq.per_player_action == pytest.approx((R / c) * 3.0 / 16.0)
    eq_unit_cost = reward_game_pure_equilibrium(R, 1.0, 4)
    assert eq_unit_cost.per_player_payoff == pytest.approx(R / 16.0, abs=1e-12)


def test_mixed_equilibrium_bracket_and_boundary():
    # here the smaller action dominates on the support, so the mix collapses to it
    eq = reward_game_mixed_equilibrium(10.0, 1.0, 3)
    assert (eq.low, eq.high) == (2, 3)
    assert eq.p == 1.0
    assert eq.residual < 1e-9
    assert mixed_deviation_gain(eq, 10.0, 1.0, 12) <= 1e-9


def test_mixed_equilibrium_interior_matches_exact_fraction():
    # exact-rational oracle: the indifference at (R=7, c=1, n=3) is linear in p
    R, c, n = 7, 1, 3
    payoffs = {
        (x, y): Fraction(R * x, x + y) - x for x in (1, 2) for y in (2, 3, 4)
    }
    # E[U(x)] = p^2 U(x,2) + 2p(1-p) U(x,3) + (1-p)^2 U(x,4); solve E[U(1)] = E[U(2)]
    a = payoffs[(1, 2)] - payoffs[(2, 2)]
    b = payoffs[(1, 3)] - payoffs[(2, 3)]
    d = payoffs[(1, 4)] - payoffs[(2, 4)]
    # quadratic (a - 2b + d) p^2 + (2b - 2d) p + d = 0 collapses to linear here
    assert a - 2 * b + d == 0
    p_exact = Fraction(-d, 2 * b - 2 * d)
    eq = reward_game_mixed_equilibrium(float(R), float(c), n)
    assert (eq.low, eq.high) == (1, 2)
    assert eq.interior
    assert eq.p == pytest.approx(float(p_exact), abs=1e-6)
    assert eq.residual < 1e-10
    assert mixed_deviation_gain(eq, float(R), float(c), 12) <= 1e-9


def test_mixed_equilibrium_degenerate_integer_action():
    # (R/c)(n-1)/n^2 = 4 exactly: a pure boundary equilibrium is accepted
    eq = reward_game_mixed_equilibrium(25.0, 1.0, 5)
    assert (eq.low, eq.high) == (4, 5)
    assert eq.p in (0.0, 1.0)
    assert mixed_deviation_gain(eq, 25.0, 1.0, 20) <= 1e-9


def test_mixed_equilibrium_indifference_residual_when_interior():
    eq = reward_game_mixed_equilibrium(7.0, 1.0, 3)
    low_value = reward_game_expected_payoff(eq.low, eq.low, eq.p, eq.n, 7.0, 1.0)
    high_value = reward_game_expected_payoff(eq.high, eq.low, eq.p, eq.n, 7.0, 1.0)
    assert abs(low_value - high_value) < 1e-9


def test_concave_prorata_affine_curve():
    R = 10.0
    eq = concave_prorata_equilibrium(lambda q: R - q, 2, fprime=lambda q: -1.0)
    assert eq.per_player_action == pytest.approx(2.5, abs=1e-9)
    assert eq.per_player_payoff == pytest.approx(2.5, abs=1e-9)
    eq10 = concave_prorata_equilibrium(lambda q: R - q, 10, fprime=lambda q: -1.0)
    assert eq10.welfare == pytest.approx(1.0, abs=1e-7)


def test_concave_prorata_root_residual():
    R, n = 10.0, 5
    f = lambda q: R - q
    eq = concave_prorata_equilibrium(f, n, fprime=lambda q: -1.0)
    q = eq.n * eq.per_player_action
    assert abs((n - 1) * f(q) + q * (-1.0)) < 1e-9


def test_concave_prorata_single_player_calculus():
    R = 10.0
    f = lambda q: q * math.exp(1.0 - q) * R
    eq = concave_prorata_equilibrium(f, 1, fprime=lambda q: (1.0 - q) * math.exp(1.0 - q) * R)
    assert eq.per_player_action == pytest.approx(1.0, abs=1e-9)
    assert eq.per_player_payoff == pytest.approx(R, abs=1e-9)
    oracle = grid_search_max(f, 0.0, 5.0, 1e-4)
    assert eq.per_player_action == pytest.approx(oracle, abs=1e-3)


def test_concave_prorata_no_interior_equilibrium():
    with pytest.raises(NumericError):
        concave_prorata_equilibrium(lambda q: 10.0 - q, 1, fprime=lambda q: -1.0)


def test_price_of_anarchy_reward_game():
    R, c, n = 10.0, 1.0, 5
    game = reward_share_game(R, c, grid_step=0.01)
    eq = reward_game_pure_equilibrium(R, c, n)
    assert eq.welfare == pytest.approx(2.0)
    poa = price_of_anarchy(game, n, eq.welfare)
    assert poa == pytest.approx(n, rel=0.05)


def test_price_of_anarchy_single_player_identity():
    game = reward_share_game(10.0, 1.0, grid_step=0.01)
    w_opt = grid_welfare_optimum(game, 1)
    assert price_of_anarchy(game, 1, w_opt) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "game",
    [
        reward_share_game(10.0, 1.0, grid_step=0.01),  # sum aggregation
        tent_game(TentFunction(10.0, 1.0, 0.05)),  # a kink
        # the same tent, its curve mapped over Python floats by np.vectorize
        prorata_game(
            np.vectorize(TentFunction(10.0, 1.0, 0.05), otypes=[float]),
            ActionSpace(CONTINUOUS, 0.0, 1.0, 0.0025),
            name="tent-scalar",
        ),
        second_price_game(0.7, reserve=0.2, grid_step=0.01),  # max aggregation
    ],
    ids=lambda game: game.name,
)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_grid_welfare_optimum_equals_the_per_point_oracle(game, n):
    w_opt = grid_welfare_optimum(game, n)
    assert type(w_opt) is float
    assert w_opt == per_point_welfare_optimum(game, n)


def test_price_of_anarchy_rejects_nonpositive_welfare():
    game = reward_share_game(10.0, 1.0)
    with pytest.raises(DomainError):
        price_of_anarchy(game, 2, 0.0)


@pytest.mark.parametrize(
    "game",
    [
        tent_game(TentFunction(10.0, 1.0, 0.01)),
        tent_game(TentFunction(10.0, 1.0, 0.6)),
        cournot_game(1.0, grid_step=0.01),
        # a curve of one float, mapped over (rows, points) totals by np.vectorize
        prorata_game(np.vectorize(lambda q: q * (2.0 - q), otypes=[float]), ActionSpace(CONTINUOUS, 0.0, 2.0, 0.05)),
    ],
    ids=["tent-kink", "tent-descending", "cournot", "prorata-scalar"],
)
def test_array_grid_best_response_equals_the_scalar_calls(game):
    ys = np.array([0.0, 0.05, 0.3, 0.71, 0.99, 1.5, 3.0])
    responses = grid_best_response(game, ys)
    assert responses.shape == ys.shape
    assert responses.tolist() == [grid_best_response(game, float(y)) for y in ys]


def test_a_phi_that_ignores_y_raises_on_the_row_path():
    # np.sqrt(x) keeps the grid's shape, so the (rows, 1) column of aggregates would never reach
    # the result: unchecked, grid_best_response gives one float 1.0 for three aggregates
    space, ys = ActionSpace(CONTINUOUS, 0.0, 1.0, 0.1), np.array([0.1, 0.2, 0.5])
    with pytest.raises(DomainError, match=r"shape \(11,\) for inputs of broadcast shape \(3, 11\)"):
        grid_best_response(AggregativeGame(phi=lambda x, y: np.sqrt(x) * 1.0, space=space), ys)
    twin = AggregativeGame(phi=np.vectorize(lambda x, y: math.sqrt(x), otypes=[float]), space=space)
    assert grid_best_response(twin, ys).tolist() == [1.0, 1.0, 1.0]
