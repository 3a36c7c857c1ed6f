import math

import numpy as np
import pytest

from oracles import golden_max
from sybilgames import rdm
from sybilgames.errors import DomainError, NumericError
from sybilgames.rdm import (
    RewardMechanism,
    TentFunction,
    check_reward_sybilproof,
    constant_mechanism,
    dominant_strategy_prorata,
    max_sybilproof_reward,
    rmax_mechanism,
    tent_equilibria,
    tent_game,
)


def test_max_sybilproof_reward_values():
    assert max_sybilproof_reward(1, 10.0) == 10.0
    assert max_sybilproof_reward(3, 10.0) == 7.5
    assert max_sybilproof_reward(4, 10.0) == 5.0
    # 2.0 ** (n - 1) overflows past n = 1024: the cap is the exact ratio rounded once, 0.0 once it underflows
    assert max_sybilproof_reward(1025, 10.0) == 10250 / 2**1024
    assert max_sybilproof_reward(1100, 10.0) == 0.0


def test_pie_shrinking_recursion_exact():
    R = 10.0
    for n in range(1, 21):
        assert max_sybilproof_reward(n + 1, R) == max_sybilproof_reward(n, R) / 2.0 * (n + 1) / n


def test_rmax_mechanism_passes_with_equality_at_two_identities():
    verdict = check_reward_sybilproof(rmax_mechanism(10.0))
    assert verdict.proof
    mech = rmax_mechanism(10.0)
    for y in range(0, 20):
        solo = mech.r(1 + y) / (1 + y)
        split2 = 2 * mech.r(2 + y) / (2 + y)
        assert split2 == pytest.approx(solo, abs=1e-12)


def test_constant_mechanism_fails_against_one_other_identity():
    # y = 0 only ties; against y = 1 every x >= 2 gains, most at the largest x checked
    R = 10.0
    verdict = check_reward_sybilproof(constant_mechanism(R))
    assert not verdict.proof
    assert (verdict.context, verdict.x) == (1, 64)
    assert verdict.gains[1] == 64 * R / 65 - R / 2
    assert verdict.gains[0] == 0.0 and verdict.xs[0] == 2
    assert verdict.margin == verdict.gains.max() > verdict.gains[1]  # y = 8 gains most


def test_rmax_mechanism_margin_is_the_exact_tie():
    verdict = check_reward_sybilproof(rmax_mechanism(10.0), x_max=8, y_max=8)
    assert verdict.proof and (verdict.context, verdict.x) == (None, None)
    assert abs(verdict.margin) <= 1e-12
    assert verdict.gains.shape == verdict.xs.shape == (9,)


def test_truncated_schedule_is_proof():
    small = 0.1
    mech = RewardMechanism(r=lambda n: small if n <= 2 else 0.0, R=small)
    assert check_reward_sybilproof(mech).proof


@pytest.mark.parametrize("n0", range(1, 13))
def test_any_upward_perturbation_of_the_cap_schedule_is_rejected(n0):
    R = 10.0
    bumped = RewardMechanism(
        r=lambda n, n0=n0: max_sybilproof_reward(n, R) * (1.01 if n == n0 else 1.0), R=R
    )
    # r(1) = r(2) = R, so bumping either to 10.1 leaves the mechanism class [0, R] before any split is compared
    if n0 <= 2:
        with pytest.raises(DomainError, match=rf"r\({n0}\) = 10.1 outside"):
            check_reward_sybilproof(bumped)
    else:
        assert not check_reward_sybilproof(bumped).proof


def test_dominant_prorata_peak_and_welfare():
    curve = dominant_strategy_prorata(10.0, 1.0)
    assert curve(1.0) == pytest.approx(10.0, abs=1e-12)
    assert curve.welfare(2) == pytest.approx(20.0 / math.e, abs=1e-9)
    assert curve.welfare(2) == pytest.approx(7.357588823428847, abs=1e-9)
    for n in range(1, 11):
        assert curve.welfare(n) == pytest.approx(10.0 * n * math.exp(1 - n), abs=1e-9)


@pytest.mark.parametrize("y_over_k", [0.0, 0.5, 1.0, 5.0])
def test_dominant_prorata_best_response_is_the_prescribed_stake(y_over_k):
    R, K = 10.0, 1.0
    curve = dominant_strategy_prorata(R, K)
    y = y_over_k * K

    def payoff(x):
        return 0.0 if x == 0.0 else x / (x + y) * curve(x + y) if x + y > 0 else 0.0

    best = golden_max(payoff, 1e-9, 8.0 * K, tol=1e-10)
    assert best == pytest.approx(K, abs=1e-6)


def test_dominant_prorata_stationarity_identity():
    R, K = 10.0, 1.0
    curve = dominant_strategy_prorata(R, K)
    derivative = lambda x: (R * math.e / K) * math.exp(-x / K) * (1.0 - x / K)
    for y in (0.1 * K, K, 10.0 * K):
        residual = y / (K + y) ** 2 * curve(K + y) + K / (K + y) * derivative(K + y)
        assert abs(residual) < 1e-9


def test_tent_function_shape():
    tent = TentFunction(10.0, 1.0, 0.1)
    assert tent(0.0) == 0.0
    assert tent(tent.peak) == pytest.approx(10.0)
    assert tent(1.0) == pytest.approx(0.0)
    assert tent(0.5) < tent(0.6) and tent(0.95) > tent(0.96)  # rising, then falling
    # a float gives a float; an array gives the float calls elementwise, bit for bit
    x = np.linspace(0.0, 1.2, 121)
    assert type(tent(0.5)) is float
    np.testing.assert_array_equal(tent(x), [tent(a) for a in x.tolist()])
    with pytest.raises(DomainError):
        TentFunction(10.0, 1.0, 1.5)
    with pytest.raises(DomainError):
        TentFunction(math.nan, 1.0, 0.1)


def test_tent_equilibrium_descending_branch_closed_form():
    # eps > K/n puts the equilibrium on the descending branch: q = K(n-1)/n
    R, K, eps, n = 10.0, 1.0, 0.6, 2
    eq = tent_equilibria(TentFunction(R, K, eps), [n])[0]
    assert n * eq.per_player_action == pytest.approx(0.5, abs=1e-9)
    assert eq.welfare == pytest.approx(R * K / (n * eps), abs=1e-9)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_tent_equilibrium_matches_kink_fixed_point(n, eps):
    R, K = 10.0, 1.0
    eq = tent_equilibria(TentFunction(R, K, eps), [n])[0]
    # below eps = K/n the best-response fixed point sits at the concave kink
    assert n * eq.per_player_action == pytest.approx(K - eps, abs=1e-4)
    assert eq.per_player_action <= K + 1e-12


@pytest.mark.parametrize("R", [10.0, 19.0, 7.5])
@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
def test_tent_kink_rows_are_exact(R, eps):
    # n eps <= K: the equilibrium aggregate is the kink itself, not an approximation of it
    tent = TentFunction(R, 1.0, eps)
    for eq in tent_equilibria(tent, [n for n in range(2, 13) if n * eps <= 1.0]):
        assert eq.per_player_action == tent.peak / eq.n
        assert eq.welfare == tent(tent.peak)
        assert eq.per_player_payoff == tent(tent.peak) / eq.n


def test_tent_branches_meet_at_n_eps_equal_k():
    tent = TentFunction(10.0, 1.0, 0.1)
    eq = tent_equilibria(tent, [10])[0]
    assert 1.0 * (10 - 1) / 10 == tent.peak  # the descending root is the kink
    assert 10 * eq.per_player_action == pytest.approx(tent.peak, rel=1e-15)
    assert eq.welfare == tent(tent.peak)
    # one player fewer leaves the root below the kink, one more lifts it onto the descending branch
    assert tent_equilibria(tent, [9])[0].welfare == tent(tent.peak)
    assert 11 * tent_equilibria(tent, [11])[0].per_player_action == pytest.approx(10.0 / 11.0, rel=1e-15)


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.6])
def test_tent_equilibria_equal_the_single_n_calls(eps):
    tent = TentFunction(10.0, 1.0, eps)
    ns = list(range(2, 13))
    assert tent_equilibria(tent, ns) == [tent_equilibria(tent, [n])[0] for n in ns]
    assert tent_equilibria(tent, []) == []


def test_tent_validation_raises_on_an_offset_response(monkeypatch):
    tent = TentFunction(10.0, 1.0, 0.01)
    real = rdm.grid_best_response

    def offset(game, y):  # the response for n = 5 (row 3) moves by 2e-4 K
        response = real(game, y)
        response[3] += 2e-4
        return response

    monkeypatch.setattr(rdm, "grid_best_response", offset)
    with pytest.raises(NumericError, match="n = 5"):
        tent_equilibria(tent, range(2, 9))


@pytest.mark.parametrize("ns", [[1], [2, 3, 0], [5, 1, 4]])
def test_tent_equilibria_reject_fewer_than_two_players(ns):
    with pytest.raises(DomainError):
        tent_equilibria(TentFunction(10.0, 1.0, 0.1), ns)


def test_tent_welfare_approaches_full_reward():
    R, K = 10.0, 1.0
    eq = tent_equilibria(TentFunction(R, K, K / 100.0), [5])[0]
    assert eq.welfare > 0.97 * R


def test_tent_game_actions_above_k_are_dominated():
    tent = TentFunction(10.0, 1.0, 0.05)
    game = tent_game(tent)
    y = 0.3
    assert np.all(game.phi_values([1.0, 0.9], y) <= 0.0)
    assert game.phi_values(0.5, y) > 0.0


def test_reward_cap_violation_is_reported():
    mech = RewardMechanism(r=lambda n: 10.0 * (1.2 if n == 1 else 1.0 / 2 ** (n - 1) * n / 1.0), R=10.0)
    with pytest.raises(DomainError, match=r"r\(1\) = 12.0 outside \[0, R\]"):
        check_reward_sybilproof(mech)


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_a_schedule_outside_the_class_raises_naming_its_value(bad):
    # NaN compares false both ways: it must not slip past the membership test as a proof
    mech = RewardMechanism(r=lambda n: bad if n == 3 else max_sybilproof_reward(n, 1.0), R=1.0)
    with pytest.raises(DomainError, match=r"r\(3\)"):
        check_reward_sybilproof(mech)
    with pytest.raises(DomainError, match=r"r\(1\) = nan"):
        check_reward_sybilproof(RewardMechanism(r=lambda n: math.nan, R=1.0))


@pytest.mark.parametrize("y_max", [-1, -5])
def test_a_negative_y_max_raises_instead_of_a_vacuous_proof(y_max):
    with pytest.raises(DomainError, match="y_max"):
        check_reward_sybilproof(constant_mechanism(10.0), y_max=y_max)
    with pytest.raises(DomainError, match="x_max"):
        check_reward_sybilproof(constant_mechanism(10.0), x_max=1)
