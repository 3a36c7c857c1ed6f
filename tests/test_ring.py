import warnings

import numpy as np
import pytest

from oracles import central_diff
from sybilgames.errors import DomainError, SingularScaleError
from sybilgames.ring import (
    RingModel,
    ValueDistribution,
    beta22_values,
    constant_share_config,
    efficient_ring_loser_share,
    expected_order_stat,
    opt_ring_search,
    ring_transfer,
    second_price_outcome,
    truncated_exponential_values,
    uniform_values,
)

UNIFORM = uniform_values()


@pytest.mark.parametrize("dist", [uniform_values(), truncated_exponential_values(1.3, 1.0), beta22_values()])
def test_distribution_invariants(dist):
    assert float(dist.cdf(0.0)) == pytest.approx(0.0, abs=1e-12)
    assert float(dist.cdf(dist.v_h)) == pytest.approx(1.0, abs=1e-12)
    for x in np.linspace(0.05, 0.95, 10) * dist.v_h:
        fd = central_diff(lambda t: float(dist.cdf(t)), float(x), h=1e-6)
        assert fd == pytest.approx(float(dist.pdf(x)), abs=1e-6 + 1e-4 * abs(fd))
    u = np.concatenate(([0.0, 0.5, 1.0], np.linspace(0.01, 0.99, 25)))
    assert np.allclose(dist.cdf(dist.quantile(u)), u, atol=1e-9)


def test_second_price_basic_outcome():
    winner, price = second_price_outcome([3.0, 5.0, 2.0])
    assert (winner, price) == (1, 3.0)
    winner, price = second_price_outcome([4.0])
    assert (winner, price) == (0, 0.0)
    with pytest.raises(DomainError):
        second_price_outcome([])


def test_second_price_reserve():
    assert second_price_outcome([1.0, 2.0], reserve=3.0) == (None, 0.0)
    assert second_price_outcome([4.0, 1.0], reserve=2.0) == (0, 2.0)


def test_second_price_uniform_tie_break():
    wins = np.zeros(2)
    for seed in range(10_000):
        winner, price = second_price_outcome([4.0, 4.0], seed)
        assert price == 4.0
        wins[winner] += 1
    assert wins[0] / 10_000 == pytest.approx(0.5, abs=0.02)


def test_second_price_duplicating_own_bid_never_helps():
    rng = np.random.default_rng(123)
    for trial in range(2_000):
        values = rng.random(4)
        winner, price = second_price_outcome(list(values), trial)
        i = int(rng.integers(4))
        base = values[i] - price if winner == i else 0.0
        dup_winner, dup_price = second_price_outcome(list(values) + [values[i]], trial)
        dup = values[i] - dup_price if dup_winner in (i, 4) else 0.0
        assert dup <= base + 1e-12


def test_transfer_uniform_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        v = float(rng.random() * 0.95 + 0.05)
        cfg = constant_share_config(0.0, n)
        assert ring_transfer(v, cfg, UNIFORM) == pytest.approx((n - 1) * v / n, abs=1e-8)


def test_transfer_at_reserve_and_below():
    cfg = constant_share_config(0.3, 3, reserve=0.2)
    assert ring_transfer(0.2, cfg, UNIFORM) == 0.2
    with pytest.raises(DomainError):
        ring_transfer(0.1, cfg, UNIFORM)


def test_transfer_singular_scale():
    shifted = ValueDistribution(
        name="shifted",
        cdf=lambda x: np.clip((np.asarray(x) - 0.5) * 2.0, 0.0, 1.0),
        pdf=lambda x: np.where((np.asarray(x) >= 0.5) & (np.asarray(x) <= 1.0), 2.0, 0.0),
        v_h=1.0,
        quantile=lambda u: 0.5 + 0.5 * np.asarray(u),
    )
    with pytest.raises(SingularScaleError):
        ring_transfer(0.3, constant_share_config(0.0, 2), shifted)


def test_transfer_share_exponent_closed_form():
    # uniform with constant share theta: T(v) = (n-1) v / (n + theta)
    cases = [(3, 0.5, v) for v in (0.2, 0.6, 1.0)] + [(6, 1.0, 0.05), (6, 0.5, 0.1)]
    for n, theta, v in cases:
        cfg = constant_share_config(theta, n)
        assert ring_transfer(v, cfg, UNIFORM) == pytest.approx((n - 1) * v / (n + theta), abs=1e-9)


def test_transfer_is_conditional_second_highest_when_shares_are_zero():
    n, v = 3, 0.9
    cfg = constant_share_config(0.0, n)
    rng = np.random.default_rng(0)
    draws = rng.random((200_000, n - 1)) * v
    mc = float(draws.max(axis=1).mean())
    assert mc == pytest.approx(2.0 * v / 3.0, abs=0.01)
    assert ring_transfer(v, cfg, UNIFORM) == pytest.approx(mc, abs=0.01)


def test_model_spline_agrees_with_transfer_quadrature():
    for theta, n in ((0.0, 2), (0.5, 3), (1.0, 5)):
        cfg = constant_share_config(theta, n)
        model = RingModel(UNIFORM, cfg)
        for v in (0.15, 0.4, 0.75, 0.97):
            assert float(model.transfer(v)) == pytest.approx(
                ring_transfer(v, cfg, UNIFORM), abs=1e-8
            )


def test_member_payoff_reference_points():
    # no shares, one identity, top valuation: classic conditional profit
    model = RingModel(UNIFORM, constant_share_config(0.0, 2))
    assert model.payoff(1.0, 1.0, 1) == pytest.approx(0.5, abs=1e-9)
    # a zero bid never wins: only the loser-share stream remains
    theta, n = 0.5, 3
    model = RingModel(UNIFORM, constant_share_config(theta, n))
    expected_shares = 2.0 * theta / (3.0 * (3.0 + theta))
    assert model.payoff(0.0, 0.7, 1) == pytest.approx(expected_shares, abs=1e-9)


def test_member_payoff_on_arrays_matches_scalar_calls():
    model = RingModel(beta22_values(), constant_share_config(0.4, 3))
    bids = np.linspace(0.0, 1.0, 23)
    values = np.linspace(0.9, 0.1, 23)
    for m in (1, 2):
        array_payoffs = model.payoff(bids, values, m)
        scalar_payoffs = [model.payoff(float(w), float(v), m) for w, v in zip(bids, values)]
        assert isinstance(scalar_payoffs[0], float)
        assert array_payoffs.tolist() == scalar_payoffs


def test_member_payoff_closed_form_uniform_three():
    theta = 0.15
    model = RingModel(UNIFORM, constant_share_config(theta, 3))
    for m in (1, 2, 3):
        for v in (0.3, 0.7, 0.95):
            closed = (v**3 * (1.0 + m * theta) + (2.0 * m * theta / 3.0) * (1.0 - v**3)) / (
                m + 2.0 + theta
            )
            assert model.payoff(v, v, m) == pytest.approx(closed, abs=1e-9)


def test_truthful_bidding_is_optimal_on_a_refined_grid():
    from sybilgames.numerics import grid_argmax

    model = RingModel(UNIFORM, constant_share_config(0.5, 3))  # g(k) = 1/(2(k-1))
    v = 0.7
    best_w, _ = grid_argmax(lambda w: model.payoff(w, v, 1), 0.0, 1.0, 0.005, refine_rounds=4)
    assert best_w == pytest.approx(v, abs=1e-3)


def test_first_order_stationarity_at_truthful_bid():
    rng = np.random.default_rng(21)
    count = 0
    while count < 20:
        n = int(rng.integers(2, 6))
        theta = float(rng.random())
        v = float(0.2 + 0.7 * rng.random())
        model = RingModel(UNIFORM, constant_share_config(theta, n))
        slope = central_diff(lambda w: model.payoff(w, v, 1), v, h=1e-4)
        assert abs(slope) < 1e-5
        count += 1


def test_expected_order_stats_uniform():
    for n in range(2, 7):
        assert expected_order_stat(UNIFORM, n, 1) == pytest.approx(n / (n + 1.0), abs=1e-9)
        assert expected_order_stat(UNIFORM, n, 2) == pytest.approx((n - 1.0) / (n + 1.0), abs=1e-9)


def test_efficient_share_uniform_values():
    assert efficient_ring_loser_share(3, UNIFORM) == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert efficient_ring_loser_share(4, UNIFORM, reserve=1.0) == 0.0
    # conditional variant: E[v(2) | v(1) = t] = (n-1) t / n for uniforms
    assert efficient_ring_loser_share(3, UNIFORM, top_value=0.9) == pytest.approx(
        (2.0 / 3.0) * 0.9 / 3.0, abs=1e-9
    )


def test_doubling_the_efficient_share_pays_off():
    for n in range(4, 13):
        v_n = efficient_ring_loser_share(n, UNIFORM)
        v_next = efficient_ring_loser_share(n + 1, UNIFORM)
        assert 2.0 * v_next >= v_n


def test_budget_balance_on_simulated_auctions():
    rng = np.random.default_rng(5)
    n = 3
    for theta in (0.0, 0.5, 1.0):
        cfg = constant_share_config(theta, n)
        model = RingModel(UNIFORM, cfg)
        for m in (1, 3):
            k = n + m - 1
            values = rng.random(50) * 0.9 + 0.05
            transfers = np.asarray(model.transfer(values, k))
            paid_out = (k - 1) * cfg.g(k) * (transfers - cfg.reserve) + cfg.reserve
            assert np.all(paid_out <= transfers + 1e-12)


def test_zero_share_ring_collapses_to_plain_second_price_profit():
    result = opt_ring_search(UNIFORM, 3, thetas=[0.0], samples=50_000, seed=2)
    row = result.rows[0]
    assert row.baseline == pytest.approx(0.25, abs=1e-9)
    assert row.welfare == pytest.approx(row.baseline, abs=4.0 * row.welfare_se)


def test_opt_ring_search_finds_profitable_proof_ring():
    result = opt_ring_search(UNIFORM, 3, samples=40_000, seed=0)
    assert result.best_theta > 0.0
    assert result.best_welfare > result.baseline
    last = result.rows[-1]
    assert last.theta == 1.0 and not last.sybilproof_ok  # the efficient ring is attackable
    for row in result.rows:
        assert row.truthful_ok


def test_opt_ring_search_falls_back_when_nothing_passes():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = opt_ring_search(UNIFORM, 3, thetas=[0.8, 1.0], samples=20_000, seed=1)
    assert result.fell_back
    assert result.best_theta == 0.0
    assert any("falling back" in str(w.message) for w in caught)


def test_registration_stage_profits_match_closed_form():
    # E[pi(m)] = (1 + 3 m theta) / (4 (m + 2 + theta)) for uniform, n = 3
    for theta in (0.1, 0.5, 1.0):
        model = RingModel(UNIFORM, constant_share_config(theta, 3))
        for m in (1, 2, 3, 4):
            closed = (1.0 + 3.0 * m * theta) / (4.0 * (m + 2.0 + theta))
            assert model.expected_profit(m) == pytest.approx(closed, abs=1e-8)
