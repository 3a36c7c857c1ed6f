import dataclasses
import itertools
import math
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    central_diff,
    definition_member_payoff,
    envelope_expected_profit,
    fine_ring_transfer,
    fubini_expected_profit,
    level_loop_ring_transfer,
    quantile_scan_truthful,
    sampled_expected_profit,
    second_price_game,
    trapezoid_ring_transfer,
    unsorted_ring_welfare,
)
from sybilgames import ring
from sybilgames.core import SYBIL_TOL, SybilCost, SybilStrategy, count_verdict, merged_payoff, sybil_payoff
from sybilgames.errors import DomainError, NumericError, SingularScaleError
from sybilgames.numerics import QUAD_CELLS, QUAD_TOL, integrate
from sybilgames.ring import (
    DISTRIBUTIONS,
    MODEL_CELLS,
    RingConfig,
    RingModel,
    ValueDistribution,
    beta22_values,
    constant_share_config,
    efficient_ring_loser_share,
    expected_order_gap,
    opt_ring_search,
    ring_transfer,
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


@pytest.mark.parametrize("u", [1e-9, 1e-12, 1e-15])
def test_truncexp_quantile_keeps_its_digits_near_zero(u):
    for rate in (1.0, 5.0):
        mass = -math.expm1(-rate)
        assert float(truncated_exponential_values(rate).quantile(u)) == pytest.approx(
            -math.log1p(-u * mass) / rate, rel=1e-15
        )


@pytest.mark.parametrize(
    "build",
    [
        lambda: constant_share_config(0.5, 3, math.nan),
        lambda: truncated_exponential_values(math.nan),
        lambda: truncated_exponential_values(1.0, math.nan),
    ],
    ids=["reserve", "rate", "v_h"],
)
def test_nan_parameters_are_rejected(build):
    # NaN compares false both ways: a guard written as x < 0 let it through to a NumericError or a NaN cdf
    with pytest.raises(DomainError):
        build()


def test_second_price_reserve():
    # a bid below the reserve wins nothing; a winner whose rivals all bid under the reserve pays the reserve
    assert second_price_game(4.0, v_h=5.0, reserve=3.0).phi_values(2.0, 1.0) == 0.0
    game = second_price_game(4.0, v_h=5.0, reserve=2.0)
    assert game.phi_values([4.0, 4.0, 2.0], [1.0, 3.0, 0.0]).tolist() == [2.0, 1.0, 2.0]


def test_second_price_game_ties_lose():
    game = second_price_game(0.8)
    assert game.phi_values([0.5, 0.5, 0.6], [0.5, 0.4, 0.5]).tolist() == [0.0, 0.8 - 0.4, 0.8 - 0.5]
    # two own identities on the same top bid tie with each other, so both lose
    assert sybil_payoff(game, SybilCost.zero(), SybilStrategy([0.6, 0.6]), [0.3]) == 0.0


def test_second_price_duplicating_own_bid_never_helps():
    # a second identity's bid either loses or, at or above the first, ties it or raises the first's price
    rng = np.random.default_rng(123)
    for _ in range(2_000):
        values = rng.random(4)
        i = int(rng.integers(4))
        game = second_price_game(float(values[i]))
        foreign = [float(x) for j, x in enumerate(values) if j != i]
        truthful = SybilStrategy([float(values[i])])
        base = sybil_payoff(game, SybilCost.zero(), truthful, foreign)
        assert base == merged_payoff(game, truthful, foreign)
        for extra in (float(values[i]), float(rng.uniform(1e-9, 1.0))):
            split = SybilStrategy([float(values[i]), extra])
            assert sybil_payoff(game, SybilCost.zero(), split, foreign) <= base + 1e-12


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
    with pytest.raises(SingularScaleError):  # F(v)^e = 1e-360 underflows to 0
        ring_transfer(1e-60, constant_share_config(1.0, 6), UNIFORM)


@pytest.mark.parametrize("v, n, theta", [(1e-160, 2, 0.0), (1e-300, 2, 0.0), (1e-100, 3, 0.5)])
def test_transfer_of_a_bid_whose_scale_underflows_raises(v, n, theta):
    # v F(v)^e is subnormal or 0 while F(v)^e is not: S would have lost its digits
    with pytest.raises(SingularScaleError):
        ring_transfer(v, constant_share_config(theta, n), UNIFORM)


def test_transfer_of_a_tiny_bid_above_the_underflow_keeps_its_digits():
    v = 1e-150  # v F(v) = 1e-300, still a normal float
    assert abs(ring_transfer(v, constant_share_config(0.0, 2), UNIFORM) - v / 2.0) <= 1e-10 * v / 2.0


def test_transfer_share_exponent_closed_form():
    # uniform with constant share theta: T(v) = (n-1) v / (n + theta)
    cases = [(3, 0.5, v) for v in (0.2, 0.6, 1.0)] + [(6, 1.0, 0.05), (6, 0.5, 0.1)]
    for n, theta, v in cases:
        cfg = constant_share_config(theta, n)
        assert ring_transfer(v, cfg, UNIFORM) == pytest.approx((n - 1) * v / (n + theta), abs=1e-9)


@pytest.mark.parametrize("reserve", [0.2, 0.5])
@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("theta", [0.0, 0.35, 1.0])
def test_transfer_uniform_closed_form_with_a_reserve(reserve, n, theta):
    # uniform, e = n - 1 + theta, l = theta, the losers sharing T - r:
    # T(v) = [(n-1)/(e+1) (v^(e+1) - r^(e+1)) + theta r/e (v^e - r^e) + r^(e+1)] / v^e
    cfg = constant_share_config(theta, n, reserve=reserve)
    e, r = n - 1 + theta, reserve
    for v in (r + 1e-3, 0.5 * (r + 1.0), 0.9, 1.0):
        reserve_term = theta * r / e * (v**e - r**e)
        closed = ((n - 1) / (e + 1) * (v ** (e + 1) - r ** (e + 1)) + reserve_term + r ** (e + 1)) / v**e
        assert ring_transfer(v, cfg, UNIFORM) == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("dist", [uniform_values(), truncated_exponential_values(), beta22_values()], ids=lambda d: d.name)
def test_transfer_is_a_python_float(dist):
    # an np.float64 would print as np.float64(...) in a table row
    assert type(ring_transfer(0.7, constant_share_config(0.5, 3), dist)) is float


def test_transfer_never_evaluates_the_density():
    def no_pdf(x):
        raise AssertionError("ring_transfer evaluated the density")

    dist = ValueDistribution("uniform-no-pdf", UNIFORM.cdf, no_pdf, 1.0, UNIFORM.quantile)
    cfg = constant_share_config(0.5, 3, reserve=0.1)
    assert ring_transfer(0.6, cfg, dist) == pytest.approx(ring_transfer(0.6, cfg, UNIFORM), rel=1e-15)


@pytest.mark.parametrize("reserve", [0.0, 0.3])
def test_model_transfer_node_values_read_no_density(reserve):
    # both transfers are one by-parts formula in F^e: the node values read no f
    true = beta22_values()
    wrong = ValueDistribution("beta22-wrong-pdf", true.cdf, lambda x: np.full(np.shape(x), 7.0), 1.0, true.quantile)
    cfgs = [constant_share_config(theta, 3, reserve) for theta in (0.0, 0.5, 1.0)]
    for k in (2, 3, 5):
        assert np.array_equal(RingModel(wrong, cfgs)._transfer(k), RingModel(true, cfgs)._transfer(k))


@pytest.mark.parametrize("dist", ["uniform", "beta22", "truncexp"])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_transfer_matches_a_fine_by_parts_oracle(dist, n):
    # the oracle's 2^18 Simpson cells are 5e-15 relative off at e = 1.5; the nested levels stop
    # as soon as their bound certifies 1e-10 of S
    values = DISTRIBUTIONS[dist]()
    fractions = [0.01, 1.0] + np.random.default_rng(n).uniform(0.01, 1.0, 3).tolist()
    for reserve in (0.0, 0.2):
        for theta in (0.0, 0.5, 1.0):
            cfg = constant_share_config(theta, n, reserve)
            for v in (reserve + (1.0 - reserve) * f for f in fractions):
                expected = fine_ring_transfer(v, n, theta, dist, reserve)
                assert ring_transfer(v, cfg, values) == pytest.approx(expected, rel=1e-10)


def transfer_outcome(transfer, v, cfg, dist):
    """transfer(v, cfg, dist), or the type and message of what it raised."""
    try:
        return transfer(v, cfg, dist)
    except (DomainError, NumericError) as exc:
        return type(exc), str(exc)


def test_transfer_equals_the_first_level_loop_bit_for_bit_on_the_probe_grid():
    # the probe grid of ROADMAP item 1: 3 distributions x n in {2, 3, 4, 6} x r in {0, 0.2, 0.5} x 21 theta x
    # v - r = (1 - r) {1/2048, 1/256, 1/32, 0.1, 0.25, 0.5, 0.75, 1}, then steep truncated exponentials above a
    # reserve, where no probe bid climbs; the loop on floats and midpoints returns every value, and raises every
    # error, of the loop on numpy scalars and full point arrays
    fractions = (1 / 2048, 1 / 256, 1 / 32, 0.1, 0.25, 0.5, 0.75, 1.0)
    probe = [
        (make(), constant_share_config(i / 20, n, r), r + (1.0 - r) * fraction)
        for make in DISTRIBUTIONS.values()
        for n, r, i, fraction in itertools.product((2, 3, 4, 6), (0.0, 0.2, 0.5), range(21), fractions)
    ]
    steep = [
        (truncated_exponential_values(rate), constant_share_config(theta, n, r), v)
        for rate, r, (n, theta), v in itertools.product((20.0, 50.0), (0.05, 0.2), ((2, 0.5), (6, 1.0)), (0.5, 1.0))
    ]
    raised, deepest, climbed_above_reserve = 0, 0, 0
    for dist, cfg, v in probe + steep:
        sampled = []  # the number of points of each cdf call
        counted = dataclasses.replace(dist, cdf=lambda u, cdf=dist.cdf: sampled.append(np.size(u)) or cdf(u))
        got = transfer_outcome(ring_transfer, v, cfg, counted)
        expected = transfer_outcome(level_loop_ring_transfer, v, cfg, dist)
        assert (type(got), got) == (type(expected), expected), (dist.name, cfg.n, cfg.reserve, v)
        cells = (sum(sampled) - 1) // 2  # the first level's 2 cells + 1 points, then each level's midpoints
        if isinstance(got, tuple):
            raised += 1
            assert got[0] is NumericError and cells == QUAD_CELLS
        else:
            deepest += cells == QUAD_CELLS
            climbed_above_reserve += cfg.reserve > 0.0 and cells > ring.TRANSFER_FIRST_CELLS
    assert raised == 58  # ROADMAP item 1's count on the probe grid: the e just above 1 failures
    assert deepest > 0 and climbed_above_reserve > 0


@pytest.mark.parametrize("dist", [UNIFORM, beta22_values(), truncated_exponential_values()], ids=lambda d: d.name)
@pytest.mark.parametrize("n", [2, 3, 6])
def test_order_integrals_on_floats_equal_their_row_axis_calls_bit_for_bit(dist, n):
    # a cdf returning two equal rows sends the same integrand through integrate's row axis
    rows = dataclasses.replace(dist, cdf=lambda u: np.stack([dist.cdf(u)] * 2))
    one, two = expected_order_gap(dist, n), expected_order_gap(rows, n)
    assert type(one) is float and two.shape == (2,)
    assert two.tolist() == [one, one]


@pytest.mark.parametrize("rate, v", [(5.0, 0.9), (50.0, 0.1)])
def test_steep_truncexp_transfers_raise_or_resolve(rate, v):
    # |fine - coarse|/15 understated these errors, so a value 2.7e-10 (3.4e-10) off passed as 1e-10
    expected = fine_ring_transfer(v, 2, 0.35, "truncexp", rate=rate)
    try:
        transfer = ring_transfer(v, constant_share_config(0.35, 2), truncated_exponential_values(rate))
    except NumericError:
        return
    assert transfer == pytest.approx(expected, rel=1e-10)


def test_transfer_raises_on_an_unresolved_integral():
    # a steep truncated exponential: the estimated error is about 2.5e-9 of the integral
    with pytest.raises(NumericError, match="unresolved"):
        ring_transfer(0.9, constant_share_config(0.35, 2), truncated_exponential_values(200.0))


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("theta", [0.0, 0.35, 1.0])
def test_truncexp_transfer_near_zero_is_the_uniform_limit(n, theta):
    # F(u) = u (1 - u/2 + ...)/mass, so T(v) -> (n-1) v/(n+theta) to relative O(v); the cdf's
    # expm1 keeps the digits that 1 - exp(-u) loses as u -> 0
    dist = truncated_exponential_values()
    cfg = constant_share_config(theta, n)
    for v in (1e-12, 1e-15):
        assert ring_transfer(v, cfg, dist) == pytest.approx((n - 1) * v / (n + theta), rel=1e-9)


def test_transfer_is_conditional_second_highest_when_shares_are_zero():
    n, v = 3, 0.9
    cfg = constant_share_config(0.0, n)
    rng = np.random.default_rng(0)
    draws = rng.random((200_000, n - 1)) * v
    mc = float(draws.max(axis=1).mean())
    assert mc == pytest.approx(2.0 * v / 3.0, abs=0.01)
    assert ring_transfer(v, cfg, UNIFORM) == pytest.approx(mc, abs=0.01)


def test_model_transfer_agrees_with_transfer_quadrature():
    for theta, n in ((0.0, 2), (0.5, 3), (1.0, 5)):
        cfg = constant_share_config(theta, n)
        model = RingModel(UNIFORM, cfg)
        for v in (0.15, 0.4, 0.75, 0.97):
            assert float(model.transfer(v)) == pytest.approx(
                ring_transfer(v, cfg, UNIFORM), abs=1e-8
            )


@pytest.mark.parametrize("dist", [beta22_values(), truncated_exponential_values()], ids=lambda d: d.name)
@pytest.mark.parametrize("theta", [0.0, 0.35, 1.0])
def test_model_transfer_agrees_with_transfer_quadrature_at_random_bids(dist, theta):
    cfg = constant_share_config(theta, 3)
    model = RingModel(dist, cfg)
    # Bids start at 0.02 v_h: nearer the reserve the node values carry the error of composite Simpson on
    # F^e's power at F = 0. On a scan of v in [0.002, 1] the error peaks at 1.9e-10 (beta22, theta = 1);
    # above 0.02 at 2.2e-11 (truncexp, theta = 0.35). On the even grid it passed 5e-10 below v = 0.014 and
    # peaked at 1.7e-10 above 0.02.
    bids = np.random.default_rng(11).uniform(0.02 * dist.v_h, dist.v_h, 200)
    error = np.abs(model.transfer(bids) - np.array([ring_transfer(float(v), cfg, dist) for v in bids]))
    assert error.max() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(DISTRIBUTIONS)),
    n=st.integers(2, 8),
    theta=st.floats(0.0, 1.0),
    reserve=st.floats(0.0, 0.8),
    extra=st.integers(0, 3),
)
def test_model_transfers_start_at_the_reserve_rise_and_stay_between_it_and_the_bid(name, n, theta, reserve, extra):
    # by parts, r <= T <= v follows from Simpson's positive weights; the density form put the first node
    # at up to 3.3 times the bid (beta22, n = 8, k = 11, theta = 0)
    model = RingModel(DISTRIBUTIONS[name](), constant_share_config(theta, n, reserve))
    t, v = model._transfer(n + extra)[0], model.grid[::2]
    assert t[0] == reserve
    assert np.all(t >= reserve * (1.0 - 1e-12)) and np.all(t <= v * (1.0 + 1e-12))
    assert np.all(np.diff(t) >= -1e-12 * v[1:])


@pytest.mark.parametrize("k", [1, 0, -3, 2.5, True])
def test_transfer_rejects_a_report_count_that_is_not_an_integer_of_at_least_two(k):
    # k = 1 made e = 0 (NaN with warnings), and 2.5 used to price a fractional count
    model = RingModel(UNIFORM, constant_share_config(0.0, 2))
    with pytest.raises(DomainError, match="integers >= 2"):
        model.transfer(0.5, k)


@pytest.mark.parametrize("dist", ["beta22", "truncexp"])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_transfer_quadrature_matches_a_fine_trapezoid_off_the_uniform_rows(dist, n):
    # the trapezoid's own error, about k(k+1)/(12 cells^2) relative on an integrand ~ u^k, peaks near
    # 3.3e-10 at beta22, n = 6, theta = 1 (k = 12)
    values = DISTRIBUTIONS[dist]()
    bids = [0.01, 1.0] + np.random.default_rng(n).uniform(0.01, 1.0, 3).tolist()
    for theta in (0.0, 0.5, 1.0):
        cfg = constant_share_config(theta, n)
        for v in bids:
            expected = trapezoid_ring_transfer(v, n, theta, dist)
            assert ring_transfer(v, cfg, values) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("dist", [beta22_values(), truncated_exponential_values()], ids=lambda d: d.name)
# n = 2: the transfer's F^e is F^1 at theta = 0 and F^2 at theta = 1, where numpy's ** may swap in a copy or a
# square for a single config's exponent but not for a joint model's column of exponents; a bid's F^e rounds by
# the power loop's memory layout, so payoff and transfer raise it row by row
@pytest.mark.parametrize("n, reserve", [(3, 0.05), (2, 0.05), (3, 0.0)])
def test_a_model_over_several_configs_equals_single_config_models_row_by_row(dist, n, reserve):
    cfgs = [constant_share_config(theta, n, reserve=reserve) for theta in (0.0, 0.35, 0.7, 1.0)]
    joint = RingModel(dist, cfgs)
    rng = np.random.default_rng(4)
    bids = rng.uniform(0.0, dist.v_h, (len(cfgs), 60))
    values = rng.uniform(0.0, dist.v_h, 60)
    counts = [1, 2, 3, 4]
    profits = joint.expected_profit(counts)
    assert profits.shape == (len(cfgs), len(counts))
    for c, cfg in enumerate(cfgs):
        single = RingModel(dist, cfg)
        assert np.array_equal(joint.transfer(bids[None, 0])[c], single.transfer(bids[0]))
        for m in counts:
            assert np.array_equal(joint.payoff(bids, values, m)[c], single.payoff(bids[c], values, m))
            assert np.array_equal(joint.payoff(bids[None, 0], values, m)[c], single.payoff(bids[0], values, m))
            assert joint.expected_profit(m)[c] == single.expected_profit(m)
        assert profits[c].tolist() == [single.expected_profit(m) for m in counts]


def test_a_reserve_at_or_above_the_top_value_is_a_domain_error():
    with pytest.raises(DomainError):
        opt_ring_search(UNIFORM, 3, [0.0, 0.5], reserve=1.2)
    with pytest.raises(DomainError):
        RingModel(UNIFORM, constant_share_config(0.3, 3, reserve=1.0))
    with pytest.raises(DomainError):  # one model's configs share reserve and n
        RingModel(UNIFORM, [constant_share_config(0.3, 3), constant_share_config(0.3, 4)])


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


@pytest.mark.parametrize("theta", [0.0, 5e-324, 2.2e-313, 0.15, 1.0])
def test_member_payoff_closed_form_uniform_three(theta):
    # the subnormal thetas: m g (n-1)/p is formed as one ratio, so (n-1)/p cannot overflow on the way
    model = RingModel(UNIFORM, constant_share_config(theta, 3))
    for m in (1, 2, 3, 4):
        for v in (0.3, 0.7, 0.95):
            closed = (v**3 * (1.0 + m * theta) + (2.0 * m * theta / 3.0) * (1.0 - v**3)) / (
                m + 2.0 + theta
            )
            assert model.payoff(v, v, m) == pytest.approx(closed, abs=1e-12)


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
    # E[v(1)] - E[v(2)] = n/(n+1) - (n-1)/(n+1) for n uniforms
    for n in range(2, 7):
        assert expected_order_gap(UNIFORM, n) == pytest.approx(1.0 / (n + 1.0), abs=1e-9)


def test_beta22_ring_baseline_is_27_over_140():
    # the baseline column of `ring --dist beta22 --n 3`: E[v(1) - v(2)] for three Beta(2, 2) draws
    baseline = opt_ring_search(beta22_values(), 3, thetas=[0.0]).baseline
    assert abs(baseline - 27.0 / 140.0) <= 2e-15


@pytest.mark.parametrize(
    "dist, n, exact",
    [(beta22_values(), 3, 27 / 140), (beta22_values(), 6, 3105 / 24871), (UNIFORM, 4, 1 / 5), (UNIFORM, 6, 1 / 7)],
)
def test_search_baseline_is_the_exact_order_gap(dist, n, exact):
    # one integral of n F^(n-1) (1 - F): the two order statistics' difference was up to 6.2e-14 off here
    assert abs(expected_order_gap(dist, n) - exact) <= 5e-15 * exact


@pytest.mark.parametrize("reserve", [0.0, 0.1, 0.25])
def test_shifted_baseline_and_search_resolve_where_the_density_jump_is_the_first_node(reserve):
    # uniform on [1/2, 1]: n F (1 - F) has only a kink at 1/2, where the order statistics' density jumped; below
    # 1/2 the reserve changes no welfare, and the model's grid starts at the support's start, 1/2, so the
    # profit's integrand jumps at no cell's inside either
    shifted = ValueDistribution(
        "shifted", lambda x: np.clip((np.asarray(x) - 0.5) * 2.0, 0.0, 1.0),
        lambda x: np.where((np.asarray(x) >= 0.5) & (np.asarray(x) <= 1.0), 2.0, 0.0),
        1.0, lambda u: 0.5 + 0.5 * np.asarray(u),
    )
    assert expected_order_gap(shifted, 2) == pytest.approx(1 / 6, rel=1e-15)
    result = opt_ring_search(shifted, 2, reserve=reserve)
    assert result.rows[0].theta == 0.0 and abs(result.rows[0].welfare - 1 / 6) <= 1e-12


def test_order_statistics_and_efficient_shares_never_evaluate_the_density():
    def no_pdf(x):
        raise AssertionError("the density was evaluated")

    for true in (UNIFORM, beta22_values()):
        dist = ValueDistribution("no-pdf", true.cdf, no_pdf, 1.0, true.quantile)
        assert expected_order_gap(dist, 4) == expected_order_gap(true, 4)
        assert efficient_ring_loser_share(4, dist, 0.2) == efficient_ring_loser_share(4, true, 0.2)


def test_efficient_share_uniform_values():
    assert efficient_ring_loser_share(3, UNIFORM) == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert efficient_ring_loser_share(4, UNIFORM, reserve=1.0) == efficient_ring_loser_share(3, UNIFORM, 1.5) == 0.0


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
    result = opt_ring_search(UNIFORM, 3, thetas=[0.0])
    row = result.rows[0]
    assert row.baseline == pytest.approx(0.25, abs=1e-9)
    assert row.welfare == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("reserve", [0.0, 0.2])
def test_opt_ring_search_finds_profitable_proof_ring(reserve):
    # under a reserve every theta > 0 failed truthfulness while the IC transfer dropped the l r term
    result = opt_ring_search(UNIFORM, 3, reserve=reserve)
    assert result.best_theta > 0.0
    assert result.best_welfare > result.baseline
    last = result.rows[-1]
    assert last.theta == 1.0 and not last.sybilproof_ok  # the efficient ring is attackable
    for row in result.rows:
        assert row.truthful_ok


@pytest.mark.parametrize(
    "dist, best, passing",
    [(beta22_values(), 0.1, 3), (truncated_exponential_values(), 0.15, 4)],
    ids=["beta22", "truncexp"],
)
def test_the_searched_verdicts_off_the_uniform_rows(dist, best, passing):
    # pinned so that a rounding move in the profits or the baseline that flips a verdict fails here
    result = opt_ring_search(dist, 3)
    assert result.best_theta == pytest.approx(best, abs=1e-12)
    assert sum(row.truthful_ok and row.sybilproof_ok for row in result.rows) == passing
    assert result.baseline == expected_order_gap(dist, 3)


@pytest.mark.parametrize("reserve", [0.0, 0.2])
@pytest.mark.parametrize("dist", [uniform_values(), beta22_values(), truncated_exponential_values()], ids=lambda d: d.name)
def test_the_rows_carry_the_margins_behind_their_verdicts(dist, reserve):
    thetas = np.linspace(0.0, 1.0, 21)
    result = opt_ring_search(dist, 3, thetas, reserve=reserve)
    model = RingModel(dist, [constant_share_config(t, 3, reserve) for t in thetas])
    split = count_verdict(model.expected_profit(range(1, ring.RING_MAX_IDENTITIES + 1)), SYBIL_TOL)
    for row, gain, m in zip(result.rows, split.gains, split.xs):
        assert row.truthful_ok == (row.truthful_gap <= 1e-4) and row.truthful_gap >= 0.0
        assert row.sybilproof_ok == (row.split_gain <= SYBIL_TOL)
        assert (row.split_gain, row.split_m) == (gain, m) and type(row.split_m) is int
    assert result.rows[-1].split_gain > SYBIL_TOL  # the efficient ring is attackable


def test_opt_ring_search_falls_back_when_nothing_passes():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = opt_ring_search(UNIFORM, 3, thetas=[0.8, 1.0])
    assert result.fell_back
    assert result.best_theta == 0.0
    assert any("falling back" in str(w.message) for w in caught)


def test_fallback_reports_the_zero_ring_at_the_reserve():
    # at r = 0.7 the theta = 0 ring earns 0.087075, far from the no-reserve E[v(1) - v(2)] = 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fallback = opt_ring_search(UNIFORM, 3, [0.3], reserve=0.7)
    zero = opt_ring_search(UNIFORM, 3, [0.0, 0.3], reserve=0.7)
    assert fallback.fell_back and not zero.fell_back and zero.best_theta == 0.0
    assert fallback.best_theta == 0.0 and fallback.best_welfare == zero.best_welfare == zero.rows[0].welfare
    assert zero.best_welfare == pytest.approx(0.087075, abs=1e-12)
    assert fallback.baseline == zero.baseline == pytest.approx(0.25, abs=1e-12)


def test_registration_stage_profits_match_closed_form():
    # E[pi(m)] = (1 + m n theta) / ((n + m - 1 + theta) (n + 1)) for uniform values and no reserve;
    # the worst row, at n = 8, is 2.5e-12 off (the even grid's n = 2 rows were 8.1e-10 off)
    thetas, counts = np.linspace(0.0, 1.0, 21), np.arange(1, 5)
    for n in range(2, 9):
        profits = RingModel(UNIFORM, [constant_share_config(t, n) for t in thetas]).expected_profit(counts)
        closed = (1.0 + counts * n * thetas[:, None]) / ((n + counts - 1.0 + thetas[:, None]) * (n + 1.0))
        assert np.all(np.abs(profits - closed) <= 5e-12 * closed), n


def _sybilproof(profits):
    """opt_ring_search's identity-splitting verdict per config row of (config, m = 1..4) profits."""
    return count_verdict(profits, SYBIL_TOL).gains <= SYBIL_TOL


@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_profits_from_node_weights_agree_with_the_sampled_integrand(dist, n):
    values, counts = DISTRIBUTIONS[dist](), [1, 2, 3, 4]
    for reserve in (0.0, 0.05, 0.3):
        model = RingModel(values, [constant_share_config(theta, n, reserve) for theta in np.linspace(0.0, 1.0, 21)])
        profits = model.expected_profit(counts)
        assert model._G is None  # the profits build none of the member payoff's integrals
        # the same integrand with the transfer at integrate's points, and the literal integrand, loser
        # shares and below-reserve mass included, are other discretizations of the same
        # integral than the profit's node rule (worst 2.7e-12, beta22 n = 6 r = 0)
        fubini = fubini_expected_profit(model, counts)
        assert np.all(np.abs(profits - fubini) <= 1e-11 * np.abs(fubini))
        sampled = sampled_expected_profit(model, counts)
        assert np.all(np.abs(profits - sampled) <= QUAD_TOL * np.abs(sampled))
        assert np.array_equal(_sybilproof(profits), _sybilproof(sampled))
        # at x = r the one-identity payoff is g L(r) >= 0: T(r) = r leaves only the loser shares
        # (beta22, n = 2, r = 0.3, theta = 1 read -0.035 while the IC transfer dropped the reserve)
        assert np.all(model.payoff(reserve, reserve, 1) >= -1e-15)  # r - T(r) rounds at theta = 0
        if (dist, n, reserve) == ("beta22", 2, 0.3):
            assert model.payoff(reserve, reserve, 1)[-1] == pytest.approx(0.0571438, rel=1e-6)


@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_one_identity_profit_satisfies_the_envelope_identity(dist, n):
    # shares no formula with the IC condition: only the payoff at the reserve and F enter the oracle.
    # The worst row, uniform n = 6 theta = 0 at r = 0, is 8.9e-11 off: the oracle's own trapezoid error,
    # h^2/12 of a profit of 1/42. On the even grid truncexp n = 2 theta = 0.35 was 4.4e-9 off
    for reserve in (0.0, 0.2, 0.5):
        model = RingModel(DISTRIBUTIONS[dist](), [constant_share_config(t, n, reserve) for t in (0.0, 0.35, 1.0)])
        profit = model.expected_profit(1)
        assert np.all(np.abs(profit - envelope_expected_profit(model)) <= 2e-10 * np.abs(profit)), reserve


@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("reserve", [0.0, 0.05])
def test_profits_equal_the_member_payoffs_on_the_models_own_nodes(dist, n, reserve):
    # the profits fold no loser shares: swapping the order of integration makes them one more weight on the
    # transfer, which equals the payoff's closed-form loser shares integrated against f only up to the
    # quadrature, so the nodes' own Simpson rule over payoff(x, x, m) f dx/ds, plus the mass F(r) below the
    # reserve at a bid below it, agrees to the accuracy the profit claims and gives the same verdicts
    counts = [1, 2, 3, 4]
    model = RingModel(DISTRIBUTIONS[dist](), [constant_share_config(t, n, reserve) for t in (0.0, 0.35, 0.7, 1.0)])
    profits = model.expected_profit(counts)
    nodes = model.grid[None, ::2]
    rule = ring._simpson_weights(2.0 * model._h, MODEL_CELLS // 2)[0] * model._f[::2] * model._dxds[::2]
    below = float(model.dist.cdf(reserve))
    explicit = np.stack(
        [model.payoff(nodes, nodes, m) @ rule + below * model.payoff(reserve - 1.0, reserve - 1.0, m) for m in counts],
        axis=-1,
    )
    assert np.all(np.abs(profits - explicit) <= QUAD_TOL * np.abs(explicit))
    assert np.array_equal(_sybilproof(profits), _sybilproof(explicit))


def test_payoff_reads_the_ratio_of_its_count_and_builds_no_transfer_values(monkeypatch):
    built, exact = [], RingModel._transfer
    monkeypatch.setattr(RingModel, "_transfer", lambda self, k: built.append(k) or exact(self, k))
    model = RingModel(UNIFORM, constant_share_config(0.5, 3))
    model.expected_profit([1, 2])
    assert sorted(model._ratios) == [3, 4] and built == [] and model._G is None  # the profits contract A = J/F^e alone
    model.payoff(0.5, 0.5, 3)
    assert sorted(model._ratios) == [3, 4, 5] and built == [] and model._G is not None
    survival = model._G
    model.payoff(0.5, 0.5, 1)
    assert model._G is survival  # built once per model
    # the search builds the n-report transfer node values its certificate reads, and no other
    built.clear()
    opt_ring_search(UNIFORM, 3, reserve=0.2)
    assert built == [3]


@pytest.mark.parametrize("k", [None, 4])
def test_model_transfer_reads_the_ratio_of_its_count_alone(monkeypatch, k):
    model = RingModel(beta22_values(), [constant_share_config(t, 3) for t in (0.0, 0.5, 1.0)])
    nodes = model.grid[::2]
    expected = model._transfer(k or 3)
    monkeypatch.setattr(RingModel, "_transfer", lambda self, k: pytest.fail("transfer built node transfer values"))
    model._ratios.clear()
    out = model.transfer(nodes[None], k)
    assert sorted(model._ratios) == [k or 3] and model._G is None  # no loser-share integral for the transfer
    assert np.abs(out - expected).max() <= 1e-15  # a bid on a node reads that node


@pytest.mark.parametrize("reserve", [0.0, 0.2])
def test_payoff_and_transfer_sample_only_the_cdf_after_construction(reserve):
    def no_pdf(x):
        raise AssertionError("the density was evaluated after construction")

    true = beta22_values()
    cfgs = [constant_share_config(theta, 3, reserve) for theta in (0.0, 0.5, 1.0)]
    model, expected = RingModel(true, cfgs), RingModel(true, cfgs)
    model.dist = dataclasses.replace(true, pdf=no_pdf)
    bids = np.linspace(0.0, 1.0, 11)[None]
    for m in (1, 2, 4):
        assert np.array_equal(model.payoff(bids, 0.6, m), expected.payoff(bids, 0.6, m))
    assert np.array_equal(model.transfer(bids, 5), expected.transfer(bids, 5))


@pytest.mark.parametrize("dist", [beta22_values(), truncated_exponential_values()], ids=lambda d: d.name)
@pytest.mark.parametrize("reserve", [0.0, 0.2])
def test_member_payoff_matches_its_definition_on_ring_transfer(dist, reserve):
    # the oracle shares no formula with the closed-form loser shares: ring_transfer at the bid and on a
    # 2,048-cell trapezoid of the loser shares, whose own h^2 error dominates (worst 5.5e-8, over these bids
    # at n = 3, theta = 0.5; 1.4e-8 at 4,096 cells). n = 2, r = 0, theta <= 0.3 is avoided: ring_transfer
    # raises near F = 0 there
    cfg = constant_share_config(0.5, 3, reserve)
    model = RingModel(dist, cfg)
    for m in (1, 2, 4):
        for w, v in ((0.1, 0.3), (0.5, 0.5), (0.8, 0.6)):
            assert abs(model.payoff(w, v, m) - definition_member_payoff(w, v, m, cfg, dist)) <= 1e-7, (m, w, v)


def test_a_share_past_the_configs_checked_counts_is_checked_when_its_transfer_is_built():
    # RingConfig checks only g(n) = g(3); m = 15 identities face k = 17
    cfg = RingConfig(g=lambda k: 0.0 if k < 15 else 1.0, n=3)
    with pytest.raises(DomainError, match=r"budget balance needs 0 <= g\(17\) <= 1/16"):
        RingModel(UNIFORM, cfg).expected_profit(15)
    with pytest.raises(DomainError, match="budget balance"):
        RingModel(UNIFORM, cfg).payoff(0.5, 0.5, 15)
    with pytest.raises(DomainError, match="budget balance"):
        RingModel(UNIFORM, cfg).transfer(0.5, 17)
    assert RingModel(UNIFORM, cfg).expected_profit(12) > 0.0  # g(14) = 0 is balanced
    with pytest.raises(DomainError, match=r"g\(3\)"):
        RingConfig(g=lambda k: 0.6, n=3)


def test_a_config_is_checked_at_construction_only_at_its_own_count():
    cfg = RingConfig(g=lambda k: 0.5 if k == 3 else 1.0, n=3)  # g(4) = 1 > 1/3
    assert RingModel(UNIFORM, cfg).transfer(0.5) > 0.0
    with pytest.raises(DomainError, match=r"budget balance needs 0 <= g\(4\) <= 1/3"):
        RingModel(UNIFORM, cfg).transfer(0.5, 4)
    with pytest.raises(DomainError, match=r"g\(3\)"):
        RingConfig(g=lambda k: 0.0 if k == 4 else 0.6, n=3)


def test_a_nan_share_is_not_budget_balanced():
    # NaN compares false both ways, so only a two-sided range test that it must pass rejects it
    with pytest.raises(DomainError, match=r"g\(3\) <= 1/2, got nan"):
        RingConfig(g=lambda k: math.nan, n=3)
    cfg = RingConfig(g=lambda k: 0.25 if k == 3 else math.nan, n=3)
    with pytest.raises(DomainError, match=r"g\(4\) <= 1/3, got nan"):
        RingModel(UNIFORM, cfg).transfer(0.5, 4)


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("name", ["uniform", "beta22", "truncexp"])
def test_ratios_built_on_two_threads_equal_one_count_builds_bit_for_bit(name, n):
    # the 1st and 3rd missing counts are built on the calling thread, the 2nd and 4th on the helper thread
    cfgs = [constant_share_config(t, n) for t in np.linspace(0.0, 1.0, 21)]
    model, serial = RingModel(DISTRIBUTIONS[name](), cfgs), RingModel(DISTRIBUTIONS[name](), cfgs)
    profits = model.expected_profit(range(1, 5))
    for m in range(1, 5):
        assert profits[:, m - 1].tolist() == serial.expected_profit(m).tolist()
    assert sorted(model._ratios) == sorted(serial._ratios) == list(range(n, n + 4))
    for k, (A, held) in serial._ratios.items():
        assert A.tobytes() == model._ratios[k][0].tobytes() and np.array_equal(held, model._ratios[k][1])


def test_every_missing_count_is_checked_for_budget_balance_before_any_ratio_is_built():
    # g breaks budget balance at n + 1, which the calling thread builds, and at n + 2, which the helper builds
    cfg = RingConfig(g=lambda k: 1.0 if k in (4, 5) else 0.25, n=3)
    model = RingModel(UNIFORM, cfg)
    with pytest.raises(DomainError, match=r"budget balance needs 0 <= g\(4\) <= 1/3, got 1.0"):
        model.expected_profit(range(1, 5))
    assert model._ratios == {}


def test_repeated_searches_start_no_further_threads():
    opt_ring_search(beta22_values(), 3)
    started = threading.active_count()
    for _ in range(3):
        opt_ring_search(beta22_values(), 3)
        assert threading.active_count() == started
    assert [t.name.startswith("sybilgames-ratio") for t in threading.enumerate()].count(True) == 1


def test_concurrent_callers_share_the_helper_and_get_the_serial_profits():
    # six callers on two cores, one model shared by all and one of their own each, under a short switch interval
    cfgs = [constant_share_config(t, 3) for t in (0.0, 0.4, 0.8)]
    expected = np.stack([RingModel(beta22_values(), cfgs).expected_profit(m) for m in range(1, 5)], axis=-1)
    shared, results = RingModel(beta22_values(), cfgs), []

    def call():
        for model in (shared, RingModel(beta22_values(), cfgs), RingModel(beta22_values(), cfgs)):
            results.append((model, model.expected_profit(range(1, 5))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(6)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers) and len(results) == 18
    for model, profits in results:
        assert sorted(model._ratios) == [3, 4, 5, 6] and profits.tobytes() == expected.tobytes()


def test_the_helper_builds_under_the_callers_errstate():
    # k = 51's F^e underflows on beta22's first nodes (see the held-node tests below), k = 3's does not; as the
    # 2nd missing count, 51 is built on the helper thread, so only the caller's errstate there can raise
    with np.errstate(under="raise"):
        RingModel(beta22_values(), constant_share_config(0.5, 3)).expected_profit([1, 1])
        model = RingModel(beta22_values(), constant_share_config(0.5, 3))
        with pytest.raises(FloatingPointError, match="underflow"):
            model.expected_profit([1, 49])
    assert list(model._ratios) == [3]
    assert np.isfinite(model.expected_profit([1, 49])).all()  # the default errstate ignores the underflow


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_builds_its_ratios_on_its_own_helper():
    model = RingModel(UNIFORM, constant_share_config(0.5, 3))
    expected = RingModel(UNIFORM, constant_share_config(0.5, 3)).expected_profit([1, 2]).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a multi-threaded process
        pid = os.fork()
    if pid == 0:  # the child has no copy of the parent's helper thread; a wait on it would hang until the alarm
        signal.alarm(30)
        try:
            os._exit(0 if model.expected_profit([1, 2]).tolist() == expected else 1)
        finally:
            os._exit(2)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_a_profit_unresolved_on_the_quadrature_grid_names_its_config_and_count_row():
    # the pdf alternates 1.5, 0.5 on consecutive points of integrate's grid, so on the model's graded nodes
    # it swings between them within a few cells: the nodes' Simpson totals disagree far past QUAD_TOL
    spacing = UNIFORM.v_h / (2 * QUAD_CELLS)
    wobbly = ValueDistribution(
        "wobbly",
        UNIFORM.cdf,
        lambda x: UNIFORM.pdf(x) * (1.0 + 0.5 * np.cos(np.pi * np.asarray(x) / spacing)),
        UNIFORM.v_h,
        UNIFORM.quantile,
    )
    model = RingModel(wobbly, [constant_share_config(theta, 3) for theta in (0.2, 0.6)])
    with pytest.raises(NumericError, match=r"unresolved in row \(0, 0\):"):
        model.expected_profit([1, 2])
    with pytest.raises(NumericError, match=r"unresolved in row \(0, 0\):"):
        RingModel(wobbly, constant_share_config(0.6, 3)).expected_profit(2)


@pytest.mark.parametrize("m", [1.5, 2.0, [], [1, 2.5], 0, [1, 0], True, [[1, 2]]])
def test_expected_profit_rejects_an_empty_or_non_integer_identity_count(m):
    model = RingModel(UNIFORM, constant_share_config(0.5, 3))
    with pytest.raises(DomainError, match="identity count"):
        model.expected_profit(m)


@pytest.mark.parametrize("m", [1.5, 2.0, 0, True, [2], []])
def test_payoff_rejects_an_empty_or_non_integer_identity_count(m):
    model = RingModel(UNIFORM, constant_share_config(0.5, 3))
    with pytest.raises(DomainError, match="identity count"):
        model.payoff(0.5, 0.5, m)


def test_numpy_integer_identity_counts_price_like_python_ints():
    model = RingModel(beta22_values(), constant_share_config(0.5, 3))
    assert model.expected_profit(np.int64(2)) == model.expected_profit(2)
    assert model.expected_profit(np.arange(1, 5)).tolist() == model.expected_profit(range(1, 5)).tolist()
    assert model.payoff(0.4, 0.5, np.int32(3)) == model.payoff(0.4, 0.5, 3)
    assert model.transfer(0.5, np.int64(4)) == model.transfer(0.5, 4)


@pytest.mark.parametrize("dist", [uniform_values(), beta22_values(), truncated_exponential_values()], ids=lambda d: d.name)
@pytest.mark.parametrize("reserve", [0.1, 0.5])
def test_welfare_is_the_per_draw_payout_of_the_oracle_under_a_reserve(dist, reserve):
    # n profit(1) counts the loser shares a member collects when its value is below the reserve;
    # the oracle averages the payouts of sampled auctions through RingModel.transfer alone
    thetas = np.linspace(0.0, 1.0, 21).tolist()
    result = opt_ring_search(dist, 3, thetas, reserve=reserve)
    for theta, row in zip(thetas, result.rows):
        total = 3 * RingModel(dist, constant_share_config(theta, 3, reserve)).expected_profit(1)
        welfare, welfare_se = unsorted_ring_welfare(dist, 3, theta, 100_000, 3, reserve)
        assert abs(total - welfare) <= 4.0 * welfare_se, (theta, total, welfare, welfare_se)
        assert row.welfare == total


@pytest.mark.parametrize("dist", [uniform_values(), beta22_values(), truncated_exponential_values()], ids=lambda d: d.name)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("reserve", [0.0, 0.1])
def test_exact_welfare_agrees_with_the_unsorted_oracle_on_every_seed(dist, seed, reserve):
    # the welfare is a quadrature and draws nothing, so each seed's small sample must agree with it
    thetas = [0.0, 0.35, 1.0]
    result = opt_ring_search(dist, 3, thetas, reserve=reserve)
    for theta, row in zip(thetas, result.rows):
        welfare, welfare_se = unsorted_ring_welfare(dist, 3, theta, 5_000, seed, reserve)
        assert abs(row.welfare - welfare) <= 4.0 * welfare_se, (theta, row.welfare, welfare, welfare_se)


def test_a_theta_row_does_not_depend_on_the_other_thetas_searched():
    dist, thetas = truncated_exponential_values(), np.linspace(0.0, 1.0, 21).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a lone theta that fails the split check falls back
        rows = opt_ring_search(dist, 3, thetas, reserve=0.1).rows
        for theta, row in zip(thetas, rows):
            assert opt_ring_search(dist, 3, [theta], reserve=0.1).rows == (row,)


def test_welfare_pays_nothing_on_draws_below_the_reserve():
    for dist in (UNIFORM, beta22_values(), truncated_exponential_values()):
        # theta = 0 is truthful and split-proof at any reserve, so no fallback warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            result = opt_ring_search(dist, 3, [0.0], reserve=0.5)
        row = result.rows[0]
        assert row.truthful_ok and row.sybilproof_ok and not result.fell_back
        if dist is UNIFORM:
            # theta = 0 keeps the whole surplus: E[(v(1) - max(v(2), r))+] = 11/64 for n = 3, r = 1/2
            assert abs(row.welfare - 11.0 / 64.0) <= 1e-10


def test_transfer_on_a_permuted_array_is_the_permuted_transfer():
    rng = np.random.default_rng(3)
    model = RingModel(beta22_values(), constant_share_config(0.4, 3, reserve=0.05))
    nodes = model.grid[::2]
    x = np.concatenate((nodes[::7], nodes[[0, 5, 5, -1, -1]], rng.random(500) * 0.95 + 0.05, [0.5, 0.5, 0.5]))
    perm = rng.permutation(x.size)
    assert np.array_equal(model.transfer(x[perm]), model.transfer(x)[perm])
    order = np.argsort(x)
    assert np.array_equal(model.transfer(x[order]), model.transfer(x)[order])


def test_opt_ring_search_rejects_an_empty_theta_list():
    with pytest.raises(DomainError):
        opt_ring_search(UNIFORM, 3, thetas=[])


def test_a_large_count_transfer_holds_the_reserve_where_its_divisor_underflows():
    # F^(k-1+l) of beta22 is below the smallest normal float at the 27 nodes past the first for k = 51: the transfer
    # read NaN and negatives, then raised; now those nodes hold T = r, and RuntimeWarning is an error in this suite
    model = RingModel(beta22_values(), constant_share_config(0.5, 3))
    held = model._ratio(51)[1][0]
    assert held[:28].all() and not held[28:].any()  # F is nondecreasing, so the held nodes come first
    bids = np.array([5e-4, 1e-3, 2e-3])
    t = model.transfer(bids, 51)
    assert np.all(np.isfinite(t)) and np.all((0.0 <= t) & (t <= bids))


@pytest.mark.parametrize("name, n, m", [("beta22", 3, 49), ("uniform", 6, 88), ("truncexp", 6, 94)])
def test_a_large_count_profit_holds_its_underflowing_nodes_at_the_reserve_with_no_warning(name, n, m):
    # these counts raised SingularScaleError: F^(k-1+l) underflows at the first nodes, which now hold T = r.
    # RuntimeWarning is an error in this suite.  A held node's T is off by at most v - r, and the held nodes'
    # Simpson weights reach no further than the first node past them, x, so their error is at most
    # (1 + |(m n - 1) g|) integral_0^x u F^(n-1) f du <= (1 + |(m n - 1) g|) x F(x)^n/n
    thetas = np.linspace(0.0, 1.0, 21)
    model = RingModel(DISTRIBUTIONS[name](), [constant_share_config(t, n) for t in thetas])
    profit = model.expected_profit(m)
    held = model._ratio(n + m - 1)[1]
    assert np.all(np.isfinite(profit)) and held[:, 1:].any()
    x = model.grid[2 * int(held.sum(axis=1).max())]
    bound = (1.0 + (m * n - 1) * thetas / (n + m - 2)) * x * float(model.dist.cdf(x)) ** n / n
    assert np.all(bound < QUAD_TOL * np.abs(profit))
    if name == "uniform":
        # 7.4e-9 off: this is the nodes' own error, which no estimate covers yet (the check certifies the
        # quadrature of the node values, not the values), not a resolved value
        closed = (1.0 + m * n * thetas) / ((n + m - 1.0 + thetas) * (n + 1.0))
        assert np.all(np.abs(profit - closed) <= 1e-8 * closed)


@pytest.mark.parametrize("reserve", [5e-324, 1e-200, 1e-30])
@pytest.mark.parametrize("name", ["uniform", "truncexp"])
def test_a_tiny_positive_reserve_keeps_the_search_resolved(name, reserve):
    # F(r)^(n-1+l) underflows: the first node holds T(r) = r with T'(r) = 0 instead of dividing by it
    dist = DISTRIBUTIONS[name]()
    result = opt_ring_search(dist, 8, [0.0, 0.5], reserve=reserve)
    assert all(row.truthful_ok for row in result.rows)
    zero = opt_ring_search(dist, 8, [0.0, 0.5]).rows
    assert [row.welfare for row in result.rows] == pytest.approx([row.welfare for row in zero], rel=1e-12)


SCAN_RESERVES = pytest.mark.parametrize("reserve", [0.0, 0.2, 0.5])
SCAN_NS = pytest.mark.parametrize("n", [2, 3, 4, 6])
SCAN_DISTS = pytest.mark.parametrize(
    "dist", [uniform_values(), beta22_values(), truncated_exponential_values()], ids=lambda d: d.name
)


@SCAN_DISTS
@SCAN_NS
@SCAN_RESERVES
def test_truthful_ok_agrees_with_the_quantile_scan_oracle(dist, n, reserve):
    thetas = np.linspace(0.0, 1.0, 21).tolist()
    result = opt_ring_search(dist, n, thetas, reserve=reserve)
    scan = quantile_scan_truthful(RingModel(dist, [constant_share_config(t, n, reserve) for t in thetas]), dist, n, reserve)
    assert [row.truthful_ok for row in result.rows] == scan.tolist() == [True] * len(thetas)


@SCAN_DISTS
@SCAN_NS
@SCAN_RESERVES
def test_a_transfer_scaled_by_one_percent_fails_the_certificate_and_the_oracle(monkeypatch, dist, n, reserve):
    # every transfer returns through _by_parts: the certificate's node values and the payoff's winner transfer
    exact = ring._by_parts
    monkeypatch.setattr(ring, "_by_parts", lambda *args: 1.01 * exact(*args))
    thetas = np.linspace(0.0, 1.0, 21).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no theta passes, so the search falls back
        result = opt_ring_search(dist, n, thetas, reserve=reserve)
    scan = quantile_scan_truthful(RingModel(dist, [constant_share_config(t, n, reserve) for t in thetas]), dist, n, reserve)
    assert not any(row.truthful_ok for row in result.rows)
    assert not scan.any()


def test_the_search_scans_no_member_payoff(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the search evaluated a member payoff")

    monkeypatch.setattr(RingModel, "payoff", forbidden)
    monkeypatch.setattr(RingModel, "transfer", forbidden)
    monkeypatch.setattr(RingModel, "_cell", forbidden)  # no bid between the nodes is read
    monkeypatch.setattr(ring, "grid_argmax", forbidden, raising=False)
    result = opt_ring_search(UNIFORM, 2, reserve=0.2)
    assert result.best_theta == 0.4 and all(row.truthful_ok for row in result.rows)


SHIFTED_BETA22 = ValueDistribution(  # F = 0 on [0, 1/2), then a Beta(2, 2) stretched over [1/2, 1]: f is continuous
    name="shifted-beta22",
    cdf=lambda x: beta22_values().cdf(2.0 * np.asarray(x) - 1.0),
    pdf=lambda x: 2.0 * beta22_values().pdf(2.0 * np.asarray(x) - 1.0),
    v_h=1.0,
    quantile=lambda u: 0.5 + 0.5 * beta22_values().quantile(u),
)


def test_the_certificate_skips_the_nodes_that_hold_the_reserve_where_f_is_zero():
    # F = 0 pins T = r at the first node, the support's start 1/2, where f = 0 too; the certificate starts at the
    # first node whose neighbours both lie past F = 0
    thetas = [0.0, 0.5, 1.0]
    result = opt_ring_search(SHIFTED_BETA22, 2, thetas)
    model = RingModel(SHIFTED_BETA22, [constant_share_config(t, 2) for t in thetas])
    assert [row.truthful_ok for row in result.rows] == quantile_scan_truthful(model, SHIFTED_BETA22, 2, 0.0).tolist()
    assert all(row.truthful_ok for row in result.rows)


def test_the_certificate_passes_every_theta_on_the_stretched_beta_with_a_reserve_below_its_support():
    # F(r) = 0 at r = 0.25, so the transfer starts at the first node past F = 0, where the density form's
    # node values broke the IC residual: 2 of 21 thetas passed and the search picked 0.05
    thetas = np.linspace(0.0, 1.0, 21).tolist()
    result = opt_ring_search(SHIFTED_BETA22, 2, thetas, reserve=0.25)
    model = RingModel(SHIFTED_BETA22, [constant_share_config(t, 2, 0.25) for t in thetas])
    scan = quantile_scan_truthful(model, SHIFTED_BETA22, 2, 0.25)
    assert [row.truthful_ok for row in result.rows] == scan.tolist() == [True] * len(thetas)
    assert result.best_theta == 0.2


@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("n, m_max", [(2, 40), (3, 40)])
def test_expected_profit_resolves_many_identities_on_the_search_grid(dist, n, m_max):
    # the density-form transfer's first cells left the theta = 0 row unresolved from m = 9 (uniform) and
    # m = 8 (truncexp) at n = 2, and from m = 27 for truncexp at n = 3; the even grid's profit from m = 17
    # (uniform) and m = 14 (truncexp) at n = 2
    model = RingModel(DISTRIBUTIONS[dist](), [constant_share_config(t, n) for t in np.linspace(0.0, 1.0, 21)])
    assert np.all(np.isfinite(model.expected_profit(range(1, m_max + 1))))


@pytest.mark.parametrize("name, n, theta, reserve", [("uniform", 3, 0.15, 0.5), ("beta22", 2, 5.161386351913141e-134, 0.0)])
def test_a_lone_theta_is_judged_by_its_checks_and_not_by_the_no_reserve_baseline(name, n, theta, reserve):
    # E[v(1) - v(2)] is the theta = 0 welfare only without a reserve, and even then another quadrature's rounding:
    # both searches raised InvariantViolation
    result = opt_ring_search(DISTRIBUTIONS[name](), n, [theta], reserve=reserve)
    assert result.best_theta == theta and not result.fell_back
    assert result.best_welfare == result.rows[0].welfare


@settings(max_examples=40, deadline=2000)
@given(
    name=st.sampled_from(sorted(DISTRIBUTIONS)),
    n=st.integers(2, 8),
    theta=st.floats(0.0, 1.0),
    reserve=st.floats(0.0, 0.8),
)
def test_every_ring_is_truthful_and_the_quantile_scan_agrees(name, n, theta, reserve):
    dist = DISTRIBUTIONS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a lone theta that fails the split check falls back
        (row,) = opt_ring_search(dist, n, [theta], reserve=reserve).rows
    assert row.truthful_ok
    assert quantile_scan_truthful(RingModel(dist, [constant_share_config(theta, n, reserve)]), dist, n, reserve).tolist() == [True]


@pytest.mark.parametrize(
    "dist, n, reserve",
    [(beta22_values(), 3, 0.0), (UNIFORM, 3, 0.2), (SHIFTED_BETA22, 2, 0.25)],
    ids=["beta22-no-reserve", "uniform-F-positive-at-r", "stretched-beta-support-above-r"],
)
def test_profit_contraction_of_A_equals_the_node_rule_over_the_derived_transfer(dist, n, reserve):
    # T - r is affine in A = J/F^e, so the profit contracts each count's A; the same node rule over the transfer
    # derived from A, r at the held nodes (25 to 29 of them at m = 49 on both Betas, where F^e underflows), gives the
    # same totals
    model = RingModel(dist, [constant_share_config(t, n, reserve) for t in (0.0, 0.35, 1.0)])
    counts = [1, 2, 4, 49]
    profits = model.expected_profit(counts)
    v, F, f, dxds = model.grid[::2], model._F[::2], model._f[::2], model._dxds[::2]
    P = np.where(F ** (n - 1) > 0.0, F ** (n - 1) * f * dxds, 0.0)
    rule_P = ring._simpson_weights(2.0 * model._h, MODEL_CELLS // 2) * P
    for j, m in enumerate(counts):
        k = n + m - 1
        t = model._transfer(k)
        g = np.array([[cfg.g(k)] for cfg in model.cfgs])
        expected = ring._row_sums(v - t + (m * n - 1) * g * (t - reserve), rule_P)[:, 0]
        assert np.all(np.abs(profits[:, j] - expected) <= 1e-13 * np.abs(expected)), m


@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
def test_a_bid_finds_its_cell_through_the_node_maps_closed_form_inverse(dist):
    # s = B^-1((w - a)/(v_h - a)) puts each bid in the node cell that holds it, up to the inverse's rounding, and
    # the cell step from the node below adds nothing at the nodes themselves, which read back their node values
    for reserve in (0.0, 0.3):
        model = RingModel(DISTRIBUTIONS[dist](), constant_share_config(0.5, 3, reserve))
        nodes = model.grid[::2]
        bids = np.random.default_rng(5).uniform(reserve, nodes[-1], 1_000)
        i, s = model._basis(bids)
        assert np.all((nodes[i] <= bids + 1e-12) & (bids <= nodes[i + 1] + 1e-12))
        assert np.all((i <= s * MODEL_CELLS) & (s * MODEL_CELLS <= i + 1))
        assert np.abs(model.transfer(nodes) - model._transfer(3)[0]).max() <= 1e-15
