import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_measure
from sybilgames.cake import (
    COIN_BURNED,
    COIN_KEPT,
    EMPTY_SLICE,
    PiecewiseMeasure,
    Slice,
    check_fairness,
    coin_probability,
    exact_partition,
    expected_truthful_value,
    measure_value,
    run_mechanism,
    run_monte_carlo,
    sybil_deviation_value,
)
from sybilgames.errors import DomainError, MalformedSliceError, StatisticalPowerError

UNIFORM = PiecewiseMeasure.uniform()
LEFT_HEAVY = PiecewiseMeasure((0.0, 0.5, 1.0), (2.0, 0.0))


def test_measure_validation():
    with pytest.raises(DomainError):
        PiecewiseMeasure((0.0, 1.0), (2.0,))  # mass 2
    with pytest.raises(DomainError):
        PiecewiseMeasure((0.1, 1.0), (1.0 / 0.9,))  # does not start at 0
    with pytest.raises(DomainError):
        PiecewiseMeasure((0.0, 0.5, 0.5, 1.0), (1.0, 1.0, 1.0))  # not strictly increasing


def test_measure_value_examples():
    assert measure_value(UNIFORM, Slice([(0.0, 0.25)])) == pytest.approx(0.25)
    assert measure_value(LEFT_HEAVY, Slice([(0.5, 1.0)])) == 0.0
    assert measure_value(LEFT_HEAVY, Slice([(0.25, 0.75)])) == pytest.approx(0.5)


def test_malformed_slice_rejected():
    with pytest.raises(MalformedSliceError):
        Slice([(0.0, 0.5), (0.4, 0.8)])
    with pytest.raises(MalformedSliceError):
        Slice([(0.5, 1.5)])


def test_slice_canonical_form():
    s = Slice([(0.6, 0.9), (0.0, 0.3), (0.3, 0.5)])
    assert s.intervals == ((0.0, 0.5), (0.6, 0.9))
    assert s.length == pytest.approx(0.8)
    assert EMPTY_SLICE.empty and EMPTY_SLICE.length == 0.0


def test_measure_value_adds_slice_values_as_a_left_fold():
    # math.fsum, like Python 3.12's compensated sum, gives 0.6 here; the left fold gives 0.6000000000000001
    s = Slice([(0.0, 0.05), (0.1, 0.2), (0.3, 0.75)])
    values = [UNIFORM.interval_value(lo, hi) for lo, hi in s.intervals]
    left = ((0.0 + values[0]) + values[1]) + values[2]
    assert math.fsum(values) != left
    assert measure_value(UNIFORM, s) == left


def test_exact_partition_single_player_gets_everything():
    [whole] = exact_partition([UNIFORM])
    assert measure_value(UNIFORM, whole) == pytest.approx(1.0, abs=1e-12)


def test_exact_partition_two_uniform():
    slices = exact_partition([UNIFORM, UNIFORM])
    for s in slices:
        assert measure_value(UNIFORM, s) == pytest.approx(0.5, abs=1e-12)


def test_exact_partition_heterogeneous_pair():
    slices = exact_partition([UNIFORM, LEFT_HEAVY])
    for s in slices:
        assert measure_value(UNIFORM, s) == pytest.approx(0.5, abs=1e-12)
        assert measure_value(LEFT_HEAVY, s) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 6))
def test_exact_partition_property(seed, n):
    rng = np.random.default_rng(seed)
    measures = [random_measure(rng) for _ in range(n)]
    slices = exact_partition(measures)
    for mu in measures:
        for s in slices:
            assert measure_value(mu, s) == pytest.approx(1.0 / n, abs=1e-12)


def test_coin_probability_values():
    assert coin_probability(1) == 1.0
    assert coin_probability(2) == 1.0
    assert coin_probability(4) == 0.5


def test_run_mechanism_single_player():
    alloc = run_mechanism([UNIFORM], seed=0)
    assert alloc.coin == COIN_KEPT
    assert measure_value(UNIFORM, alloc.slices[0]) == pytest.approx(1.0, abs=1e-12)


def test_run_mechanism_two_players_always_allocates():
    for seed in range(25):
        alloc = run_mechanism([UNIFORM, LEFT_HEAVY], seed=seed)
        assert alloc.coin == COIN_KEPT
        assert measure_value(UNIFORM, alloc.slices[0]) == pytest.approx(0.5, abs=1e-12)


def test_run_mechanism_burn_hands_out_empty_slices():
    seed = next(
        s for s in range(200) if run_mechanism([UNIFORM] * 4, seed=s).coin == COIN_BURNED
    )
    alloc = run_mechanism([UNIFORM] * 4, seed=seed)
    assert all(s.empty for s in alloc.slices)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_run_mechanism_deterministic_in_seed(seed):
    a = run_mechanism([UNIFORM, LEFT_HEAVY, UNIFORM], seed=seed)
    b = run_mechanism([UNIFORM, LEFT_HEAVY, UNIFORM], seed=seed)
    assert a == b


def test_allocation_frequency_matches_coin():
    n, runs = 4, 20_000
    transcript = run_monte_carlo([UNIFORM] * n, runs, seed=3)
    assert transcript.coins.mean() == pytest.approx(0.5, abs=0.015)


def test_permutations_are_uniform():
    runs = 60_000
    transcript = run_monte_carlo([UNIFORM] * 3, runs, seed=12)
    perms, counts = np.unique(transcript.assignments, axis=0, return_counts=True)
    assert len(perms) == 6
    expected = runs / 6.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 25.74  # chi-square, 5 degrees of freedom, p = 1e-4


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_keep_rate_within_four_standard_errors(n):
    runs = 20_000
    transcript = run_monte_carlo([UNIFORM] * n, runs, seed=100 + n)
    p = coin_probability(n)
    se = np.sqrt(p * (1.0 - p) / runs)
    assert abs(transcript.coins.mean() - p) <= 4.0 * se


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_run_mechanism_is_run_zero_of_a_one_run_batch(seed):
    declared = [UNIFORM, LEFT_HEAVY, UNIFORM, LEFT_HEAVY]
    alloc = run_mechanism(declared, seed)
    transcript = run_monte_carlo(declared, 1, seed)
    assert alloc.coin == (COIN_KEPT if transcript.coins[0] else COIN_BURNED)
    if transcript.coins[0]:
        assert alloc.slices == tuple(transcript.partition[j] for j in transcript.assignments[0])


def test_expected_truthful_value_formula():
    assert expected_truthful_value(1) == 1.0
    assert expected_truthful_value(3) == 0.25
    with pytest.raises(DomainError):
        expected_truthful_value(0)


def test_truthful_monte_carlo_matches_formula():
    n, runs = 3, 20_000
    transcript = run_monte_carlo([UNIFORM] * n, runs, seed=5)
    report = check_fairness(transcript, [UNIFORM] * n)
    for mean in report.own_value_means:
        assert mean == pytest.approx(0.25, abs=0.01)


def test_misreports_cannot_move_the_expected_value():
    # the mechanism's expected value is declaration-independent
    rng = np.random.default_rng(42)
    n, runs = 3, 10_000
    for _ in range(20):
        true = random_measure(rng)
        misreport = random_measure(rng)
        others = [random_measure(rng) for _ in range(n - 1)]
        transcript = run_monte_carlo([misreport] + others, runs, seed=int(rng.integers(1e6)))
        report = check_fairness(transcript, [true] + others)
        assert report.own_value_means[0] == pytest.approx(0.25, abs=0.012)


def test_sybil_deviation_value_formula():
    for n in range(1, 8):
        assert sybil_deviation_value(1, n - 1) == expected_truthful_value(n)
    assert sybil_deviation_value(2, 3) == 0.125
    assert sybil_deviation_value(1, 3) == 0.125
    assert sybil_deviation_value(3, 3) == pytest.approx(0.09375)


def test_sybil_deviation_weakly_dominated_with_tie_only_at_two():
    for y in range(0, 31):
        solo = sybil_deviation_value(1, y)
        for k in range(1, 31):
            value = sybil_deviation_value(k, y)
            assert value <= solo + 1e-15
            if k == 2:
                assert value == solo
            elif k > 2:
                assert value < solo


def test_worst_case_welfare_cap():
    for n in range(1, 13):
        assert n * expected_truthful_value(n) == pytest.approx(n / 2.0 ** (n - 1))


def test_check_fairness_truthful_three_players():
    transcript = run_monte_carlo([UNIFORM] * 3, 30_000, seed=9)
    report = check_fairness(transcript, [UNIFORM] * 3)
    assert report.envy_free_in_expectation
    assert report.alpha_proportional == pytest.approx(0.25, abs=0.01)
    assert not report.non_wasteful


def test_check_fairness_two_players_non_wasteful():
    transcript = run_monte_carlo([UNIFORM, LEFT_HEAVY], 10_000, seed=1)
    report = check_fairness(transcript, [UNIFORM, LEFT_HEAVY])
    assert report.non_wasteful
    assert report.envy_free_in_expectation


def test_check_fairness_five_players_alpha():
    transcript = run_monte_carlo([UNIFORM] * 5, 40_000, seed=2)
    report = check_fairness(transcript, [UNIFORM] * 5)
    assert report.alpha_proportional == pytest.approx(1.0 / 16.0, abs=0.005)


def test_check_fairness_alpha_is_a_lower_confidence_bound():
    transcript = run_monte_carlo([UNIFORM] * 3, 10_000, seed=4)
    report = check_fairness(transcript, [UNIFORM] * 3)
    assert report.alpha_proportional < min(report.own_value_means)


def test_check_fairness_requires_power():
    transcript = run_monte_carlo([UNIFORM] * 3, 100, seed=0)
    with pytest.raises(StatisticalPowerError):
        check_fairness(transcript, [UNIFORM] * 3)


def test_from_flat_roundtrip():
    mu = PiecewiseMeasure.from_flat([0.0, 2.0, 0.5, 0.0, 1.0])
    assert mu.breakpoints == (0.0, 0.5, 1.0)
    assert mu.densities == (2.0, 0.0)
    with pytest.raises(DomainError):
        PiecewiseMeasure.from_flat([0.0, 1.0])
