import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import StatisticalPowerError, all_segments_interval_value, check_fairness, random_measure
from sybilgames import cli
from sybilgames.cake import (
    MERGE_EPS,
    PiecewiseMeasure,
    Slice,
    coin_probability,
    exact_partition,
    expected_truthful_value,
    measure_value,
    run_monte_carlo,
    sybil_deviation_value,
)
from sybilgames.cli import CAKE_BLOCK_RUNS
from sybilgames.errors import DomainError, MalformedSliceError

UNIFORM = PiecewiseMeasure.uniform()
LEFT_HEAVY = PiecewiseMeasure((0.0, 0.5, 1.0), (2.0, 0.0))


@st.composite
def measures(draw, max_segments: int = 12) -> PiecewiseMeasure:
    """Piecewise-constant densities with 1 to ``max_segments`` segments, zero densities allowed."""
    m = draw(st.integers(1, max_segments))
    inner = draw(
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=m - 1, max_size=m - 1, unique=True)
    )
    breakpoints = [0.0] + sorted(inner) + [1.0]
    densities = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 20.0)), min_size=m, max_size=m))
    widths = [b2 - b1 for b1, b2 in zip(breakpoints, breakpoints[1:])]
    widest = widths.index(max(widths))  # at least 1/m wide: a positive density there keeps the mass from 0
    densities[widest] = densities[widest] or 1.0
    mass = sum(d * w for d, w in zip(densities, widths))
    return PiecewiseMeasure(breakpoints, [d / mass for d in densities])


def left_fold(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


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
    assert Slice(()).empty and Slice(()).length == 0.0


def test_measure_value_adds_slice_values_as_a_left_fold():
    # math.fsum, like Python 3.12's compensated sum, gives 0.6 here; the left fold gives 0.6000000000000001
    s = Slice([(0.0, 0.05), (0.1, 0.2), (0.3, 0.75)])
    values = [UNIFORM.interval_value(lo, hi) for lo, hi in s.intervals]
    left = ((0.0 + values[0]) + values[1]) + values[2]
    assert math.fsum(values) != left
    assert measure_value(UNIFORM, s) == left


@settings(max_examples=200, deadline=None)
@given(mu=measures(), data=st.data())
def test_interval_value_walk_equals_the_all_segments_sum_bit_for_bit(mu, data):
    bps = mu.breakpoints
    point = st.one_of(
        st.sampled_from(bps),  # ends exactly on a breakpoint
        st.floats(-MERGE_EPS, 1.0 + MERGE_EPS),  # anywhere, reaching just outside [0, 1]
        st.sampled_from(bps).map(lambda b: b + MERGE_EPS) | st.sampled_from(bps).map(lambda b: b - MERGE_EPS),
    )
    drawn = data.draw(st.lists(st.tuples(point, point), min_size=1, max_size=20))
    fixed = [(a, b) for a in bps for b in bps]  # every breakpoint pair, empty ones (b <= a) included
    fixed += [(-MERGE_EPS, 1.0 + MERGE_EPS), (-MERGE_EPS, 0.0), (1.0, 1.0 + MERGE_EPS), (0.5, 0.5), (0.7, 0.2)]
    for lo, hi in drawn + fixed:
        assert mu.interval_value(lo, hi) == all_segments_interval_value(mu, lo, hi), (lo, hi)


@settings(max_examples=60, deadline=None)
@given(declared=st.lists(measures(), min_size=1, max_size=4))
def test_partition_slice_values_equal_the_all_segments_sums_bit_for_bit(declared):
    for s in exact_partition(declared):
        for mu in declared:
            reference = left_fold(all_segments_interval_value(mu, lo, hi) for lo, hi in s.intervals)
            assert measure_value(mu, s) == reference


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
    # past n = 1024, 2.0 ** (n - 1) overflows; the probability is the exact ratio rounded once
    assert coin_probability(1025) == 1025 / 2**1024
    assert coin_probability(1100) == 0.0


def _own_slice(transcript, i: int) -> Slice:
    """Identity i's slice in run 0; a single mechanism run is a one-run batch."""
    return transcript.partition[transcript.assignments[0, i]]


def test_run_mechanism_single_player():
    run = run_monte_carlo([UNIFORM], 1, seed=0)
    assert run.coins[0]
    assert measure_value(UNIFORM, _own_slice(run, 0)) == pytest.approx(1.0, abs=1e-12)


def test_run_mechanism_two_players_always_allocates():
    for seed in range(25):
        run = run_monte_carlo([UNIFORM, LEFT_HEAVY], 1, seed=seed)
        assert run.coins[0]
        assert measure_value(UNIFORM, _own_slice(run, 0)) == pytest.approx(0.5, abs=1e-12)


def test_run_mechanism_burn_hands_out_empty_slices(tmp_path):
    # a burned run's rows in the cake artifact carry value 0.0 and coin 0 for every identity
    runs, seed = 200, 4
    out = tmp_path / "cake.csv"
    assert cli.main(["cake", "--n", "4", "--samples", str(runs), "--seed", str(seed), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    burned = np.flatnonzero(~run_monte_carlo([UNIFORM] * 4, runs, seed).coins)
    assert burned.size > 0
    assert sorted({int(r[0]) for r in rows if r[3] == "0"}) == burned.tolist()
    assert all(r[2] == "0.0" for r in rows if r[3] == "0")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_run_mechanism_deterministic_in_seed(seed):
    a = run_monte_carlo([UNIFORM, LEFT_HEAVY, UNIFORM], 1, seed)
    b = run_monte_carlo([UNIFORM, LEFT_HEAVY, UNIFORM], 1, seed)
    assert np.array_equal(a.assignments, b.assignments) and np.array_equal(a.coins, b.coins)


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


@pytest.mark.parametrize(
    "n, runs, seed",
    [(1, 1, 0), (1, 7, 5), (3, 1, 11), (2, 2 * CAKE_BLOCK_RUNS + 3, 2), (4, 5_000, 7), (6, 1_001, 123)],
)
def test_transcript_follows_the_randomness_contract(n, runs, seed):
    # every permutation from one permuted call over a fresh (runs, n) table, then one uniform vector
    rng = np.random.Generator(np.random.PCG64(seed))
    assignments = rng.permuted(np.tile(np.arange(n), (runs, 1)), axis=1)
    coins = rng.random(runs) < n / 2 ** (n - 1)
    transcript = run_monte_carlo([UNIFORM] * n, runs, seed)
    assert transcript.assignments.dtype == np.int64 and transcript.assignments.shape == (runs, n)
    assert np.array_equal(transcript.assignments, assignments)
    assert np.array_equal(transcript.coins, coins)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_run_mechanism_is_run_zero_of_a_one_run_batch(seed):
    # the permutations come first, row by row, so a one-run batch hands out run 0's slices of any longer batch
    declared = [UNIFORM, LEFT_HEAVY, UNIFORM, LEFT_HEAVY]
    single, batch = run_monte_carlo(declared, 1, seed), run_monte_carlo(declared, 7, seed)
    assert single.partition == batch.partition
    assert [_own_slice(single, i) for i in range(4)] == [_own_slice(batch, i) for i in range(4)]


def test_expected_truthful_value_formula():
    assert expected_truthful_value(1) == 1.0
    assert expected_truthful_value(3) == 0.25
    assert expected_truthful_value(1025) == 2.0**-1024
    assert expected_truthful_value(1100) == 0.0
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
    assert sybil_deviation_value(2, 1023) == 2 / 2**1024
    assert sybil_deviation_value(1100, 0) == 0.0


def exact_expected_value(true: PiecewiseMeasure, partition) -> float:
    """An identity's exact expected true value: kept with n/2^(n-1), then each slice with 1/n."""
    n = len(partition)
    return coin_probability(n) * sum(measure_value(true, s) for s in partition) / n


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_each_identity_expects_keep_over_n_whatever_it_declared(data):
    n = data.draw(st.integers(1, 6))
    declared = data.draw(st.lists(measures(), min_size=n, max_size=n))
    true = data.draw(st.lists(measures(), min_size=n, max_size=n))
    partition = exact_partition(declared)
    for mu in true:
        assert exact_expected_value(mu, partition) == pytest.approx(coin_probability(n) / n, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_k_identities_against_y_others_expect_the_split_value(data):
    k = data.draw(st.integers(1, 6))
    y = data.draw(st.integers(0, 6 - k))
    declared = data.draw(st.lists(measures(), min_size=k + y, max_size=k + y))
    true = data.draw(measures())  # one owner behind all k identities
    partition = exact_partition(declared)
    total = k * exact_expected_value(true, partition)
    assert total == pytest.approx(sybil_deviation_value(k, y), abs=1e-12)


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
