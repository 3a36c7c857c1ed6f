"""Acceptance suite: every exit criterion at its stated tolerance and budget.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one line per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import central_diff, golden_max, random_measure
from sybilgames import cli
from sybilgames.cake import (
    exact_partition,
    expected_truthful_value,
    measure_value,
    run_monte_carlo,
    sybil_deviation_value,
)
from sybilgames.cake import PiecewiseMeasure
from sybilgames.commitment import (
    cfmm_arbitrage_oracle,
    commitment_welfare_cap,
    cournot_commitment_instance,
    exponential_commitment_instance,
    rmax_commitment_instance,
    scp_check,
    trivial_commitment_instance,
)
from sybilgames.core import SybilCost, SybilStrategy, headcount_reward_game, reward_share_game, sybil_payoff
from sybilgames.equilibrium import (
    mixed_deviation_gain,
    price_of_anarchy,
    reward_game_mixed_equilibrium,
    reward_game_pure_equilibrium,
)
from sybilgames.errors import DomainError
from sybilgames.rdm import (
    RewardMechanism,
    TentFunction,
    check_reward_sybilproof,
    dominant_strategy_prorata,
    max_sybilproof_reward,
    rmax_mechanism,
    tent_equilibria,
)
from sybilgames.ring import (
    RingModel,
    constant_share_config,
    efficient_ring_loser_share,
    opt_ring_search,
    ring_transfer,
    uniform_values,
)


@contextmanager
def criterion(idx: int, budget: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {idx:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {idx} took {elapsed:.3f}s, budget {budget}s"
    print(f"criterion {idx:2d} PASS ({elapsed:.3f}s <= {budget}s): {description}")


def test_criterion_01_worked_example_payoffs():
    with criterion(1, 1.0, "single- and double-identity payoffs match the worked example"):
        game = headcount_reward_game(10.0)
        cost = SybilCost.linear(0.1)
        one = SybilStrategy([1])
        two = SybilStrategy([1, 1])
        foreign = [1, 1, 1]
        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            u1 = sybil_payoff(game, cost, one, foreign)
            u2 = sybil_payoff(game, cost, two, foreign)
            timings.append(time.perf_counter() - t0)
        assert abs(u1 - 2.4) <= 1e-12
        assert abs(u2 - 3.8) <= 1e-12
        assert min(timings) < 1e-3  # runtime clause: both evaluations under a millisecond


def test_criterion_02_reward_game_equilibria_and_poa():
    with criterion(2, 5.0, "integer mix, continuous welfare R/n, and grid PoA near n"):
        eq = reward_game_mixed_equilibrium(10.0, 1.0, 3)
        assert (eq.low, eq.high) == (2, 3)
        assert eq.residual < 1e-9
        assert mixed_deviation_gain(eq, 10.0, 1.0, x_max=12) <= 1e-9
        for n in range(2, 11):
            welfare = reward_game_pure_equilibrium(10.0, 1.0, n).welfare
            assert abs(welfare - 10.0 / n) <= 1e-9
        game = reward_share_game(10.0, 1.0, grid_step=0.01)
        for n in range(2, 11):
            eq_welfare = reward_game_pure_equilibrium(10.0, 1.0, n).welfare
            poa = price_of_anarchy(game, n, eq_welfare)
            assert abs(poa - n) <= 0.05 * n


def test_criterion_03_reward_schedule_optimality():
    with criterion(3, 1.0, "cap schedule passes the split check, any upward bump fails"):
        assert check_reward_sybilproof(rmax_mechanism(10.0), x_max=64, y_max=64).proof
        for n0 in range(1, 13):
            bumped = RewardMechanism(
                r=lambda n, n0=n0: max_sybilproof_reward(n, 10.0) * (1.01 if n == n0 else 1.0),
                R=10.0,
            )
            if n0 <= 2:  # r(1) = r(2) = R: the bump leaves the mechanism class [0, R]
                with pytest.raises(DomainError, match=rf"r\({n0}\)"):
                    check_reward_sybilproof(bumped, x_max=64, y_max=64)
            else:
                assert not check_reward_sybilproof(bumped, x_max=64, y_max=64).proof


def test_criterion_04_dominant_strategy_prorata():
    with criterion(4, 2.0, "prescribed stake is dominant; welfare matches R n e^(1-n)"):
        R, K = 10.0, 1.0
        curve = dominant_strategy_prorata(R, K)
        for y in (0.0, K / 2.0, K, 5.0 * K):
            best = golden_max(
                lambda x: 0.0 if x <= 0.0 else x / (x + y) * curve(x + y),
                1e-9,
                8.0 * K,
                tol=1e-10,
            )
            assert abs(best - K) <= 1e-6
        for n in range(1, 11):
            assert abs(curve.welfare(n) - R * n * math.exp(1.0 - n)) <= 1e-9


def test_criterion_05_tent_welfare():
    with criterion(5, 5.0, "tent welfare tops 0.97R and rises as the tip sharpens"):
        R, K, n = 10.0, 1.0, 5
        welfare = {
            eps: tent_equilibria(TentFunction(R, K, eps), [n])[0].welfare
            for eps in (K / 10.0, K / 50.0, K / 100.0)
        }
        assert welfare[K / 100.0] > 0.97 * R
        assert welfare[K / 50.0] >= welfare[K / 10.0] - 1e-5 * R
        assert welfare[K / 100.0] >= welfare[K / 50.0] - 1e-5 * R


def test_criterion_06_cake_mechanism():
    with criterion(6, 30.0, "exact partitions, truthful value 1/2^(n-1), split never pays"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            measures = [random_measure(rng) for _ in range(n)]
            for s in exact_partition(measures):
                for mu in measures:
                    assert abs(measure_value(mu, s) - 1.0 / n) <= 1e-12
        runs = 100_000
        for n in (2, 3, 4):
            transcript = run_monte_carlo([PiecewiseMeasure.uniform()] * n, runs, seed=17 + n)
            values = np.array(
                [measure_value(PiecewiseMeasure.uniform(), s) for s in transcript.partition]
            )
            own = transcript.coins * values[transcript.assignments[:, 0]]
            mean = float(own.mean())
            se = float(own.std(ddof=1)) / math.sqrt(runs)
            assert abs(mean - expected_truthful_value(n)) <= 3.0 * se + 1e-12
        for y in range(0, 31):
            solo = sybil_deviation_value(1, y)
            for k in range(1, 31):
                value = sybil_deviation_value(k, y)
                assert value <= solo
                assert (value == solo) == (k in (1, 2))


def test_criterion_07_ring_transfer_and_incentives():
    with criterion(7, 10.0, "transfer quadrature, truthful stationarity, share doubling"):
        dist = uniform_values()
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            v = float(0.05 + 0.93 * rng.random())
            cfg = constant_share_config(0.0, n)
            assert abs(ring_transfer(v, cfg, dist) - (n - 1) * v / n) <= 1e-8
        for _ in range(20):
            n = int(rng.integers(2, 6))
            theta = float(rng.random())
            v = float(0.2 + 0.7 * rng.random())
            model = RingModel(dist, constant_share_config(theta, n))
            slope = central_diff(lambda w: model.payoff(w, v, 1), v, h=1e-4)
            assert abs(slope) < 1e-5
        for n in range(4, 13):
            assert 2.0 * efficient_ring_loser_share(n + 1, dist) >= efficient_ring_loser_share(n, dist)


def test_criterion_08_profitable_proof_ring_exists():
    with criterion(8, 60.0, "a constant-share ring beats the no-ring baseline"):
        result = opt_ring_search(uniform_values(), 3)
        assert not result.fell_back
        assert result.best_theta > 0.0
        best_row = next(row for row in result.rows if row.theta == result.best_theta)
        assert best_row.truthful_ok and best_row.sybilproof_ok
        # regression value recorded on the first run of this search
        assert result.best_theta == pytest.approx(0.15, abs=1e-9)
        # welfare is n profit(1), and on uniform values profit(1) = (1 + 3 theta) / (4 (3 + theta))
        theta = result.best_theta
        assert abs(best_row.welfare - 3.0 * (1.0 + 3.0 * theta) / (4.0 * (3.0 + theta))) <= 1e-10
        assert best_row.welfare > 0.25
        print(f"  (winning share fraction: theta = {result.best_theta:.6f}, "
              f"welfare = {best_row.welfare:.5f} vs baseline 0.25)")


def test_criterion_09_welfare_cap_consistency():
    with criterion(9, 1.0, "certified commitment-proof instances respect the welfare cap"):
        instances = [
            (exponential_commitment_instance(), 0.0),
            (trivial_commitment_instance(1.0), 1.0),
            (rmax_commitment_instance(10.0, identity_cost=0.01), 0.01),
        ]
        for inst, c in instances:
            assert scp_check(inst, foreign_max=12, x_max=32).proof
            welfare = [inst.oracle.welfare(n) for n in range(1, 13)]
            scale = max(welfare)
            for n in range(2, 13):
                assert inst.oracle.welfare(n) <= commitment_welfare_cap(n, scale, c) + 1e-12


def test_criterion_10_commitment_counterexamples():
    with criterion(10, 5.0, "Cournot commits two identities; batched arbitrage crossing exists"):
        inst = cournot_commitment_instance(1.0, 0.0)
        verdict = scp_check(inst, foreign_max=1, x_max=32)
        assert (verdict.proof, verdict.context, verdict.x) == (False, 1, 2)
        oracle = cfmm_arbitrage_oracle(100.0, 100.0, 0.5)
        assert any(2.0 * oracle.payoff(n + 1) > oracle.payoff(n) for n in range(1, 11))


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, 30.0, "identical configs yield byte-identical CSV artifacts"):
        configs = [
            ["rdm", "--R", "10", "--n-max", "8", "--seed", "4"],
            ["cake", "--n", "3", "--samples", "2000", "--seed", "9"],
            ["ring", "--n", "3", "--theta-grid", "5", "--samples", "20000", "--seed", "3"],
            ["commit", "--instance", "cfmm", "--n-max", "6"],
        ]
        for idx, argv in enumerate(configs):
            a = tmp_path / f"a{idx}.csv"
            b = tmp_path / f"b{idx}.csv"
            assert cli.main(argv + ["--out", str(a)]) == 0
            assert cli.main(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
