import decimal
import itertools
import math
import warnings

import pytest

from oracles import concave_prorata_equilibrium
from sybilgames.commitment import (
    cfmm_arbitrage_oracle,
    cfmm_curve,
    commitment_welfare_cap,
    cournot_commitment_instance,
    cournot_oracle,
    exponential_commitment_instance,
    rmax_commitment_instance,
    scp_check,
    trivial_commitment_instance,
)
from sybilgames.core import SybilCost
from sybilgames.commitment import CommitmentInstance, EqPayoffOracle, _batched_trade
from sybilgames.errors import DomainError, NumericError
from sybilgames.rdm import max_sybilproof_reward

COURNOT_SPLIT_THRESHOLD = 0.125 - 1.0 / 9.0  # gain of the two-identity commitment at foreign=1


def test_cournot_best_response_commits_two_identities():
    inst = cournot_commitment_instance(1.0, 0.0)
    verdict = scp_check(inst, foreign_max=1, x_max=10)
    assert verdict.xs[1] == 2 and verdict.gains[1] > verdict.tol
    assert verdict.gains[1] == pytest.approx(0.125 - 1.0 / 9.0)
    assert inst.attacker_value(2, 1) == pytest.approx(0.125)


def test_trivial_instance_payoffs():
    c = 1.0
    inst = trivial_commitment_instance(c)
    assert inst.attacker_value(1, 0) == pytest.approx(c / 2.0)
    assert inst.attacker_value(2, 0) == pytest.approx(-c / 2.0)
    verdict = scp_check(inst, foreign_max=0, x_max=8)
    assert verdict.proof and verdict.xs[0] == 2 and verdict.gains[0] == pytest.approx(-c)


def test_exponential_instance_single_identity_everywhere():
    inst = exponential_commitment_instance()
    verdict = scp_check(inst, foreign_max=20, x_max=32)
    assert verdict.proof and (verdict.gains <= verdict.tol).all()
    for k in range(0, 21):
        assert inst.attacker_value(1, k) == pytest.approx(math.exp(-(1 + k)), abs=1e-15)
        # the best deviation is x = 2, short of one identity by e^-(1+k) (1 - 2/e)
        assert verdict.xs[k] == 2
        assert verdict.gains[k] == pytest.approx(-math.exp(-(1 + k)) * (1.0 - 2.0 / math.e), abs=1e-15)


def test_a_nan_commitment_value_is_never_the_best_deviation():
    # x e^(-x) peaks at one identity; the NaN at x = 2 must not read as a profitable deviation
    oracle = EqPayoffOracle(payoff=lambda n: math.nan if n == 2 else math.exp(-n))
    inst = CommitmentInstance(oracle=oracle, cost=SybilCost.zero())
    verdict = scp_check(inst, foreign_max=0, x_max=8)
    assert verdict.proof and verdict.xs[0] == 3
    assert verdict.gains[0] == 3.0 * math.exp(-3) - math.exp(-1)
    undefined = CommitmentInstance(
        oracle=EqPayoffOracle(payoff=lambda n: math.nan), cost=SybilCost.zero()
    )
    with pytest.raises(NumericError):
        scp_check(undefined, foreign_max=0, x_max=8)


def test_a_nan_one_identity_value_raises_instead_of_reading_as_beaten():
    oracle = EqPayoffOracle(payoff=lambda n: math.nan if n == 1 else -1.0)
    inst = CommitmentInstance(oracle=oracle, cost=SybilCost.zero())
    with pytest.raises(NumericError, match="context 0"):
        scp_check(inst, foreign_max=3)


def test_scp_verdicts():
    assert scp_check(exponential_commitment_instance(), foreign_max=20).proof
    assert scp_check(trivial_commitment_instance(1.0), foreign_max=10).proof
    verdict = scp_check(cournot_commitment_instance(1.0, 0.0), foreign_max=10)
    assert not verdict.proof
    assert (verdict.context, verdict.x) == (1, 2)
    # at zero cost two identities exactly tie with one: the named deviation is x = 2, never x = 1
    shrunk = rmax_commitment_instance(10.0, 0.0)
    verdict = scp_check(shrunk, foreign_max=3)
    assert (verdict.proof, verdict.context, verdict.x) == (False, 0, 2)
    assert verdict.gains[0] == 0.0 and verdict.tol == -1e-12
    assert (verdict.gains > verdict.tol).all() and list(verdict.xs) == [2, 2, 2, 2]


def test_scp_check_needs_a_deviation_to_check():
    with pytest.raises(DomainError):
        scp_check(cournot_commitment_instance(1.0, 0.0), x_max=1)


def test_prohibitive_cost_makes_any_instance_scp():
    inst = CommitmentInstance(
        oracle=EqPayoffOracle(payoff=lambda n: 1.0 / n),
        cost=SybilCost(cost=lambda x, y: 0.0 if x <= 1 else math.inf),
    )
    assert scp_check(inst, foreign_max=10).proof


@pytest.mark.parametrize("c", [0.0, 0.005, 0.012, COURNOT_SPLIT_THRESHOLD * 0.99])
def test_cournot_counterexample_persists_below_threshold(c):
    verdict = scp_check(cournot_commitment_instance(1.0, 0.0, identity_cost=c), foreign_max=10)
    assert not verdict.proof
    assert (verdict.context, verdict.x) == (1, 2)


def test_cournot_two_identity_gain_vanishes_above_threshold():
    c = COURNOT_SPLIT_THRESHOLD * 1.05
    inst = cournot_commitment_instance(1.0, 0.0, identity_cost=c)
    verdict = scp_check(inst, foreign_max=1, x_max=10)
    assert verdict.proof and verdict.xs[1] == 2 and verdict.gains[1] < 0.0


def test_welfare_cap_values():
    assert commitment_welfare_cap(2, 10.0, 0.0) == 10.0
    assert commitment_welfare_cap(5, 10.0, 0.0) == 5.0
    assert commitment_welfare_cap(3, 10.0, 2.0) == pytest.approx(10.0 + 9.0)
    # 2.0 ** (n - 2) overflows past n = 1025: the reward term is the exact ratio rounded once, or 0.0
    assert commitment_welfare_cap(1025, 10.0, 0.0) == 10240 / 2**1023
    assert commitment_welfare_cap(1100, 10.0, 0.5) == 0.5 * 1100 * 1100 / 2.0
    shrunk = rmax_commitment_instance(10.0, 0.0).oracle
    assert shrunk.payoff(1025) == 10 / 2**1024 and shrunk.payoff(1100) == 0.0
    with pytest.raises(DomainError):
        commitment_welfare_cap(1, 10.0, 0.0)


def test_cap_dominates_the_reward_schedule():
    R = 10.0
    for n in range(2, 21):
        assert max_sybilproof_reward(n, R) <= commitment_welfare_cap(n, R, 0.0) + 1e-12


def test_cournot_oracle_values():
    oracle = cournot_oracle(1.0, 0.0)
    assert oracle.payoff(1) == pytest.approx(0.25)
    assert oracle.payoff(2) == pytest.approx(1.0 / 9.0)
    for n in range(1, 8):
        assert oracle.welfare(n) == pytest.approx(n * oracle.payoff(n))
        # efficiency ratio n/(n+1)^2 over the monopoly optimum 1/4
        assert oracle.welfare(n) / 0.25 == pytest.approx(4.0 * n / (n + 1) ** 2)


def test_cournot_oracle_rejects_dead_market():
    with pytest.raises(DomainError):
        cournot_oracle(1.0, 1.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: cournot_oracle(math.nan, 0.0),
        lambda: cournot_oracle(1.0, math.nan),
        lambda: cfmm_curve(100.0, math.nan, 0.5),
        lambda: cfmm_curve(100.0, 100.0, math.nan),
        lambda: trivial_commitment_instance(math.nan),
        lambda: rmax_commitment_instance(math.nan, 0.1),
        lambda: cfmm_arbitrage_oracle(math.inf, 100.0, 0.5),
        lambda: cfmm_arbitrage_oracle(100.0, math.inf, 0.5),
        lambda: cfmm_arbitrage_oracle(100.0, 100.0, math.inf),
    ],
    ids=["alpha", "c_prod", "reserve_b", "price", "trivial_c", "rmax_R", "inf_reserve_a", "inf_reserve_b", "inf_price"],
)
def test_nan_parameters_are_rejected(build):
    # NaN compares false both ways: a guard written as x <= 0 would let it through; an infinite
    # reserve or price has no exact b - p a and made the batched trade NaN
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("ra, rb, price", [(100.0, 100.0, 0.5), (1.0, 3.0, 2.0), (3e4, 7.0, 1e-4)])
def test_cfmm_solo_arbitrage_closed_form(ra, rb, price):
    # a lone arbitrageur trades to sqrt(a b/p) - a and keeps (sqrt(b) - sqrt(p a))^2
    oracle = cfmm_arbitrage_oracle(ra, rb, price)
    solo = (math.sqrt(rb) - math.sqrt(price * ra)) ** 2
    assert oracle.payoff(1) == pytest.approx(solo, rel=1e-14)


def decimal_batched_trade(n, a, b, p):
    """(q, f(q)/n, B) of the batched-arbitrage quadratic n p q^2 + B q - C in 50 digits, by the textbook
    root (-B + sqrt(B^2 + 4 n p C))/(2 n p): 50 digits outlast its cancellation on this grid."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, b, p = map(decimal.Decimal, (a, b, p))
        B = 2 * n * p * a - (n - 1) * b
        C = n * a * (b - p * a)
        q = ((B * B + 4 * n * p * C).sqrt() - B) / (2 * n * p)
        return q, (b * q / (a + q) - p * q) / n, B


# b/(a p): 1 + 1e-10 (b - p a near p a's rounding, which a rounded p a put into q 1e-6 relative), 1 + 2^-20 (q far
# below a, where the form u - a with u = a + q would cancel), then both signs of B
CFMM_RATIOS = (1.0 + 1e-10, 1.0 + 2.0**-20, 1.25, 2.0, 3.0, 64.0, 1e6)
CFMM_GRID = list(itertools.product((0.75, 100.0, 3e4, 0.7), (0.5, 0.375, 2.0, 0.3), CFMM_RATIOS))  # (a, p, b/(a p))


def test_cfmm_closed_form_is_the_root_of_the_first_order_condition():
    signs = set()
    for a, p, ratio in CFMM_GRID:
        b = a * p * ratio
        f, fprime = cfmm_curve(a, b, p)
        oracle = cfmm_arbitrage_oracle(a, b, p)
        with decimal.localcontext() as ctx:
            ctx.prec = 50  # holds p a exactly, so b - p a is rounded once
            excess = float(decimal.Decimal(b) - decimal.Decimal(p) * decimal.Decimal(a))
        for n in range(1, 61):
            q = _batched_trade(n, a, b, p, excess)
            exact_q, exact_payoff, B = decimal_batched_trade(n, a, b, p)
            signs.add(B > 0)
            assert abs(decimal.Decimal(q) - exact_q) <= decimal.Decimal(1e-14) * exact_q, (a, p, ratio, n)
            payoff = oracle.payoff(n)
            assert payoff == f(q) / n
            # f(q) = b q/(a + q) - p q loses the digits its two terms share, and q f'(q)/f(q) = 1 - n
            digits_lost = b * q / (a + q) / f(q)
            tol = decimal.Decimal(2e-15 * digits_lost)
            assert abs(decimal.Decimal(payoff) - exact_payoff) <= tol * exact_payoff, (a, p, ratio, n)
            if ratio > 1.0 + 2.0**-20:
                # bisection's absolute stopping tests leave the curves at 1 + 2^-20 and below unresolved
                assert payoff == pytest.approx(concave_prorata_equilibrium(f, n, fprime).per_player_payoff, rel=1e-10)
    assert signs == {True, False}


@pytest.mark.parametrize("rb, n", [(1e200, 2), (1e200, 11), (1e300, 1)])
def test_a_non_finite_arbitrage_payoff_raises_naming_its_count_and_reserves(rb, n):
    # B^2 overflows above b of about 1e154, and f(q) itself at b = 1e300: the payoff came out NaN or inf
    oracle = cfmm_arbitrage_oracle(100.0, rb, 0.5)
    with pytest.raises(NumericError) as raised:
        oracle.payoff(n)
    message = str(raised.value)
    assert f"payoff at n = {n} is " in message and message.endswith(f"at reserves 100.0, {rb!r} and price 0.5")


def test_cfmm_welfare_decreases_with_more_arbitrageurs():
    oracle = cfmm_arbitrage_oracle(100.0, 100.0, 0.5)
    welfare = [oracle.welfare(n) for n in range(1, 11)]
    assert all(w1 > w2 for w1, w2 in zip(welfare, welfare[1:]))


def test_cfmm_second_identity_becomes_profitable():
    oracle = cfmm_arbitrage_oracle(100.0, 100.0, 0.5)
    assert any(2.0 * oracle.payoff(n + 1) > oracle.payoff(n) for n in range(1, 11))
    assert 2.0 * oracle.payoff(2) < oracle.payoff(1)  # but never against a lone arbitrageur


def test_cfmm_without_arbitrage_warns_and_zeroes():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        oracle = cfmm_arbitrage_oracle(100.0, 100.0, 2.0)
    assert any("no arbitrage" in str(w.message) for w in caught)
    assert oracle.payoff(3) == 0.0


def test_scp_instances_respect_the_welfare_cap():
    cases = []
    exp = exponential_commitment_instance()
    cases.append((exp, 0.0))
    trivial = trivial_commitment_instance(1.0)
    cases.append((trivial, 1.0))
    shrunk = rmax_commitment_instance(10.0, identity_cost=0.01)
    cases.append((shrunk, 0.01))
    for inst, c in cases:
        assert scp_check(inst, foreign_max=12, x_max=32).proof
        welfare = [inst.oracle.welfare(n) for n in range(1, 13)]
        cap_scale = max(welfare)
        for n in range(2, 13):
            assert inst.oracle.welfare(n) <= commitment_welfare_cap(n, cap_scale, c) + 1e-12


def test_oracle_welfare_consistency():
    for oracle in (cournot_oracle(1.0, 0.0), cfmm_arbitrage_oracle(100.0, 100.0, 0.5)):
        for n in range(1, 9):
            assert oracle.payoff(n) >= 0.0
            assert oracle.welfare(n) == pytest.approx(n * oracle.payoff(n), abs=1e-12)


def test_attacker_value_input_validation():
    inst = cournot_commitment_instance(1.0, 0.0)
    with pytest.raises(DomainError):
        inst.attacker_value(0, 1)
    with pytest.raises(DomainError):
        inst.attacker_value(1, -1)
