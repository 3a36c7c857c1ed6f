"""Second-price auctions and budget-balanced bidding rings for cartel members
whose valuations are i.i.d. draws from a known distribution.

A ring is a pair (T, g): the member reporting the highest bid wins the auction,
pays T into the ring, and every other registered identity receives the fraction
g(k) of the surplus, where k is the number of registered identities.  T is
pinned down by incentive compatibility (truthful bidding must be optimal) and is
computed by quadrature of

    T(v) = F(v)^(-(k + l - 1)) * integral_r^v (k-1) u F(u)^(k-2+l) f(u) du,
    l = (k - 1) g(k),

plus the boundary mass r F(r)^(k+l-1) so that T(r) = r.  Every integral here
goes through the composite-Simpson rule of :mod:`sybilgames.numerics`: single
integrals through the checked ``integrate`` (4096 cells, raising
``NumericError`` when its error estimate exceeds 1e-10 of the integral of the
integrand's absolute value), schedules through ``cumulative_simpson`` on
RingModel's grid.

Because the ring center only observes the registered count, every schedule is
indexed by k; a member registering m identities faces the (n+m-1)-report
schedule, collects m loser shares when losing and nets back its own m-1 shares
when winning.  The identity-splitting check therefore compares expected profits
across m at the registration stage.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, InvariantViolation, SingularScaleError
from .numerics import cumulative_simpson, grid_argmax, integrate

SYBIL_GAIN_TOL = 1e-9
MODEL_CELLS = 2048  # composite-Simpson cells of RingModel's precomputed grid


@dataclass(frozen=True)
class ValueDistribution:
    """Valuation distribution on [0, v_h] with vectorised cdf/pdf and a quantile map."""

    name: str
    cdf: Callable
    pdf: Callable
    v_h: float
    quantile: Callable

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.quantile(rng.random(size))


def uniform_values() -> ValueDistribution:
    return ValueDistribution(
        name="uniform",
        cdf=lambda x: np.clip(x, 0.0, 1.0),
        pdf=lambda x: np.where((np.asarray(x) >= 0.0) & (np.asarray(x) <= 1.0), 1.0, 0.0),
        v_h=1.0,
        quantile=lambda u: np.asarray(u, dtype=float),
    )


def truncated_exponential_values(rate: float = 1.0, v_h: float = 1.0) -> ValueDistribution:
    if rate <= 0.0 or v_h <= 0.0:
        raise DomainError("need rate > 0 and v_h > 0")
    mass = 1.0 - math.exp(-rate * v_h)

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, v_h)
        return (1.0 - np.exp(-rate * x)) / mass

    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= v_h)
        return np.where(inside, rate * np.exp(-rate * np.clip(x, 0.0, v_h)) / mass, 0.0)

    def quantile(u):
        u = np.asarray(u, dtype=float)
        return -np.log(1.0 - u * mass) / rate

    return ValueDistribution("truncexp", cdf, pdf, v_h, quantile)


def beta22_values() -> ValueDistribution:
    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return x * x * (3.0 - 2.0 * x)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, 6.0 * x * (1.0 - x), 0.0)

    def quantile(u):
        # the root in [0, 1] of the cubic 3x^2 - 2x^3 = u
        u = np.asarray(u, dtype=float)
        return 0.5 - np.sin(np.arcsin(1.0 - 2.0 * u) / 3.0)

    return ValueDistribution("beta22", cdf, pdf, 1.0, quantile)


DISTRIBUTIONS = {
    "uniform": uniform_values,
    "truncexp": truncated_exponential_values,
    "beta22": beta22_values,
}


@dataclass(frozen=True)
class RingConfig:
    """Loser-share rule g, reserve price, and the true member count n."""

    g: Callable[[int], float]
    reserve: float = 0.0
    n: int = 2

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("a ring needs at least two members")
        if self.reserve < 0.0:
            raise DomainError("reserve must be nonnegative")
        for k in range(2, max(self.n, 8) + 4):
            share = self.g(k)
            if share < -1e-12 or share > 1.0 / (k - 1) + 1e-12:
                raise DomainError(f"budget balance needs 0 <= g({k}) <= 1/{k - 1}, got {share}")

    def share_exponent(self, k: int) -> float:
        """l(k) = (k-1) g(k), the total share fraction paid out at k reports."""
        return (k - 1) * self.g(k) if k >= 2 else 0.0


def constant_share_config(theta: float, n: int, reserve: float = 0.0) -> RingConfig:
    """The constant-fraction family g(k) = theta/(k-1), theta in [0, 1]."""
    if not 0.0 <= theta <= 1.0:
        raise DomainError("theta must lie in [0, 1]")
    return RingConfig(g=lambda k: theta / (k - 1), reserve=reserve, n=n)


def second_price_game(valuation: float, v_h: float = 1.0, reserve: float = 0.0, grid_step: float = 0.05):
    """Aggregative adapter for a sealed second-price auction from one bidder's seat.

    The others' aggregate is their top bid, and duplicated own bids fold by max,
    since only the highest of a player's bids can ever matter.  Ties lose, which
    is the conservative convention for an atomless value distribution.
    """
    from .core import ActionSpace, AggregativeGame, CONTINUOUS, MERGE_MAX

    def phi(b: float, others_top: float) -> float:
        if b == 0.0:
            return 0.0
        if b > others_top and b >= reserve:
            return valuation - max(others_top, reserve)
        return 0.0

    space = ActionSpace(CONTINUOUS, 0.0, v_h, grid_step)
    return AggregativeGame(
        phi=phi, space=space, aggregation=MERGE_MAX, merge=MERGE_MAX, name="second-price"
    )


def second_price_outcome(
    bids: Sequence[float],
    seed_or_rng: Union[int, np.random.Generator] = 0,
    reserve: float = 0.0,
) -> tuple[Optional[int], float]:
    """Winner (uniform tie-break) and price of a sealed-bid second-price auction."""
    if len(bids) == 0:
        raise DomainError("need at least one bid")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.Generator(
        np.random.PCG64(seed_or_rng)
    )
    top = max(bids)
    if top < reserve:
        return None, 0.0
    ties = [i for i, b in enumerate(bids) if b == top]
    winner = ties[int(rng.integers(0, len(ties)))] if len(ties) > 1 else ties[0]
    rest = sorted(bids, reverse=True)[1:]
    price = max(rest[0], reserve) if rest else reserve
    return winner, price


def ring_transfer(v: float, cfg: RingConfig, dist: ValueDistribution) -> float:
    """Winner's payment at bid v under the incentive-compatible schedule for
    cfg.n reports.

    The integral over [reserve, v] is ``numerics.integrate``: 4096 Simpson cells
    spanning [reserve, v], error tolerance 1e-10 relative to the integral itself
    (the integrand is nonnegative), so dividing by F(v)^(n+l-1) keeps the
    tolerance relative.  Density features narrower than (v - reserve)/8192 go unseen.
    """
    r = cfg.reserve
    if v < r:
        raise DomainError("transfer is defined for bids at or above the reserve")
    if v == r:
        return r
    Fv = float(dist.cdf(v))
    if Fv <= 0.0:
        raise SingularScaleError("cdf vanishes at the evaluation point")
    n = cfg.n
    l = cfg.share_exponent(n)
    integral = integrate(lambda u: (n - 1) * u * dist.cdf(u) ** (n - 2 + l) * dist.pdf(u), r, v)
    boundary = r * float(dist.cdf(r)) ** (n + l - 1)
    return Fv ** (-(n + l - 1)) * (integral + boundary)


class RingModel:
    """Dense-grid evaluation kernel for one (distribution, ring) pair.

    Transfer schedules and loser-share integrals are running composite-Simpson
    integrals on one interleaved grid of 2 MODEL_CELLS + 1 points over
    [reserve, v_h] (cell nodes at even indices, midpoints at odd ones),
    interpolated with cubic splines through the nodes, so member payoffs cost
    O(1) after setup.  Schedules for every registered count are cached, since a
    member running m identities faces the (n+m-1)-report schedule.
    """

    def __init__(self, dist: ValueDistribution, cfg: RingConfig):
        self.dist = dist
        self.cfg = cfg
        lo, hi = cfg.reserve, dist.v_h
        self.grid = np.linspace(lo, hi, 2 * MODEL_CELLS + 1)
        self._h = (hi - lo) / (2 * MODEL_CELLS)
        self._F = np.asarray(dist.cdf(self.grid), dtype=float)
        self._f = np.asarray(dist.pdf(self.grid), dtype=float)
        self._schedules: dict[int, tuple[CubicSpline, CubicSpline]] = {}

    def _schedule(self, k: int) -> tuple[CubicSpline, CubicSpline]:
        if k not in self._schedules:
            r = self.cfg.reserve
            l = self.cfg.share_exponent(k)
            x, F, f, h = self.grid, self._F, self._f, self._h
            nodes, F_nodes = x[::2], F[::2]
            cumulative = cumulative_simpson((k - 1) * x * F ** (k - 2 + l) * f, h)
            t_nodes = np.full_like(nodes, r)
            positive = F_nodes > 0.0
            boundary = r * float(F_nodes[0]) ** (k + l - 1)
            t_nodes[positive] = (cumulative[positive] + boundary) * F_nodes[positive] ** (-(k + l - 1))
            transfer = CubicSpline(nodes, t_nodes)
            t = np.empty_like(x)
            t[::2], t[1::2] = t_nodes, transfer(x[1::2])
            n = self.cfg.n
            shares = cumulative_simpson((t - r) * (n - 1) * F ** (n - 2) * f, h)
            from_top = shares[-1] - shares
            self._schedules[k] = (transfer, CubicSpline(nodes, from_top))
        return self._schedules[k]

    def transfer(self, v, k: Optional[int] = None):
        """Interpolated transfer at the k-report schedule (defaults to cfg.n)."""
        spline, _ = self._schedule(k if k is not None else self.cfg.n)
        return spline(v)

    def payoff(self, w, v, m: int = 1):
        """Expected payoff of a member with valuation v bidding w and running m identities.

        The m-1 extra identities register and bid at the reserve; all identities
        collect the loser share g(n+m-1) when a rival wins, and the winner nets
        back its own extras' shares.  w and v broadcast as arrays; scalar input
        gives a float.
        """
        if m < 1:
            raise DomainError("need at least one identity")
        cfg, dist = self.cfg, self.dist
        k = cfg.n + m - 1
        gamma = cfg.g(k)
        transfer, loser = self._schedule(k)
        r = cfg.reserve
        w = np.asarray(w, dtype=float)
        win_prob = dist.cdf(w) ** (cfg.n - 1)
        tw = transfer(w)
        win = (v - tw + (m - 1) * gamma * (tw - r)) * win_prob
        win_term = np.where((win_prob > 0.0) & (w >= r), win, 0.0)
        total = win_term + m * gamma * loser(np.clip(w, r, dist.v_h))
        return float(total) if total.ndim == 0 else total

    def expected_profit(self, m: int = 1) -> float:
        """Registration-stage expected payoff of running m identities, truthful bidding."""
        return integrate(lambda v: self.payoff(v, v, m) * self.dist.pdf(v), self.cfg.reserve, self.dist.v_h)


def expected_order_stat(dist: ValueDistribution, n: int, which: int) -> float:
    """E of the highest (which=1) or second-highest (which=2) of n i.i.d. draws."""
    if n < 1 or which not in (1, 2) or (which == 2 and n < 2):
        raise DomainError("order statistic out of range")
    if which == 1:
        integrand = lambda u: u * n * dist.cdf(u) ** (n - 1) * dist.pdf(u)
    else:
        integrand = lambda u: u * n * (n - 1) * dist.cdf(u) ** (n - 2) * (1.0 - dist.cdf(u)) * dist.pdf(u)
    return integrate(integrand, 0.0, dist.v_h)


def efficient_ring_loser_share(
    n: int,
    dist: ValueDistribution,
    reserve: float = 0.0,
    top_value: Optional[float] = None,
) -> float:
    """Per-loser transfer of the fully efficient ring: E[(v(2) - r)+]/n.

    ``top_value`` switches to the variant conditioned on the highest valuation,
    E[(v(2) - r)+ | v(1) = top_value]/n.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    r = reserve
    if top_value is None:
        surplus = integrate(
            lambda u: (u - r) * n * (n - 1) * dist.cdf(u) ** (n - 2) * (1.0 - dist.cdf(u)) * dist.pdf(u), r, dist.v_h
        )
        return max(0.0, surplus) / n
    t = top_value
    Ft = float(dist.cdf(t))
    if Ft <= 0.0:
        return 0.0
    conditional = integrate(lambda u: (u - r) * (n - 1) * dist.cdf(u) ** (n - 2) * dist.pdf(u), r, t)
    return max(0.0, conditional / Ft ** (n - 1)) / n


@dataclass(frozen=True)
class OptRingRow:
    theta: float
    truthful_ok: bool
    sybilproof_ok: bool
    welfare: float
    welfare_se: float
    baseline: float


@dataclass(frozen=True)
class OptRingResult:
    rows: tuple[OptRingRow, ...]
    best_theta: float
    best_welfare: float
    baseline: float
    fell_back: bool = False


def opt_ring_search(
    dist: ValueDistribution,
    n: int,
    thetas: Optional[Iterable[float]] = None,
    samples: int = 100_000,
    seed: int = 0,
    m_max: int = 4,
    reserve: float = 0.0,
) -> OptRingResult:
    """Search the constant-share family g(k) = theta/(k-1) for profitable rings
    that survive truthfulness and identity-splitting checks.

    For each theta: (i) truthful bidding must be the grid argmax of the member
    payoff at sampled valuations, (ii) the registration-stage expected profit
    must be maximal at one identity (m up to m_max), and (iii) expected member
    welfare is estimated by Monte Carlo on draws shared across thetas.  Among
    passing thetas the one with the highest welfare wins; it must strictly beat
    the theta = 0 baseline E[v(1) - v(2)].
    """
    if thetas is None:
        thetas = np.linspace(0.0, 1.0, 21)
    thetas = [float(t) for t in thetas]
    baseline = expected_order_stat(dist, n, 1) - expected_order_stat(dist, n, 2)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = dist.sample(rng, (samples, n))
    top = draws.max(axis=1)
    check_values = [float(dist.quantile(q)) for q in (0.35, 0.6, 0.85)]
    rows = []
    for theta in thetas:
        cfg = constant_share_config(theta, n, reserve)
        model = RingModel(dist, cfg)
        truthful_ok = True
        for v in check_values:
            best_w, _ = grid_argmax(
                lambda w: model.payoff(w, v, 1), reserve, dist.v_h, dist.v_h / 200.0, refine_rounds=4
            )
            if abs(best_w - v) > 2e-3 * dist.v_h:
                truthful_ok = False
                break
        profit_one = model.expected_profit(1)
        sybilproof_ok = all(
            model.expected_profit(m) <= profit_one + SYBIL_GAIN_TOL for m in range(2, m_max + 1)
        )
        payouts = top - (1.0 - cfg.share_exponent(n)) * (np.asarray(model.transfer(top)) - reserve) - reserve
        welfare = float(payouts.mean())
        welfare_se = float(payouts.std(ddof=1) / math.sqrt(samples))
        rows.append(OptRingRow(theta, truthful_ok, sybilproof_ok, welfare, welfare_se, baseline))
    passing = [row for row in rows if row.truthful_ok and row.sybilproof_ok]
    if not passing:
        warnings.warn("no theta passed both checks; falling back to the theta = 0 baseline")
        return OptRingResult(tuple(rows), 0.0, baseline, baseline, fell_back=True)
    best = max(passing, key=lambda row: (row.welfare, -row.theta))
    if best.theta > 0.0:
        zero_rows = [row for row in rows if row.theta == 0.0]
        floor = zero_rows[0].welfare if zero_rows else baseline
        if not best.welfare > floor:
            raise InvariantViolation("search selected a ring no better than the baseline")
    return OptRingResult(tuple(rows), best.theta, best.welfare, baseline)
