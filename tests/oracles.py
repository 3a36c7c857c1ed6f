"""Independent oracles used by the tests: brute-force search, quadrature, and
finite differences that deliberately avoid the package's own numeric kernels;
and, at the end, the reference solvers and fixtures that only the tests use."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from sybilgames.errors import DomainError, NumericError


def golden_max(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 300) -> float:
    """Golden-section argmax of a unimodal function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def grid_search_max(f, lo: float, hi: float, step: float) -> float:
    """Plain grid argmax, first maximiser wins."""
    xs = np.arange(lo, hi + step / 2.0, step)
    values = [f(float(x)) for x in xs]
    return float(xs[int(np.argmax(values))])


def scalar_grid_argmax(f, lo: float, hi: float, step: float, refine_rounds: int):
    """One scalar f call per grid point: the coarse ``x += step`` loop (last point
    clipped to hi, first maximum wins), then ``refine_rounds`` window rescans.

    NaN handling is not part of the oracle: a NaN best value is never replaced.
    """
    best_x, best_v = lo, f(lo)
    x = lo
    while x < hi - 1e-15 * max(1.0, abs(hi)):
        x = min(x + step, hi)
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
    return _scalar_window(f, lo, hi, best_x, best_v, step, refine_rounds)


def _scalar_window(f, lo, hi, best_x, best_v, step, rounds):
    """Each round rescans [best_x - step, best_x + step] (clipped to [lo, hi]) at a
    tenth of the step; ties move toward the smaller argument."""
    for _ in range(rounds):
        window_lo = max(lo, best_x - step)
        window_hi = min(hi, best_x + step)
        step /= 10.0
        x = window_lo
        while x <= window_hi + 1e-15 * max(1.0, abs(window_hi)):
            v = f(x)
            if v > best_v or (v == best_v and x < best_x):
                best_x, best_v = x, v
            x += step
    return best_x, best_v


def scalar_refine(gain_of, actions, profile, space):
    """Coordinate-wise refinement of a split with one scalar ``gain_of(actions, profile)``
    call per window point: ``core.REFINE_ROUNDS`` rounds, each rescanning every
    identity's action in turn with one window round, holding the others fixed."""
    from sybilgames.core import REFINE_ROUNDS

    actions = tuple(actions)
    best = gain_of(actions, profile)
    hi = space.upper if space.upper is not None else math.inf
    step = space.grid_step
    for _ in range(REFINE_ROUNDS):
        for j in range(len(actions)):
            rest = actions[:j] + actions[j + 1 :]

            def gain_at(a, rest=rest):
                return gain_of(tuple(sorted(rest + (a,))), profile) if a > 0.0 else -math.inf

            a, best = _scalar_window(gain_at, space.lower, hi, actions[j], best, step, 1)
            actions = tuple(sorted(rest + (a,)))
        step /= 10.0
    return best, actions


def per_point_welfare_optimum(game, n: int) -> float:
    """Grid welfare optimum with one ``phi_values`` call per grid point: the symmetric
    profile's n-fold payoff at each action of ``game.space.grid()``, first maximum wins.
    The n - 1 rivals' aggregate is folded here by a plain loop, not by the game."""
    values = []
    for a in game.space.grid().tolist():
        others = 0.0
        for _ in range(n - 1):
            others = others + a if game.aggregation == "sum" else max(others, a)
        values.append(n * float(game.phi_values(a, others)))
    return values[int(np.argmax(values))]


def midpoint_quad(f, a: float, b: float, n: int = 20001) -> float:
    """Composite midpoint rule; slow but structurally unlike adaptive Simpson."""
    xs = np.linspace(a, b, n + 1)
    mids = 0.5 * (xs[:-1] + xs[1:])
    return float(np.sum([f(float(m)) for m in mids]) * (b - a) / n)


def first_profitable_split(game, cost, max_identities, profiles, tol):
    """Scalar split search: (profitable, actions, profile, gain, multisets scanned).

    One ``sybil_payoff - merged_payoff`` call per grid multiset, in the order
    profiles, identity count, then ``combinations_with_replacement``.  The first
    gain above ``tol`` is returned; otherwise the first largest gain (NaN never
    wins), or ``(False, None, None, -inf, count)`` when every gain is -inf.
    """
    from sybilgames.core import SybilStrategy, merged_payoff, sybil_payoff

    grid = [float(a) for a in game.space.grid() if a > 0.0]
    best = (False, None, None, -math.inf)
    scanned = 0
    for profile in profiles:
        profile = tuple(float(a) for a in profile)
        for m in range(2, max_identities + 1):
            for actions in itertools.combinations_with_replacement(grid, m):
                scanned += 1
                mine = SybilStrategy(actions)
                gain = sybil_payoff(game, cost, mine, profile) - merged_payoff(game, mine, profile, cost)
                if gain > tol:
                    return True, actions, profile, gain, scanned
                if gain > best[3]:
                    best = (False, actions, profile, gain)
    return best + (scanned,)


def identity_count_loop(table, tol):
    """Double-loop identity-count verdict: (gains, xs, proof, context, x).

    Per row of ``table`` (payoffs with x = 1, 2, ... own identities), the first
    largest ``P(x) - P(1)`` over x >= 2 as Python floats, skipping NaN gains; a row
    fails when that gain exceeds ``tol``, and the witness is the first failing
    row with its best x (None, None on a proof).
    """
    gains, xs = [], []
    for row in table:
        best, best_x = None, None
        for x, value in enumerate(row[1:], 2):
            gain = value - row[0]
            if gain == gain and (best is None or gain > best):
                best, best_x = gain, x
        gains.append(best)
        xs.append(best_x)
    fails = [i for i, gain in enumerate(gains) if gain > tol]
    if not fails:
        return gains, xs, True, None, None
    return gains, xs, False, fails[0], xs[fails[0]]


def unsorted_ring_welfare(dist, n, theta, samples, seed, reserve=0.0):
    """(welfare, welfare_se) of one constant-share ring from its own single-config model:
    ``RingModel.transfer`` on the top draws in draw order, and nothing paid on draws below
    the reserve."""
    from sybilgames.ring import RingModel, constant_share_config

    rng = np.random.Generator(np.random.PCG64(seed))
    draws = dist.sample(rng, (samples, n))
    top = draws.max(axis=1)
    cfg = constant_share_config(theta, n, reserve)
    model = RingModel(dist, cfg)
    paid = top - (1.0 - cfg.share_exponent(n)) * (np.asarray(model.transfer(top)) - reserve) - reserve
    payouts = np.where(top >= reserve, paid, 0.0)
    welfare = float(payouts.mean())
    welfare_se = float(payouts.std(ddof=1) / math.sqrt(samples))
    return welfare, welfare_se


def sampled_expected_profit(model, counts):
    """(configs, counts) registration-stage profits of a ``RingModel`` from the sampled
    integrand: ``payoff(x, x, m)`` times the density on every point of ``integrate``'s
    grid over [reserve, v_h], integrated by ``integrate`` (error scale: the integral of |f|),
    plus the values below the reserve: their mass F(r) times ``payoff`` at a bid below the
    reserve, which is the same for every such value."""
    from sybilgames.numerics import integrate

    def integrand(x):
        pdf = model.dist.pdf(x)
        return np.stack([model.payoff(x[None], x[None], count) * pdf for count in counts], axis=-2)

    bid = model.reserve - 1.0  # every bid below the reserve collects the same loser shares
    below = np.stack([np.atleast_1d(model.payoff(bid, bid, count)) for count in counts], axis=-1)
    return integrate(integrand, model.reserve, model.dist.v_h) + model.dist.cdf(model.reserve) * below


def fubini_expected_profit(model, counts):
    """(configs, counts) registration-stage profits as one integral of the transfer: the
    loser shares, integrated over the top rival value first, weigh T - r by (n-1) F^(n-1) f,
    so E[U_m] = integral_r^v_h (x - T + (m n - 1) g (T - r)) F^(n-1) f with T the
    (n+m-1)-report transfer and g = g(n+m-1).  That integrand is sampled on every point of
    ``integrate``'s grid over [reserve, v_h], with ``transfer`` evaluated there, and
    integrated by ``integrate``."""
    from sybilgames.numerics import integrate

    r, n = model.reserve, model.n

    def integrand(x):
        weight = model.dist.cdf(x) ** (n - 1) * model.dist.pdf(x)
        out = []
        for count in counts:
            T = model.transfer(x[None], n + count - 1)
            gamma = np.array([[cfg.g(n + count - 1)] for cfg in model.cfgs])
            out.append((x - T + (count * n - 1) * gamma * (T - r)) * weight)
        return np.stack(out, axis=-2)

    return integrate(integrand, r, model.dist.v_h)


def definition_member_payoff(w: float, v: float, m: int, cfg, dist, cells: int = 2048) -> float:
    """Payoff of a ring member with valuation v bidding w and running m identities, from the
    definition and ``ring_transfer`` alone: with k = n + m - 1, g = g(k) and T the k-report IC
    transfer (``ring_transfer`` under ``RingConfig(g, r, n=k)``), the win part
    [w >= r] (v - T(w) + (m-1) g (T(w) - r)) F(w)^(n-1) plus m g times the loser shares, a
    ``cells``-cell trapezoid of (T - r)(n-1) F^(n-2) f on [max(w, r), v_h]."""
    from sybilgames.ring import RingConfig, ring_transfer

    n, r = cfg.n, cfg.reserve
    k = n + m - 1
    g = cfg.g(k)
    report = RingConfig(cfg.g, r, n=k)
    F_w = float(dist.cdf(w))
    win = 0.0
    if w >= r and F_w > 0.0:
        T = ring_transfer(w, report, dist)
        win = (v - T + (m - 1) * g * (T - r)) * F_w ** (n - 1)
    y = np.linspace(max(w, r), dist.v_h, cells + 1)
    T = np.array([ring_transfer(float(u), report, dist) for u in y])
    shares = (T - r) * (n - 1) * dist.cdf(y) ** (n - 2) * dist.pdf(y)
    return win + m * g * (y[1] - y[0]) * (shares.sum() - 0.5 * (shares[0] + shares[-1]))


def envelope_expected_profit(model, cells: int = 200_000) -> np.ndarray:
    """(configs,) one-identity registration-stage profits of a truthful ``RingModel`` from the
    envelope theorem (Myerson 1981): U'(v) = F(v)^(n-1) above the reserve, so
    E[U] = F(r) U_below + (1 - F(r)) U(r) + integral_r^{v_h} F^(n-1) (1 - F) ds, with U(r) and
    U_below the model's payoff at the reserve and at a value below it, and the tail a plain
    ``cells``-cell trapezoid.  Only the payoff at the reserve enters, never the transfer's
    interior or the IC condition that builds it."""
    r, n, dist = model.reserve, model.n, model.dist
    s = np.linspace(r, dist.v_h, cells + 1)
    F = dist.cdf(s)
    y = F ** (n - 1) * (1.0 - F)
    tail = (s[1] - s[0]) * (y.sum() - 0.5 * (y[0] + y[-1]))
    F_r = float(dist.cdf(r))
    return F_r * model.payoff(r - 1.0, r - 1.0, 1) + (1.0 - F_r) * model.payoff(r, r, 1) + tail


def quantile_scan_truthful(model, dist, n: int, reserve: float) -> np.ndarray:
    """(configs,) truthfulness verdicts of a ``RingModel`` from a refined grid scan of the
    one-identity member payoff: the best bid on [reserve, v_h] (``grid_argmax``, step v_h/200,
    4 refinement rounds) must lie within 2e-3 v_h of the value at the 0.35, 0.6 and 0.85
    quantiles of the valuation conditioned on v >= reserve.  It reads ``payoff`` only, so it
    is independent of the IC condition that builds the transfer."""
    from sybilgames.numerics import grid_argmax

    F_reserve = float(dist.cdf(reserve))
    check_values = np.array([float(dist.quantile(F_reserve + q * (1.0 - F_reserve))) for q in (0.35, 0.6, 0.85)])
    shape = (len(model.cfgs), len(check_values), -1)

    def bid_payoffs(w):  # the coarse grid, or one window per (config, check value) row
        bids = w.reshape(shape) if w.ndim == 2 else w
        return model.payoff(bids, check_values[None, :, None], 1).reshape(-1, w.shape[-1])

    best_bids, _ = grid_argmax(bid_payoffs, reserve, dist.v_h, dist.v_h / 200.0, 4)
    return np.all(np.abs(best_bids.reshape(shape[:2]) - check_values) <= 2e-3 * dist.v_h, axis=1)


def trapezoid_ring_transfer(v: float, n: int, theta: float, dist: str, cells: int = 200_000) -> float:
    """IC transfer T(v) of the ring g(k) = theta/(k-1) with n members and no reserve:
    F(v)^-(n+theta-1) times a ``cells``-cell trapezoid of (n-1) u F(u)^(n-2+theta) f(u) on
    [0, v], with the closed-form cdf F and pdf f of ``dist`` ("beta22": the Beta(2, 2)
    density on [0, 1]; "truncexp": the rate-1 exponential truncated to [0, 1])."""
    if dist == "beta22":
        cdf = lambda u: u * u * (3.0 - 2.0 * u)
        pdf = lambda u: 6.0 * u * (1.0 - u)
    elif dist == "truncexp":
        mass = 1.0 - math.exp(-1.0)
        cdf = lambda u: (1.0 - np.exp(-u)) / mass
        pdf = lambda u: np.exp(-u) / mass
    else:
        raise ValueError(f"no closed form for {dist!r}")
    u = np.linspace(0.0, v, cells + 1)
    y = (n - 1) * u * cdf(u) ** (n - 2 + theta) * pdf(u)
    integral = (v / cells) * (y.sum() - 0.5 * (y[0] + y[-1]))
    return float(integral / cdf(v) ** (n - 1 + theta))


def fine_ring_transfer(
    v: float, n: int, theta: float, dist: str, reserve: float = 0.0, rate: float = 1.0, cells: int = 2**18
) -> float:
    """IC transfer T(v) of the ring g(k) = theta/(k-1) with n members, in the by-parts form
    [(n-1)/e (v F(v)^e - r F(r)^e - J) + theta r/e (F(v)^e - F(r)^e) + r F(r)^e] / F(v)^e,
    e = n - 1 + theta, with J = integral_r^v F^e on a ``cells``-cell composite Simpson rule and
    the closed-form cdf F of ``dist`` ("uniform" and "beta22" on [0, 1]; "truncexp": the
    exponential of ``rate`` truncated to [0, 1]).  The theta r term is the reserve the losers'
    shares of T - r leave in the IC condition.  Its own error is about 5e-15 relative at e = 1.5."""
    cdfs = {
        "uniform": lambda u: u,
        "beta22": lambda u: u * u * (3.0 - 2.0 * u),
        "truncexp": lambda u: np.expm1(-rate * u) / math.expm1(-rate),
    }
    e = n - 1 + theta
    u = np.linspace(reserve, v, 2 * cells + 1)
    y = cdfs[dist](u) ** e
    J = (v - reserve) / (6.0 * cells) * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum())
    boundary = reserve * y[0]
    reserve_term = theta * reserve / e * (y[-1] - y[0])
    return float(((n - 1) / e * (v * y[-1] - boundary - J) + reserve_term + boundary) / y[-1])


def level_loop_ring_transfer(v: float, cfg, dist, first_cells: int = 256, max_cells: int = 4096, tol: float = 1e-10):
    """``ring.ring_transfer``'s level loop as first written, the reference its leaner loop must
    match bit for bit: J = integral_r^v F^e on composite Simpson of ``first_cells``, twice as many,
    ... ``max_cells`` cells, each level's full point array built (np.linspace's steps) and F^e
    sampled on its odd points; totals on numpy scalars; the first level whose observed-order bound
    on J is at most ``tol`` of S = v F(v)^e - r F(r)^e - J returns, and the last one raises the
    same ``NumericError`` as the package."""
    from sybilgames.errors import SingularScaleError

    r = cfg.reserve
    if v < r:
        raise DomainError("transfer is defined for bids at or above the reserve")
    if v == r:
        return r
    n = cfg.n
    l = cfg.share_exponent(n)
    e = n - 1 + l
    sample = lambda u: np.asarray(dist.cdf(u), dtype=float) ** e

    def points(cells):
        h = (v - r) / (2 * cells)
        if h == 0.0:
            raise NumericError(f"integral on [{r}, {v}] unresolved: the step (b - a)/{2 * cells} underflows to 0")
        x = np.arange(2 * cells + 1, dtype=float) * h
        x += r
        x[-1] = v
        return x, h

    def totals(y, h):
        strides = slice(1, None, 2), slice(2, None, 4), slice(4, None, 8), slice(8, -1, 8)
        odd, two, four, eight = [np.add.reduce(y[s]) for s in strides]
        ends = y[0] + y[-1]
        return (
            h / 3.0 * (ends + 4.0 * odd + 2.0 * (two + four + eight)),
            2.0 * h / 3.0 * (ends + 4.0 * two + 2.0 * (four + eight)),
            4.0 * h / 3.0 * (ends + 4.0 * four + 2.0 * eight),
        )

    def bound(fine, coarse, coarser):
        d1, d2 = abs(fine - coarse), abs(coarse - coarser)
        if d2 > 2.0 * d1:
            return 2.0 * d1 / (min(d2, 16.0 * d1) / d1 - 1.0) if d1 else d1
        return 2.0 * np.maximum(d1, d2)

    x, h = points(first_cells)
    y = sample(x)
    if v * y[-1] < np.finfo(float).tiny:
        raise SingularScaleError("v F(v)^(n-1+l) underflows at the evaluation point")
    while True:
        fine, coarse, coarser = totals(y, h)
        error = bound(fine, coarse, coarser)
        if not error <= tol * (v * y[-1] - r * y[0] - fine):
            if len(y) > 2 * max_cells:
                raise NumericError(f"integral on [{r}, {v}] unresolved: error estimate {error:.3g}")
            x, h = points(len(y) - 1)
            finer = np.empty(2 * len(y) - 1)
            finer[::2], finer[1::2] = y, sample(x[1::2])
            y = finer
            continue
        return float(((n - 1) * (v - fine / y[-1]) + l * r) / (n - 1 + l))


def central_diff(f, x: float, h: float = 1e-4) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def random_measure(rng: np.random.Generator, max_segments: int = 6):
    """Random piecewise-constant probability density on [0, 1]."""
    from sybilgames.cake import PiecewiseMeasure

    m = int(rng.integers(1, max_segments + 1))
    inner = np.sort(rng.random(m - 1))
    breakpoints = np.concatenate(([0.0], inner, [1.0]))
    densities = rng.random(m) + 0.05
    mass = float(np.sum(densities * np.diff(breakpoints)))
    return PiecewiseMeasure(breakpoints, densities / mass)


def all_segments_interval_value(mu, lo: float, hi: float) -> float:
    """Mass of a piecewise measure on [lo, hi]: every segment's positive overlap, added left to right."""
    if hi <= lo:
        return 0.0
    total = 0.0
    for d, b1, b2 in zip(mu.densities, mu.breakpoints, mu.breakpoints[1:]):
        overlap = min(hi, b2) - max(lo, b1)
        if overlap > 0.0:
            total += d * overlap
    return total


def best_response_reward_game(R: float, c: float, y: float) -> float:
    """Best response in the game paying R * own/(own+others) - c * own.

    At y == 0 the payoff has no maximiser on x > 0 (any positive action takes
    the whole reward), so the response is defined as 0 there.
    """
    if c <= 0.0:
        raise DomainError("identity cost must be positive")
    if R <= 0.0 or y < 0.0:
        raise DomainError("need R > 0 and y >= 0")
    return max(0.0, math.sqrt(R * y / c) - y)


def concave_prorata_equilibrium(f, n: int, fprime):
    """Symmetric equilibrium of the pro-rata game with curve f and its derivative fprime.

    The aggregate action solves (n-1) f(q) + q f'(q) = 0, found by bracket
    expansion plus bisection.
    """
    from sybilgames.equilibrium import SymmetricEquilibrium
    from sybilgames.numerics import bisect_root

    if n < 1:
        raise DomainError("need n >= 1")

    def condition(q: float) -> float:
        return (n - 1) * f(q) + q * fprime(q)

    hi = 1.0
    while condition(hi) > 0.0 and hi < 1e12:
        hi *= 2.0
    if condition(hi) > 0.0:
        raise NumericError("no interior equilibrium: first-order condition stays positive")
    lo = hi
    while lo > hi * 1e-15:
        lo /= 2.0
        if condition(lo) > 0.0:
            break
    else:
        raise NumericError("no interior equilibrium: first-order condition never positive")
    q = bisect_root(condition, lo, hi)
    return SymmetricEquilibrium(q / n, f(q) / n, n, f(q))


def second_price_game(valuation: float, v_h: float = 1.0, reserve: float = 0.0, grid_step: float = 0.05):
    """Aggregative adapter for a sealed second-price auction from one bidder's seat.

    The others' aggregate is their top bid, and duplicated own bids fold by max,
    since only the highest of a player's bids can ever matter.  Ties lose, which
    is the conservative convention for an atomless value distribution.
    """
    from sybilgames.core import CONTINUOUS, MERGE_MAX, ActionSpace, AggregativeGame

    def phi(b: np.ndarray, others_top: np.ndarray) -> np.ndarray:
        wins = (b != 0.0) & (b > others_top) & (b >= reserve)
        with np.errstate(all="ignore"):
            return np.where(wins, valuation - np.where(reserve > others_top, reserve, others_top), 0.0)

    space = ActionSpace(CONTINUOUS, 0.0, v_h, grid_step)
    return AggregativeGame(phi=phi, space=space, aggregation=MERGE_MAX, merge=MERGE_MAX, name="second-price")


FAIRNESS_MIN_RUNS = 10_000  # fewest transcript runs check_fairness accepts
FAIRNESS_Z = 3.0  # standard errors check_fairness allows its estimates


class StatisticalPowerError(DomainError):
    """A Monte Carlo transcript is too small for the requested estimate."""


@dataclass(frozen=True)
class FairnessReport:
    envy_free_in_expectation: bool
    alpha_proportional: float
    non_wasteful: bool
    own_value_means: tuple[float, ...]


def check_fairness(transcript, true_measures) -> FairnessReport:
    """Estimate the fairness guarantees from a cake Monte Carlo transcript of at least
    ``FAIRNESS_MIN_RUNS`` runs (fewer raise :class:`StatisticalPowerError`).

    ``alpha_proportional`` is the largest alpha every player's empirical mean own
    value still clears after a ``FAIRNESS_Z``-sigma allowance; envy-freeness compares
    each pair's own-vs-other value difference against ``FAIRNESS_Z`` paired standard
    errors; ``non_wasteful`` requires every run to hand out slices covering the cake.
    """
    from sybilgames.cake import measure_value

    if transcript.runs < FAIRNESS_MIN_RUNS:
        raise StatisticalPowerError(
            f"need at least {FAIRNESS_MIN_RUNS} runs for fairness estimates, got {transcript.runs}"
        )
    n = transcript.n
    if len(true_measures) != n:
        raise DomainError("need one true measure per identity")
    values = np.array(
        [[measure_value(true_measures[i], transcript.partition[j]) for j in range(n)] for i in range(n)]
    )
    coins = transcript.coins.astype(float)
    runs = transcript.runs
    own = np.empty((runs, n))
    for i in range(n):
        own[:, i] = coins * values[i, transcript.assignments[:, i]]
    own_means = own.mean(axis=0)
    own_se = own.std(axis=0, ddof=1) / np.sqrt(runs)
    alpha = float(np.min(own_means - FAIRNESS_Z * own_se))
    envy_free = True
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diff = own[:, i] - coins * values[i, transcript.assignments[:, j]]
            se = diff.std(ddof=1) / np.sqrt(runs)
            if diff.mean() < -FAIRNESS_Z * se - 1e-12:
                envy_free = False
    covered = abs(sum(s.length for s in transcript.partition) - 1.0) <= 1e-9
    non_wasteful = bool(transcript.coins.all()) and covered
    return FairnessReport(envy_free, alpha, non_wasteful, tuple(float(m) for m in own_means))
