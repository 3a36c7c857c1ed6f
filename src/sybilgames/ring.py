"""Budget-balanced bidding rings in a second-price auction, for cartel members
whose valuations are i.i.d. draws from a known distribution.

A ring is a pair (T, g): the member reporting the highest bid wins the auction,
pays T into the ring, and every other registered identity receives the fraction
g(k) of the surplus T - r above the price paid to the seller, where k is the
number of registered identities.  T is pinned down by incentive compatibility
(truthful bidding must be optimal; McAfee and McMillan, "Bidding Rings", AER 1992),
F T' = f ((k-1) v + l r - e T), l = (k - 1) g(k), e = k - 1 + l.  Times F^(e-1) it reads
d(F^e T) = ((k-1) v + l r) d(F^e)/e; with T(r) = r and u d(F^e) integrated by parts, the
F(r)^e terms cancel, so with J = integral_r^v F(u)^e du, A = J/F(v)^e and no density sampled

    T(v) = ((k-1) (v - A) + l r)/e,    T'(v) = (k-1) f/F A.

Both transfers return through this one formula (``_by_parts``), with J from the
composite-Simpson rule of :mod:`sybilgames.numerics`: ``ring_transfer`` climbs nested
levels of 256, 512, ..., 4096 cells on [r, v] and returns at the first whose
observed-order bound on J's error is at most 1e-10 of integral_r^v u d(F^e) = v F(v)^e -
r F(r)^e - J, or raises ``NumericError``; RingModel takes J as ``cumulative_simpson`` of
F^e dx/ds on its grid, uniform in s and graded toward both ends in x, and at a bid between
nodes adds one Simpson cell from the node below.  Other single integrals of the cdf alone
(the order-statistic gap, the efficient ring's share) go through the checked ``integrate``
(4096 cells, raising ``NumericError`` when the same bound exceeds 1e-10 of the integral of
|integrand|), and registration-stage profits through the same rule's weights on RingModel's
own nodes, under its error test with the integral itself as the scale, as one weighted
integral of the transfer alone: swapping the order of integration turns the loser shares
into one more weight on it, and since T is affine in A, that integral contracts A without
building the transfer.  A member's loser shares at one bid integrate T - r against the top rival
value's cdf by parts in closed form, so no schedule is interpolated.

Because the ring center only observes the registered count, every schedule is
indexed by k; a member registering m identities faces the (n+m-1)-report
schedule, collects m loser shares when losing (also when its own value is below
the reserve) and nets back its own m-1 shares when winning.  The
identity-splitting check therefore compares expected profits across m at the
registration stage, and by symmetry the members' total payout is n times the
one-identity profit, so member welfare needs no sampling.
"""

from __future__ import annotations

import contextvars
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .core import SYBIL_TOL, count_verdict
from .errors import DomainError, InvariantViolation, SingularScaleError
from .numerics import QUAD_CELLS, QUAD_TOL, _check_resolved, _finer_samples, _nested_totals, _observed_error
from .numerics import _helper, _quadrature_points, _simpson_weights, cumulative_simpson, integrate

MODEL_CELLS = 2048  # composite-Simpson cells of RingModel's precomputed grid
RING_MAX_IDENTITIES = 4  # most identities opt_ring_search's splitting check registers
TRANSFER_FIRST_CELLS = 256  # ring_transfer's first Simpson level; each further level doubles it
_TINY = np.finfo(float).tiny  # smallest normal float


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
        cdf=lambda x: np.minimum(np.maximum(x, 0.0), 1.0),
        pdf=lambda x: np.where((np.asarray(x) >= 0.0) & (np.asarray(x) <= 1.0), 1.0, 0.0),
        v_h=1.0,
        quantile=lambda u: np.asarray(u, dtype=float),
    )


def truncated_exponential_values(rate: float = 1.0, v_h: float = 1.0) -> ValueDistribution:
    if not (rate > 0.0 and v_h > 0.0):  # also a NaN parameter
        raise DomainError("need rate > 0 and v_h > 0")
    mass = -math.expm1(-rate * v_h)

    def cdf(x):
        # expm1: 1 - exp(-rate x) would lose |log10(rate x)| digits as x -> 0
        x = np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), v_h)
        return -np.expm1(-rate * x) / mass

    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= v_h)
        return np.where(inside, rate * np.exp(-rate * np.clip(x, 0.0, v_h)) / mass, 0.0)

    def quantile(u):
        u = np.asarray(u, dtype=float)
        return -np.log1p(-u * mass) / rate  # log1p: log(1 - u mass) would lose digits as u -> 0

    return ValueDistribution("truncexp", cdf, pdf, v_h, quantile)


def beta22_values() -> ValueDistribution:
    def cdf(x):
        x = np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), 1.0)
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


# RingModel's node map x = a + (v_h - a) B(s) of a uniform s on [0, 1]: B = 3 s^2 - 2 s^3 is the Beta(2, 2)
# cdf, dx/ds = (v_h - a) B'(s) its density, and its quantile inverts the map
_GRADING = beta22_values()

DISTRIBUTIONS = {
    "uniform": uniform_values,
    "truncexp": truncated_exponential_values,
    "beta22": beta22_values,
}


@dataclass(frozen=True)
class RingConfig:
    """Loser-share rule g, reserve price, and the true member count n.

    Construction checks g(n) for budget balance; every other report count k is
    checked by :meth:`share_exponent` where a transfer for k is built."""

    g: Callable[[int], float]
    reserve: float = 0.0
    n: int = 2

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("a ring needs at least two members")
        if not self.reserve >= 0.0:  # also a NaN reserve
            raise DomainError("reserve must be nonnegative")
        self.share_exponent(self.n)

    def share_exponent(self, k: int) -> float:
        """l(k) = (k-1) g(k), the total share fraction paid out at k reports; raises
        :class:`DomainError` unless g(k) is budget balanced, 0 <= g(k) <= 1/(k-1)."""
        if k < 2:
            return 0.0
        share = self.g(k)
        if not -1e-12 <= share <= 1.0 / (k - 1) + 1e-12:  # also a NaN share
            raise DomainError(f"budget balance needs 0 <= g({k}) <= 1/{k - 1}, got {share}")
        return (k - 1) * share


def constant_share_config(theta: float, n: int, reserve: float = 0.0) -> RingConfig:
    """The constant-fraction family g(k) = theta/(k-1), theta in [0, 1]."""
    if not 0.0 <= theta <= 1.0:
        raise DomainError("theta must lie in [0, 1]")
    return RingConfig(g=lambda k: theta / (k - 1), reserve=reserve, n=n)


def ring_transfer(v: float, cfg: RingConfig, dist: ValueDistribution) -> float:
    """Winner's payment at bid v under the incentive-compatible schedule for
    cfg.n reports.

    With e = n - 1 + l, T = ((n-1)(v - A) + l r)/e with A = J/F(v)^e and
    J = integral_r^v F(u)^e du (``_by_parts``), so only the cdf is sampled, never the
    density.  J takes composite Simpson on nested levels of TRANSFER_FIRST_CELLS, twice as
    many, ..., QUAD_CELLS cells on [reserve, v], sampling F^e only at each level's new
    midpoints (built alone, not as a level's full point array), with each level's totals and
    test on Python floats.  It returns at the first level whose observed-order bound on J's error
    (``_observed_error``) is at most 1e-10 of S = v F(v)^e - r F(r)^e - J, the by-parts
    integral_r^v u d(F^e); at the last level ``_check_resolved`` applies the same test and
    raises ``NumericError``, as on a NaN, negative or cancelled S.  Dividing by F(v)^e keeps
    the tolerance relative; v F(v)^e, read off the last sample, below the smallest normal
    float (so also F(v) = 0), where S's digits are lost to underflow, raises
    ``SingularScaleError``.  Features of F^e narrower than (v - reserve)/512 can go unseen.
    """
    r = cfg.reserve
    if v < r:
        raise DomainError("transfer is defined for bids at or above the reserve")
    if v == r:
        return r
    n = cfg.n
    l = cfg.share_exponent(n)
    e = n - 1 + l
    sample = lambda u: np.asarray(dist.cdf(u), dtype=float) ** e  # F^e
    x, h = _quadrature_points(r, v, TRANSFER_FIRST_CELLS)
    y = sample(x)
    Fr, Fv = float(y[0]), float(y[-1])  # F(r)^e and F(v)^e, kept by every finer level
    if v * Fv < _TINY:  # F(v)^e is the divisor, v F(v)^e S's largest term
        raise SingularScaleError("v F(v)^(n-1+l) underflows at the evaluation point")
    while True:
        totals = _nested_totals(y, h)
        S = v * Fv - r * Fr - totals[0]
        if len(y) > 2 * QUAD_CELLS:  # the last level: resolved, or raise
            _check_resolved(totals, S, r, v)
        elif not _observed_error(*totals) <= QUAD_TOL * S:
            y, h = _finer_samples(sample, y, r, v)
            continue
        return float(_by_parts(v, totals[0] / Fv, r, n, l))


def _by_parts(v, A, r, k, l):
    """The k-report IC transfer ((k-1)(v - A) + l r)/(k-1+l) at bids v from A = J/F(v)^e,
    J = integral_r^v F^e; broadcasts."""
    return ((k - 1) * (v - A) + l * r) / (k - 1 + l)


def _row_sums(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(configs, 3) sums of each row of a against the 3 rows of weights: the fine one as
    elementwise products summed per row, so a config's row does not depend on the others,
    and the two error rows by matrix product."""
    return np.column_stack([(a * weights[0]).sum(axis=-1), a @ weights[1:].T])


def _row_powers(F, e: np.ndarray) -> np.ndarray:
    """F^e row by row over a (configs, 1) column e, each row an array (a numpy scalar's ** is libm's) to one
    float power: numpy's power rounds by its loop's memory layout, so no row may depend on the other configs."""
    F = np.atleast_1d(F)
    return np.concatenate([F[min(c, len(F) - 1)][None] ** power for c, power in enumerate(e[:, 0].tolist())])


def _column(c, x) -> np.ndarray:
    """A per-config array as a column that broadcasts against bids x with the config axis in front."""
    return np.reshape(c, (-1,) + (1,) * (x.ndim - 1))


def _identity_counts(m, least: int = 1) -> np.ndarray:
    """m as a 1-D array of counts; :class:`DomainError` unless it holds at least one count
    and every count is an integer >= least."""
    counts = np.atleast_1d(np.asarray(m))
    if counts.ndim != 1 or counts.size == 0 or counts.dtype.kind not in "iu" or counts.min() < least:
        raise DomainError(f"identity counts must be integers >= {least}, got {m!r}")
    return counts


class RingModel:
    """Dense-grid evaluation kernel for one distribution and one or more rings.

    Transfer schedules are running composite-Simpson integrals on one interleaved grid
    of 2 MODEL_CELLS + 1 points, uniform in s on [0, 1] (cell nodes at even indices,
    midpoints at odd ones) and mapped onto [a, v_h] by x = a + (v_h - a)(3 s^2 - 2 s^3),
    so the nodes crowd both ends; a is the reserve, or the support's start, the quantile
    at 0, where that lies above the reserve, so that a density that starts there (or a
    jump there) meets no cell.  Integrals over x take the integrand times dx/ds = 6 (v_h - a) s (1 - s).
    A transfer is T = ((k-1)(v - A) + l r)/e (``_by_parts``) with A = J/F^e, J the
    running integral of F^e from one F^e sampling, so Simpson's positive weights keep
    0 <= A <= v - r and r <= T <= v.  The first node, and every node whose F^e is not a
    normal float, holds T = r by taking A = v - r there.  Each count caches A at the
    nodes (``_ratio``); ``expected_profit`` builds the counts it lacks on the calling thread
    and one helper thread, equal to the serial build bit for bit, so every g must be safe to
    call from another thread.  A bid's s inverts the node map in closed form, and J there is the
    node below's plus one Simpson cell in s (``_cell``), so a bid costs O(1), samples only
    the cdf, and on a node reads that node; ``payoff`` takes the loser shares in closed
    form.  The registration-stage profit samples no integrand and builds no schedule: it
    is one Simpson rule on the nodes whose weights times F^(n-1) f dx/ds are contracted
    with each count's A.  Only the search's certificate builds node transfer values
    (``_transfer``).  Identity counts are integers >= 1.

    Built from one RingConfig, results carry no config axis.  Built from a
    sequence of configs sharing reserve and n, every schedule has a leading
    config axis, inputs broadcast with it in front (length C or 1), and results
    carry it; each row equals the single-config model's result bit for bit.
    """

    def __init__(self, dist: ValueDistribution, cfgs: Union[RingConfig, Sequence[RingConfig]]):
        self._single = isinstance(cfgs, RingConfig)
        self.cfgs = (cfgs,) if self._single else tuple(cfgs)
        if not self.cfgs:
            raise DomainError("need at least one ring config")
        self.dist = dist
        self.reserve, self.n = self.cfgs[0].reserve, self.cfgs[0].n
        if any(cfg.reserve != self.reserve or cfg.n != self.n for cfg in self.cfgs):
            raise DomainError("the configs of one model must share reserve and n")
        r, b = self.reserve, dist.v_h
        if not r < b:
            raise DomainError(f"reserve {r} leaves no values below v_h = {b}")
        a = max(r, float(dist.quantile(0.0)))  # where F becomes positive, if that lies above the reserve
        s = np.linspace(0.0, 1.0, 2 * MODEL_CELLS + 1)
        self.grid = a + (b - a) * _GRADING.cdf(s)
        self.grid[-1] = b
        self._h = s[1]  # the grid's spacing in s
        self._dxds = (b - a) * _GRADING.pdf(s)
        self._F = np.asarray(dist.cdf(self.grid), dtype=float)
        self._f = np.asarray(dist.pdf(self.grid), dtype=float)
        self._ratios: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._G: Optional[np.ndarray] = None  # running integral of F^(n-1) dx/ds at the nodes, built by payoff

    def _share_exponents(self, k: int) -> np.ndarray:
        """(configs, 1) column of l(k), checking every g(k) for budget balance."""
        return np.array([[cfg.share_exponent(k)] for cfg in self.cfgs])

    def _ratio(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(A, held), two (configs, nodes) arrays: the k-report IC ratio A = J/F^e at the nodes,
        J the running Simpson integral of F^e dx/ds in s, and the nodes that hold T = r, the
        first (J = 0) and every one whose F^e is not a normal float, where A = v - r instead.
        The first build checks every g(k) for budget balance.  ``expected_profit`` also runs it
        on its helper thread (``_ratios_of``); a build reads only the model's arrays and g and
        writes only its own arrays, so it is the same bit for bit on either thread."""
        if k not in self._ratios:
            y = self._F ** (k - 1 + self._share_exponents(k))  # F^e on the whole grid
            divisor = y[:, ::2].copy()
            held = divisor < _TINY
            held[:, 0] = True
            y *= self._dxds  # in place: no second (configs, points) array per count
            A = cumulative_simpson(y, self._h)
            np.divide(A, divisor, out=A, where=~held)
            np.copyto(A, self.grid[::2] - self.reserve, where=held)
            self._ratios[k] = A, held
        return self._ratios[k]

    def _ratios_of(self, ks) -> None:
        """Build the ``_ratio`` of each report count in ks that is not cached: the 1st, 3rd, ...
        missing count on the calling thread, the 2nd, 4th, ... on the package's one helper thread
        (``numerics._helper``), each by the unchanged ``_ratio``, so every array equals the serial
        build's bit for bit.  Every missing count's g(k) is checked for budget balance before
        any build, and the builds are awaited in count order, so the error raised is the one
        the serial builds raise first; the helper runs in a copy of the caller's context, so
        numpy's errstate (a context variable) there is the caller's.  No build outlives the call."""
        missing = [k for k in dict.fromkeys(ks) if k not in self._ratios]
        for k in missing:
            self._share_exponents(k)
        context = contextvars.copy_context()
        helped = {k: _helper().submit(context.run, self._ratio, k) for k in missing[1::2]}
        try:
            for k in missing:
                if k in helped:
                    helped[k].result()
                else:
                    self._ratio(k)
        finally:
            for build in helped.values():
                build.exception()  # waits; an error past the first raised is dropped, as serial builds never reach it

    def _transfer(self, k: int) -> np.ndarray:
        """(configs, nodes) node values of the k-report transfer from its cached ``_ratio``, r at the held nodes."""
        A, held = self._ratio(k)
        t = _by_parts(self.grid[::2], A, self.reserve, k, self._share_exponents(k))
        return np.where(held, self.reserve, t)

    def _basis(self, x):
        """Node cell index and coordinate s of bids x in [a, v_h]: s = B^-1((x - a)/(v_h - a)) inverts the node map."""
        a, b = self.grid[0], self.grid[-1]
        s = _GRADING.quantile((x - a) / (b - a))
        return np.minimum((s * MODEL_CELLS).astype(np.intp), MODEL_CELLS - 1), s

    def _cell(self, w):
        """One Simpson cell in s from the node below each bid w, clipped to [a, v_h], to the bid: (x, i, F,
        weights), the clipped bids, the node's index, and F and the rule's weights (1, 4, 1) times dx/ds
        times the cell's width over 6 at the node, the midpoint and x, so the cell's integral of F^p dx/ds
        is the sum of weights F^p.  Only the cdf is sampled."""
        a, b = self.grid[0], self.grid[-1]
        x = np.clip(w, a, b)
        i, s = self._basis(x)
        node = 2.0 * self._h * i
        mid = 0.5 * (node + s)
        F = self._F[2 * i], self.dist.cdf(a + (b - a) * _GRADING.cdf(mid)), self.dist.cdf(x)
        dxds = self._dxds[2 * i], 4.0 * (b - a) * _GRADING.pdf(mid), (b - a) * _GRADING.pdf(s)
        return x, i, [np.asarray(Fj, dtype=float) for Fj in F], [(s - node) / 6.0 * d for d in dxds]

    def _bid_transfer(self, k: int, cell):
        """(T, A) of the k-report transfer at the bids of ``_cell``: A = J/F(x)^e, J the node below's (0 where
        it is held) plus the cell.  At a, and where F(x)^e is not a normal float, T = r is held with A = x - r."""
        A, held = self._ratio(k)
        x, i, F, weights = cell
        l = self._share_exponents(k)
        Fe = [_row_powers(Fj, k - 1 + l) for Fj in F]
        rows = _column(np.arange(len(self.cfgs)), x)
        J = np.where(held[rows, i], 0.0, A[rows, i] * Fe[0]) + sum(wj * y for wj, y in zip(weights, Fe))
        hold = (Fe[2] < _TINY) | (x <= self.grid[0])
        A = np.where(hold, x - self.reserve, J / np.where(hold, 1.0, Fe[2]))
        return np.where(hold, self.reserve, _by_parts(x, A, self.reserve, k, _column(l, x))), A

    def _lead(self, *arrays):
        """Float arrays with the config axis in front: a single-config model's inputs
        gain it, and every array is padded to the same number of dimensions."""
        arrays = [np.asarray(a, dtype=float)[None] if self._single else np.asarray(a, dtype=float) for a in arrays]
        ndim = max(a.ndim for a in arrays)
        return [a.reshape((1,) * (ndim - a.ndim) + a.shape) for a in arrays]

    def _strip(self, out: np.ndarray):
        out = out[0] if self._single else out
        return float(out) if out.ndim == 0 else out

    def transfer(self, v, k: Optional[int] = None):
        """Transfer at the k-report schedule (defaults to n), v clipped to [reserve, v_h].
        k is one integer >= 2, as ``payoff`` checks m; otherwise :class:`DomainError`."""
        k = self.n if k is None else k
        if np.ndim(k) != 0:
            raise DomainError(f"transfer takes one report count, got {k!r}")
        k = int(_identity_counts(k, least=2)[0])
        (v,) = self._lead(v)
        return self._strip(self._bid_transfer(k, self._cell(v))[0])

    def payoff(self, w, v, m: int = 1):
        """Expected payoff of a member with valuation v bidding w and running m identities.

        The m-1 extra identities register and bid at the reserve; all identities
        collect the loser share g(n+m-1) when a rival wins, and the winner nets
        back its own extras' shares.  With k = n+m-1, g = g(k), x = max(w, r) clipped to
        [a, v_h], P = F(x)^(n-1), p = m-1+l and G(x) = integral_x^v_h F^(n-1) (one more running
        integral plus the bid's cell, built by the first call), T - r = (k-1)/e (x - r - A)
        integrated against d(F^(n-1)) from x up, twice by parts, gives the loser shares L:

            payoff = [w >= r] (v - T + (m-1) g (T - r)) P + m g L,
            L = (k-1)/e [(v_h - r) - (x - r) P - G + (n-1)/p (A(v_h) - A(x) P - G)],

        with m g (n-1)/p one ratio, 1 at m = 1 and 0 where g = 0, so a subnormal g cannot
        overflow it.  w and v broadcast as arrays; scalar input to a single-config model gives
        a float.
        """
        if np.ndim(m) != 0:
            raise DomainError(f"payoff takes one identity count, got {m!r}")
        m = int(_identity_counts(m)[0])
        n, r, k = self.n, self.reserve, self.n + m - 1
        w, v = self._lead(w, v)
        cell = x, i, F, weights = self._cell(w)
        T, A = self._bid_transfer(k, cell)
        if self._G is None:
            self._G = cumulative_simpson(self._F ** (n - 1) * self._dxds, self._h)
        P = F[2] ** (n - 1)
        G = self._G[-1] - (self._G[i] + sum(wj * Fj ** (n - 1) for wj, Fj in zip(weights, F)))
        g = _column(np.array([cfg.g(k) for cfg in self.cfgs]), x)
        l, top = _column(self._share_exponents(k), x), _column(self._ratio(k)[0][:, -1], x)  # A(v_h) = J(v_h)
        ratio = np.divide(m * g * (n - 1), m - 1 + l, out=np.zeros_like(g), where=g > 0.0)
        loser = (k - 1) / (k - 1 + l) * (m * g * ((self.dist.v_h - r) - (x - r) * P - G) + ratio * (top - A * P - G))
        return self._strip(np.where(w >= r, (v - T + (m - 1) * g * (T - r)) * P, 0.0) + loser)

    def expected_profit(self, m: Union[int, Sequence[int]] = 1):
        """Registration-stage expected payoff of running m identities, truthful bidding:
        the integral over [0, v_h] of ``payoff(x, x, m)`` times the density.  With
        k = n+m-1, g = g(k) and the loser shares L(x) = integral_x^v_h (T_k - r)(n-1)
        F^(n-2) f, swapping the order of integration gives integral_r^v_h L f + F(r) L(r)
        = integral_r^v_h (T_k - r)(n-1) F^(n-1) f, the below-reserve shares included, so

            E[U_m] = integral_r^v_h (x - T_k + (m n - 1) g (T_k - r)) F^(n-1) f dx.

        m is one count or a non-empty sequence of counts, each an integer >= 1 (otherwise
        :class:`DomainError`); a sequence gives one checked quadrature over (config, m)
        rows, with m as the last axis of the result.

        The nodes' Simpson rule in s (``_simpson_weights`` on MODEL_CELLS/2 cells) gives the
        three nested totals of the integrand times dx/ds.  T - r = (k-1)/e (v - r - A) is
        affine in the IC ratio A = J/F^e, so with the rule's weights times F^(n-1) f dx/ds
        contracted with v - r once per call and with each count's cached A (``_ratio``, the
        missing counts built on the calling thread and one helper thread by ``_ratios_of``,
        bit for bit as the serial build, so g must be safe to call from another thread), the
        totals are V - (1 - (m n - 1) g)(k-1)/e (V - A): no transfer schedule is built.  A
        row's fine total is elementwise products summed along one row, so it equals the
        single-config model's row bit for bit; the two coarser totals, which only feed the
        error test, are matrix products (``_row_sums``).  A node that holds T = r while its
        F^e is not a normal float is off by at most (v - r) times its integrand factor, so
        the row's error bound adds (1 + |(m n - 1) g|) times the fine rule's sum of
        F^(n-1) f dx/ds (v - r) over those nodes.  A row whose observed-order bound plus that
        term exceeds QUAD_TOL |fine| (``_check_resolved``, ``integrate``'s test) raises
        ``NumericError`` naming its (config, m) index.
        """
        counts = _identity_counts(m)
        r, n, v = self.reserve, self.n, self.grid[::2]
        win_prob = self._F[::2] ** (n - 1)
        # (fine, coarse, coarser) rows; nodes where F^(n-1) = 0 contribute 0
        P = np.where(win_prob > 0.0, win_prob * self._f[::2] * self._dxds[::2], 0.0)
        rule_P = _simpson_weights(2.0 * self._h, MODEL_CELLS // 2) * P
        V, held_P = rule_P @ (v - r), rule_P[0] * (v - r)
        self._ratios_of((n + counts - 1).tolist())
        out = np.empty((len(self.cfgs), len(counts), 3))
        held_error = np.empty((len(self.cfgs), len(counts)))
        for j, count in enumerate(counts.tolist()):
            k = n + count - 1
            A, held = self._ratio(k)
            shares = (count * n - 1) * np.array([[cfg.g(k)] for cfg in self.cfgs])  # (m n - 1) g, on T - r
            paid = (k - 1) * (V - _row_sums(A, rule_P)) / (k - 1 + self._share_exponents(k))  # the sums of T - r
            out[:, j] = V - (1.0 - shares) * paid
            held_error[:, j] = (1.0 + np.abs(shares[:, 0])) * (held @ held_P)
        totals = np.moveaxis(out, -1, 0)  # (fine, coarse, coarser), each (configs, counts)
        # bound + held_error <= QUAD_TOL |fine|
        _check_resolved(totals, np.abs(totals[0]) - held_error / QUAD_TOL, r, self.dist.v_h)
        return self._strip(totals[0] if np.ndim(m) else totals[0][:, 0])


def expected_order_gap(dist: ValueDistribution, n: int) -> float:
    """E[v(1) - v(2)] of n >= 2 i.i.d. draws on [0, v_h], the searched rings' baseline: the
    integral of the survival functions' difference n F^(n-1) (1 - F), one cdf sample per point."""
    if n < 2:
        raise DomainError("need n >= 2")

    def gap(u):
        F = np.asarray(dist.cdf(u), dtype=float)
        return n * F ** (n - 1) * (1.0 - F)

    return integrate(gap, 0.0, dist.v_h)


def efficient_ring_loser_share(n: int, dist: ValueDistribution, reserve: float = 0.0) -> float:
    """Per-loser transfer of the fully efficient ring: E[(v(2) - r)+]/n, the integral of
    P(v(2) > u) = 1 - F^(n-1) (n - (n-1) F) over [r, v_h] over n, and 0 for a reserve at or above
    v_h, which no value exceeds; only the cdf is sampled."""
    if n < 2:
        raise DomainError("need n >= 2")
    if reserve >= dist.v_h:
        return 0.0

    def survival(u):
        F = np.asarray(dist.cdf(u), dtype=float)
        return 1.0 - F ** (n - 1) * (n - (n - 1) * F)

    return max(0.0, integrate(survival, reserve, dist.v_h)) / n


@dataclass(frozen=True)
class OptRingRow:
    """One searched theta: its verdicts, welfare and baseline, and the margins behind the
    verdicts: the certificate's largest slope at the truthful bid (``truthful_ok`` is
    ``truthful_gap <= 1e-4``) and the best gain of m >= 2 identities over one with its
    first m (``sybilproof_ok`` is ``split_gain <= SYBIL_TOL``)."""

    theta: float
    truthful_ok: bool
    sybilproof_ok: bool
    welfare: float
    baseline: float
    truthful_gap: float
    split_gain: float
    split_m: int


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
    reserve: float = 0.0,
) -> OptRingResult:
    """Search the constant-share family g(k) = theta/(k-1) for profitable rings
    that survive truthfulness and identity-splitting checks.

    For each theta: (i) the one-identity payoff's slope at the truthful bid,
    F^(n-2) |F T' - f ((n-1) v + l r - e T)| with T' the central difference of the
    n-report transfer's node values, must be at most 1e-4 at every node past F = 0:
    the payoff has increasing differences in (bid, value), so truthful bidding is then
    optimal at every value; (ii) no registration-stage expected profit with m = 2 up to
    ``RING_MAX_IDENTITIES`` identities may beat one identity's by more than
    ``core.SYBIL_TOL`` (:func:`~sybilgames.core.count_verdict` on the (theta, m)
    table), and (iii) member welfare, the members' expected total payout, is n times
    that one-identity profit.  Among
    passing thetas the one with the highest welfare wins; it must strictly beat a
    searched theta = 0; if none passes, the search warns and reports theta = 0 with that
    ring's welfare at the reserve.  One RingModel holds every theta: (ii) and (iii) read one
    checked quadrature over (theta, m) rows, each row its count's IC ratio A = J/F^e on the
    model's nodes contracted with the nodes' Simpson weights (``RingModel.expected_profit``),
    which builds no transfer schedule; (i) reads the n-report transfer schedule, the only one
    the search builds, with T' the nodes' central difference over their own spacing.  Each row carries
    (i)'s largest slope and (ii)'s best gain with its m.
    Every row carries the baseline E[v(1) - v(2)] (:func:`expected_order_gap`).
    The search draws nothing, so a row depends only on its theta, n, the reserve and
    the distribution.  Needs at least one theta; otherwise raises ``DomainError``.
    """
    if thetas is None:
        thetas = np.linspace(0.0, 1.0, 21)
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise DomainError("need at least one theta")
    cfgs = [constant_share_config(theta, n, reserve) for theta in thetas]
    model = RingModel(dist, cfgs)
    baseline = expected_order_gap(dist, n)
    profits = model.expected_profit(range(1, RING_MAX_IDENTITIES + 1))
    # dU/dw at w = v, F^(n-2) |F T' - f ((n-1) v + l r - e T)|, at the nodes whose neighbours lie past F = 0
    t, l = model._transfer(n), model._share_exponents(n)
    a = int(np.count_nonzero(model._F[::2] <= 0.0)) + 1
    x = model.grid[::2]
    v, F, f = (nodes[a:MODEL_CELLS] for nodes in (x, model._F[::2], model._f[::2]))
    # the nodes' central difference over their own spacing
    slope = (t[:, a + 1 :] - t[:, a - 1 : -2]) / (x[a + 1 :] - x[a - 1 : -2])
    gap = F ** (n - 2) * np.abs(F * slope - f * ((n - 1) * v + l * reserve - (n - 1 + l) * t[:, a:-1]))
    truthful_gap = gap.max(axis=1, initial=0.0)
    split = count_verdict(profits, SYBIL_TOL)
    welfare = n * profits[:, 0]
    rows = [
        OptRingRow(theta, worst <= 1e-4, gain <= SYBIL_TOL, w, baseline, worst, gain, m)
        for theta, worst, gain, m, w in zip(
            thetas, truthful_gap.tolist(), split.gains.tolist(), split.xs.tolist(), welfare.tolist()
        )
    ]
    passing = [row for row in rows if row.truthful_ok and row.sybilproof_ok]
    if not passing:  # the theta = 0 ring at this reserve; its one-config row equals a searched row bit for bit
        warnings.warn("no theta passed both checks; falling back to the theta = 0 ring")
        zero = RingModel(dist, constant_share_config(0.0, n, reserve))
        return OptRingResult(tuple(rows), 0.0, n * float(zero.expected_profit(1)), baseline, fell_back=True)
    best = max(passing, key=lambda row: (row.welfare, -row.theta))
    zero_rows = [row for row in rows if row.theta == 0.0]
    if best.theta > 0.0 and zero_rows and not best.welfare > zero_rows[0].welfare:
        raise InvariantViolation("search selected a ring no better than theta = 0")
    return OptRingResult(tuple(rows), best.theta, best.welfare, baseline)
