"""Truthful cake cutting over piecewise-constant valuations on [0, 1], hardened
against fake identities by burning the cake with the right probability.

The mechanism: build a partition every declared measure values at exactly 1/n,
shuffle it uniformly, then keep the allocation with probability n / 2^(n-1) and
burn everything otherwise.  Each identity's expected value is 1 / 2^(n-1)
whatever it declares, and reporting k identities against y others is worth
k / 2^(y+k-1), which never beats a single report.

Randomness contract: a batch of ``runs`` mechanism runs draws from one
``numpy.random.Generator(PCG64(seed))``.  It first shuffles every row of a
``(runs, n)`` table of slice indices with ``Generator.permuted`` (one uniform
permutation per run), then draws one ``runs``-long uniform vector; run r keeps
its allocation when its uniform is below n / 2^(n-1).  A single mechanism run
is run 0 of a one-run batch, so the same seed, declarations and run count give
the same transcript.

``run_monte_carlo`` shuffles its index table in place (``permuted`` with
``out=`` draws what a shuffled copy would), and a slice's value walks only the
density segments each of its intervals overlaps.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, MalformedSliceError
from .numerics import _left_sum

MERGE_EPS = 1e-15


@dataclass(frozen=True)
class PiecewiseMeasure:
    """Nonnegative piecewise-constant probability density on [0, 1]."""

    breakpoints: tuple[float, ...]
    densities: tuple[float, ...]

    def __init__(self, breakpoints: Iterable[float], densities: Iterable[float]):
        bps = tuple(float(b) for b in breakpoints)
        dens = tuple(float(d) for d in densities)
        if len(bps) < 2 or len(dens) != len(bps) - 1:
            raise DomainError("need m+1 breakpoints and m densities")
        if abs(bps[0]) > MERGE_EPS or abs(bps[-1] - 1.0) > MERGE_EPS:
            raise DomainError("breakpoints must start at 0 and end at 1")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if any(d < 0.0 for d in dens):
            raise DomainError("densities must be nonnegative")
        mass = sum(d * (b2 - b1) for d, b1, b2 in zip(dens, bps, bps[1:]))
        if abs(mass - 1.0) > 1e-12:
            raise DomainError(f"total mass must be 1, got {mass}")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "densities", dens)

    @staticmethod
    def uniform() -> "PiecewiseMeasure":
        return PiecewiseMeasure((0.0, 1.0), (1.0,))

    @staticmethod
    def from_flat(numbers: Sequence[float]) -> "PiecewiseMeasure":
        """Parse the flat file form b0 d0 b1 d1 ... bm (breakpoints and densities alternating)."""
        if len(numbers) < 3 or len(numbers) % 2 == 0:
            raise DomainError("flat measure needs an odd count: b0 d0 b1 ... bm")
        return PiecewiseMeasure(numbers[0::2], numbers[1::2])

    def interval_value(self, lo: float, hi: float) -> float:
        """Mass on [lo, hi], summed over the segments it overlaps, left to right.

        The walk starts at the segment holding ``lo`` and stops at the first one
        starting at or past ``hi``; every segment it skips overlaps by at most 0,
        so the sum is the one over all segments, term for term."""
        if hi <= lo:
            return 0.0
        bps, dens = self.breakpoints, self.densities
        total = 0.0
        k = max(bisect_right(bps, lo) - 1, 0)
        while k < len(dens) and bps[k] < hi:
            overlap = min(hi, bps[k + 1]) - max(lo, bps[k])
            if overlap > 0.0:
                total += dens[k] * overlap
            k += 1
        return total


@dataclass(frozen=True)
class Slice:
    """Disjoint sorted subintervals of [0, 1]; the empty slice is allowed."""

    intervals: tuple[tuple[float, float], ...]

    def __init__(self, intervals: Iterable[tuple[float, float]]):
        cleaned = []
        for lo, hi in intervals:
            lo, hi = float(lo), float(hi)
            if lo < -MERGE_EPS or hi > 1.0 + MERGE_EPS:
                raise MalformedSliceError(f"interval [{lo}, {hi}] leaves the cake")
            if hi - lo > MERGE_EPS:
                cleaned.append((max(lo, 0.0), min(hi, 1.0)))
        cleaned.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in cleaned:
            if merged and lo < merged[-1][1] - MERGE_EPS:
                raise MalformedSliceError("slice intervals overlap")
            if merged and lo - merged[-1][1] <= MERGE_EPS:
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(merged))

    @property
    def empty(self) -> bool:
        return not self.intervals

    @property
    def length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)


def measure_value(mu: PiecewiseMeasure, s: Slice) -> float:
    """Exact value of a slice under a piecewise-constant measure: its intervals' values
    added in order from 0.0 (``_left_sum``), so every Python version writes the same bytes."""
    return _left_sum(mu.interval_value(lo, hi) for lo, hi in s.intervals)


def exact_partition(declared: Sequence[PiecewiseMeasure]) -> list[Slice]:
    """Partition of [0, 1] every one of the n declared measures values at exactly 1/n.

    The cake is refined by the union of all breakpoints, so densities are
    constant on each refined segment; splitting every segment into n equal parts
    and collecting the j-th parts makes each slice worth exactly 1/n to everyone.
    """
    n = len(declared)
    if n < 1:
        raise DomainError("need one declared measure per identity, n >= 1")
    cuts: list[float] = []
    for mu in declared:
        cuts.extend(mu.breakpoints)
    cuts.sort()
    refined = [0.0]
    for b in cuts:
        if b - refined[-1] > MERGE_EPS:
            refined.append(b)
    if 1.0 - refined[-1] > MERGE_EPS:
        refined.append(1.0)
    else:
        refined[-1] = 1.0
    parts: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    for a, b in zip(refined, refined[1:]):
        width = b - a
        for j in range(n):
            lo = a + width * j / n
            hi = a + width * (j + 1) / n if j < n - 1 else b
            parts[j].append((lo, hi))
    return [Slice(p) for p in parts]


def coin_probability(n: int) -> float:
    """Probability the allocation is kept rather than burned: n / 2^(n-1)."""
    if n < 1:
        raise DomainError("need n >= 1")
    return math.ldexp(n, 1 - n)


def expected_truthful_value(n: int) -> float:
    """Expected slice value of a truthful identity among n reports: 1 / 2^(n-1)."""
    if n < 1:
        raise DomainError("need n >= 1")
    return math.ldexp(1.0, 1 - n)


def sybil_deviation_value(k: int, y: int) -> float:
    """Expected total value of reporting k identities against y honest ones: k / 2^(y+k-1)."""
    if k < 1 or y < 0:
        raise DomainError("need k >= 1 and y >= 0")
    return math.ldexp(k, 1 - y - k)


@dataclass(frozen=True)
class Transcript:
    """Batch of mechanism runs drawn from one seeded generator.

    Row r of ``assignments`` is run r's permutation and ``coins[r]`` its keep
    coin; see the module docstring for the order of the draws.
    """

    declared: tuple[PiecewiseMeasure, ...]
    partition: tuple[Slice, ...]
    assignments: np.ndarray  # (runs, n) slice index handed to each identity
    coins: np.ndarray  # (runs,) True where the allocation was kept

    @property
    def n(self) -> int:
        return len(self.declared)

    @property
    def runs(self) -> int:
        return int(self.assignments.shape[0])


def run_monte_carlo(declared: Sequence[PiecewiseMeasure], runs: int, seed: int) -> Transcript:
    """Replay the mechanism ``runs`` times: all permutations, then all coins, from one stream."""
    if runs < 1:
        raise DomainError("need at least one run")
    n = len(declared)
    partition = tuple(exact_partition(declared))
    rng = np.random.Generator(np.random.PCG64(seed))
    assignments = np.tile(np.arange(n, dtype=np.int64), (runs, 1))
    rng.permuted(assignments, axis=1, out=assignments)  # in place: the same draws as a shuffled copy
    coins = rng.random(runs) < coin_probability(n)
    return Transcript(tuple(declared), partition, assignments, coins)
