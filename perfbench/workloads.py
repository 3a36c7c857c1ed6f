"""Workload definitions: inputs generated from the benchmark seed, and the fixed job list.

A job is either a ``sybilgames.cli.main`` argument vector or, for the IC transfer
table, a call into the public ``sybilgames.ring`` functions.  Every job writes one
CSV artifact into the work directory.  Only the inputs depend on the seed; the
amount of work per pass does not, so pass times from different seeds compare.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

RING_DISTS = ("uniform", "beta22", "truncexp")
IC_NS = (2, 3, 4, 6)
IC_THETAS = (0.0, 0.5, 1.0)
IC_BIDS_PER_CONFIG = 28  # 3 dists x 4 n x 3 theta x 28 = 1,008 bids


@dataclass
class Job:
    name: str
    out: Path
    argv: Optional[list[str]] = None  # passed to sybilgames.cli.main
    call: Optional[Callable[[], None]] = None  # library job, writes ``out`` itself
    params: dict = field(default_factory=dict)  # what the checks need to know


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]
    items: int  # work items per pass: MC runs, multisets, thetas or table rows
    item_name: str  # the throughput metric the items feed


def multiset_count(grid_points: int, max_identities: int) -> int:
    """Search-space size of the split verifier: sorted m-tuples of grid points, m = 2..max."""
    return sum(math.comb(grid_points + m - 1, m) for m in range(2, max_identities + 1))


def _cli_job(name: str, work: Path, seed: int, args: list[str], **params) -> Job:
    out = work / f"{name}.csv"
    return Job(name, out, argv=args + ["--seed", str(seed), "--out", str(out)], params=params)


def _write_measures(path: Path, rng: random.Random, count: int, max_segments: int) -> None:
    """Piecewise-constant densities on dyadic breakpoints, one measure per line (b0 d0 b1 ... bm)."""
    lines = []
    for _ in range(count):
        segments = rng.randint(1, max_segments)
        cuts = [0] + sorted(rng.sample(range(1, 64), segments - 1)) + [64]
        weights = [rng.uniform(0.05, 1.0) for _ in range(segments)]
        total = sum(weights)
        tokens = []
        for j in range(segments):
            width = (cuts[j + 1] - cuts[j]) / 64
            tokens += [repr(cuts[j] / 64), repr(weights[j] / total / width)]
        tokens.append("1.0")
        lines.append(" ".join(tokens))
    path.write_text("\n".join(lines) + "\n")


def _cake(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    measures = work / "measures.txt"
    _write_measures(measures, rng, count=8, max_segments=6)
    jobs = [
        _cli_job("cake-uniform", work, seed, ["cake", "--n", "4", "--samples", "100000"], n=4, samples=100_000),
        _cli_job(
            "cake-measures", work, seed, ["cake", "--measures", str(measures), "--samples", "50000"],
            n=8, samples=50_000,
        ),
    ]
    return Workload("cake-mc", seed, jobs, items=150_000, item_name="mc_runs_per_s")


def _verify(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    prorata = f"{rng.randint(5, 50) / 10},{rng.randint(5, 50) / 10}"  # 0.1 grid on [0, R/c = 10]
    cournot = f"{rng.randint(5, 95) / 100}"  # 0.01 grid on [0, beta = 1]
    jobs = [
        _cli_job(
            "verify-prorata", work, seed,
            ["verify", "--game", "prorata", "--grid-step", "0.1", "--max-identities", "3", "--foreign", prorata],
            verdict="proof", multisets=multiset_count(100, 3),
        ),
        _cli_job(
            "verify-cournot", work, seed,
            ["verify", "--game", "cournot", "--grid-step", "0.01", "--max-identities", "3", "--foreign", cournot],
            verdict="proof", multisets=multiset_count(100, 3),
        ),
        _cli_job(
            "verify-headcount", work, seed,
            ["verify", "--game", "headcount", "--foreign", "1,1,1", "--max-identities", "4"],
            verdict="counterexample", multisets=multiset_count(1, 4), R=10.0, foreign=3,
        ),
    ]
    certified = sum(job.params["multisets"] for job in jobs if job.params["verdict"] == "proof")
    return Workload("verify-grid", seed, jobs, items=certified, item_name="multisets_per_s")


def _ring(seed: int, work: Path) -> Workload:
    jobs = [
        _cli_job(
            f"ring-{dist}", work, seed,
            ["ring", "--dist", dist, "--n", "3", "--theta-grid", "21", "--samples", "100000"],
            dist=dist, n=3, samples=100_000,
        )
        for dist in RING_DISTS
    ]
    return Workload("ring-search", seed, jobs, items=21 * len(jobs), item_name="ring_configs_per_s")


def _ic_table_job(work: Path, bids: list[tuple[str, int, float, float]]) -> Job:
    out = work / "ic-table.csv"

    def run() -> None:
        from sybilgames.ring import DISTRIBUTIONS, constant_share_config, ring_transfer

        dists = {name: DISTRIBUTIONS[name]() for name in RING_DISTS}
        lines = [f"# table=ic-transfer bids={len(bids)}", "dist,n,theta,v,transfer"]
        for dist, n, theta, v in bids:
            t = ring_transfer(v, constant_share_config(theta, n), dists[dist])
            lines.append(f"{dist},{n},{theta!r},{v!r},{t!r}")
        out.write_text("\n".join(lines) + "\n")

    return Job("ic-table", out, call=run, params=dict(rows=len(bids)))


def _tables(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    # R rescales every payoff but not the equilibrium search, so the work is seed-free.
    sweeps = [(rng.randint(4, 40) / 2, 8), (rng.randint(4, 40) / 2, 12)]
    jobs = []
    for i, (R, n_max) in enumerate(sweeps):
        common = ["--R", repr(R), "--n-max", str(n_max)]
        jobs.append(_cli_job(f"rdm-{i}", work, seed, ["rdm"] + common, R=R, rows=n_max))
        jobs.append(_cli_job(f"fig1-{i}", work, seed, ["fig", "--which", "fig1"] + common, R=R, rows=n_max))
    jobs.append(_cli_job("fig2", work, seed, ["fig", "--which", "fig2"], rows=12))
    jobs.append(_cli_job("poa", work, seed, ["poa", "--grid-step", "0.001"], rows=9))
    for inst in ("cournot", "cfmm", "exp"):
        jobs.append(_cli_job(f"commit-{inst}", work, seed, ["commit", "--instance", inst], rows=10))
    jobs.append(_cli_job("commit-trivial", work, seed, ["commit", "--instance", "trivial", "--c", "1"], rows=10))
    bids = [
        (dist, n, theta, rng.uniform(0.01, 1.0))
        for dist in RING_DISTS
        for n in IC_NS
        for theta in IC_THETAS
        for _ in range(IC_BIDS_PER_CONFIG)
    ]
    jobs.append(_ic_table_job(work, bids))
    rows = sum(job.params["rows"] for job in jobs)
    return Workload("tables", seed, jobs, items=rows, item_name="table_rows_per_s")


_BUILDERS = {"cake-mc": _cake, "verify-grid": _verify, "ring-search": _ring, "tables": _tables}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` into ``work`` and return its job list."""
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seed, work)
