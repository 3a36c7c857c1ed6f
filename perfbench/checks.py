"""Output checks that recompute expected values without the package's own kernels.

Each check reads one job's CSV artifact and returns a list of failure messages
(empty when the artifact is correct).  Values the checks derive are recomputed
here from closed forms or with plain numpy grids, never through ``sybilgames``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from workloads import Job, Workload


def read_artifact(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    """Config comment (as key=value pairs), header and rows of a CSV artifact."""
    with open(path, newline="") as fh:
        config = dict(tok.split("=", 1) for tok in fh.readline()[2:].split())
        reader = csv.reader(fh)
        header = next(reader)
        return config, header, list(reader)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# --- cake-mc -------------------------------------------------------------------


def check_cake(job: Job) -> list[str]:
    n, samples = job.params["n"], job.params["samples"]
    rows = kept = bad_values = 0
    with open(job.out, newline="") as fh:  # streamed: 400k+ rows
        fh.readline()
        reader = csv.reader(fh)
        next(reader)
        for run, identity, value, coin in reader:
            rows += 1
            v = float(value)
            if coin == "1":
                kept += identity == "0"
                bad_values += abs(v - 1.0 / n) > 1e-12
            else:
                bad_values += v != 0.0
    errors = []
    if rows != n * samples:
        errors.append(f"{rows} rows, expected n*samples = {n * samples}")
    p = n / 2.0 ** (n - 1)
    se = math.sqrt(p * (1.0 - p) / samples)
    if abs(kept / samples - p) > 4.0 * se:
        errors.append(f"keep rate {kept / samples} is more than 4 se ({se:.3g}) from n/2^(n-1) = {p}")
    if bad_values:
        errors.append(f"{bad_values} rows whose value is not 1/n (kept) or 0 (burned)")
    return errors


# --- verify-grid ---------------------------------------------------------------


def check_verify(job: Job) -> list[str]:
    _, _, rows = read_artifact(job.out)
    if len(rows) != 1:
        return [f"{len(rows)} verdict rows, expected 1"]
    _, _, verdict, mine, gain = rows[0]
    errors = []
    if verdict != job.params["verdict"]:
        errors.append(f"verdict {verdict}, expected {job.params['verdict']}")
    elif verdict == "counterexample":
        # headcount: k unit reports against y foreign ones earn R k/(k+y); one report earns R/(1+y)
        R, y = job.params["R"], job.params["foreign"]
        k = len(mine.split("|"))
        expected = R * k / (k + y) - R / (1 + y)
        if abs(float(gain) - expected) > 1e-12:
            errors.append(f"gain {gain} != R k/(k+y) - R/(1+y) = {expected!r}")
    return errors


# --- ring-search ---------------------------------------------------------------

_GRID = np.linspace(0.0, 1.0, 200_001)
_DENSITIES = {  # (cdf, pdf) on [0, 1], written out from the closed forms
    "uniform": (lambda x: x, lambda x: np.ones_like(x)),
    "beta22": (lambda x: x * x * (3.0 - 2.0 * x), lambda x: 6.0 * x * (1.0 - x)),
    "truncexp": (
        lambda x: (1.0 - np.exp(-x)) / (1.0 - math.exp(-1.0)),
        lambda x: np.exp(-x) / (1.0 - math.exp(-1.0)),
    ),
}


def _trapezoid_cumulative(y: np.ndarray) -> np.ndarray:
    h = _GRID[1] - _GRID[0]
    return np.concatenate(([0.0], np.cumsum(0.5 * h * (y[1:] + y[:-1]))))


def theta_zero_moments(dist: str, n: int) -> tuple[float, float]:
    """Mean and standard deviation of a member's theta = 0 payout v(1) - E[v(2) | v(1)].

    The mean is the baseline E[v(1) - v(2)]; both come from trapezoid sums on a
    200,000-cell grid.
    """
    cdf, pdf = _DENSITIES[dist]
    F, f = cdf(_GRID), pdf(_GRID)
    partial = _trapezoid_cumulative((n - 1) * _GRID * F ** (n - 2) * f)
    with np.errstate(divide="ignore", invalid="ignore"):
        second = np.where(F > 0.0, partial / F ** (n - 1), 0.0)
    payout = _GRID - second
    top_density = n * F ** (n - 1) * f
    mean = _trapezoid_cumulative(payout * top_density)[-1]
    second_moment = _trapezoid_cumulative(payout**2 * top_density)[-1]
    return float(mean), float(math.sqrt(second_moment - mean * mean))


def check_ring(job: Job) -> list[str]:
    config, _, rows = read_artifact(job.out)
    dist, n, samples = job.params["dist"], job.params["n"], job.params["samples"]
    by_theta = {float(r[0]): r for r in rows}
    errors = []
    best = by_theta.get(float(config["best_theta"]))
    if best is None or best[1] != "true" or best[2] != "true":
        errors.append(f"best theta {config['best_theta']} does not pass both checks")
    baseline = float(rows[0][4])
    mean, sd = theta_zero_moments(dist, n)
    if dist == "uniform" and n == 3 and abs(baseline - 0.25) > 1e-9:
        errors.append(f"uniform n=3 baseline {baseline} != 1/4")
    if abs(baseline - mean) > 1e-6:
        errors.append(f"baseline {baseline} differs from grid quadrature {mean} by more than 1e-6")
    welfare0 = float(by_theta[0.0][3])
    se = sd / math.sqrt(samples)
    if abs(welfare0 - baseline) > 4.0 * se:
        errors.append(f"theta=0 welfare {welfare0} is more than 4 se ({se:.3g}) from baseline {baseline}")
    return errors


# --- tables --------------------------------------------------------------------


def check_rdm(job: Job) -> list[str]:
    _, _, rows = read_artifact(job.out)
    R = job.params["R"]
    bad = [r[0] for r in rows if not _close(float(r[1]), int(r[0]) * R / 2.0 ** (int(r[0]) - 1), 1e-12)]
    return [f"r_max != nR/2^(n-1) at n = {','.join(bad)}"] if bad else []


def check_fig1(job: Job, rdm: Job) -> list[str]:
    _, _, rows = read_artifact(job.out)
    _, _, rdm_rows = read_artifact(rdm.out)
    same = len(rows) == len(rdm_rows) and all(
        all(_close(float(a), float(b), 1e-12) for a, b in zip(r, s)) for r, s in zip(rows, rdm_rows)
    )
    return [] if same else [f"fig1 disagrees with {rdm.name}"]


def check_poa(job: Job) -> list[str]:
    _, _, rows = read_artifact(job.out)
    bad = [r[0] for r in rows if not float(r[3]) >= 1.0]
    return [f"price of anarchy below 1 at n = {','.join(bad)}"] if bad else []


def check_ic_table(job: Job) -> list[str]:
    _, _, rows = read_artifact(job.out)
    bad = [r for r in rows if not 0.0 <= float(r[4]) <= float(r[3])]
    return [f"{len(bad)} transfers outside [0, bid]"] if bad else []


def ic_quad_error(job: Job) -> float:
    """Largest |ring_transfer - (n-1) v/(n+theta)| over the uniform bids (the closed form for U[0,1])."""
    _, _, rows = read_artifact(job.out)
    return max(
        abs(float(t) - (int(n) - 1) * float(v) / (int(n) + float(theta)))
        for dist, n, theta, v, t in rows
        if dist == "uniform"
    )


def check_job(workload: Workload, job: Job) -> list[str]:
    """Failure messages for one job's artifact."""
    if workload.name == "cake-mc":
        return check_cake(job)
    if workload.name == "verify-grid":
        return check_verify(job)
    if workload.name == "ring-search":
        return check_ring(job)
    kind = job.name.split("-")[0]
    if kind == "rdm":
        return check_rdm(job)
    if kind == "fig1":
        rdm = next(j for j in workload.jobs if j.name == "rdm-" + job.name.split("-")[1])
        return check_fig1(job, rdm)
    if kind == "poa":
        return check_poa(job)
    if kind == "ic":
        return check_ic_table(job)
    return []  # fig2 and commit tables: exit code only
