"""Benchmark of the sybilgames command line and library, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout root holding ``src/sybilgames``; it uses that source tree
and writes only under ``.perfbench_work/`` there.  Workloads: cake-mc,
verify-grid, ring-search, tables (perfbench/README.md says why each exists and
which layers it loads).

The load is a closed loop with one client in one thread: each job starts when
the previous one ends, and passes over the workload's fixed job list repeat
while the next pass still fits in ``--seconds`` (at least two passes).  After
every pass, outside the timed region, each CSV artifact is hashed and compared
with the first pass; the first pass's artifacts (and any whose bytes changed)
are checked against values recomputed without the package's kernels.

Times are corrected for the host's speed: a fixed pure-Python reference loop
runs before the first job and after every job, and each job time is divided by
its pass's median reference time and reported at a nominal speed (see
``at_nominal_speed``).  Raw medians are printed next to the corrected ones.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the time
on untraced passes and half on traced ones and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")  # relative, so artifact bytes do not depend on the checkout's location
SETUP_PROBES = 4
TRACE_SETUP_PROBES = 3
REFERENCE_ITERATIONS = 75_000
REFERENCE_NOMINAL_S = 0.010  # the reference loop on an idle 2.1 GHz Xeon core takes about this long
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def reference_time() -> float:
    """Seconds a fixed pure-Python loop takes right now: a gauge of the host's current speed."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(REFERENCE_ITERATIONS):
        acc += (i * 0.5) / (i + 1.0)
        table[i & 255] = acc
    return time.perf_counter() - t0


def at_nominal_speed(timed: list[tuple[float, float]]) -> list[float]:
    """Scale each (time t, reference time r measured around it) to t * nominal / r.

    On a shared machine the same job can take 1.7 s or 3 s depending on what
    other tenants do, in spells that last from seconds to minutes.  The
    reference loop slows down in the same spells, so the scaled time is what t
    would take on a host where the loop takes its nominal time.  A program
    change moves t and not the loop, so it still shows in full.
    """
    return [t * REFERENCE_NOMINAL_S / r for t, r in timed]


def probe_setup(workload: str, seed: int, count: int) -> list[dict]:
    """Spawn ``count`` fresh interpreters; each reports its set-up phases and its raw ``setup_s``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    work = WORK / "probe" / workload
    results = []
    for _ in range(count):
        r0 = reference_time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(seed), str(work)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {code}")
        phases = json.loads(line)
        phases["interpreter_s"] = ready - sum(phases.values())  # interpreter start-up before the first import
        phases["setup_s"] = (ready, 0.5 * (r0 + reference_time()))
        results.append(phases)
    return results


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Timings:
    """Job times of one phase of a run: per job, one (time, the pass's median reference time) per pass."""

    def __init__(self, jobs) -> None:
        self.jobs: dict[str, list[tuple[float, float]]] = {job.name: [] for job in jobs}
        self.totals: list[float] = []  # raw wall seconds of each whole pass
        self.layers: list[tuple] = []  # per traced pass: (per-layer totals, per-job totals)

    @property
    def pass_s(self) -> float:
        """One pass as the sum of each job's median time at nominal host speed."""
        return sum(statistics.median(at_nominal_speed(timed)) for timed in self.jobs.values())

    @property
    def raw_pass_s(self) -> float:
        return sum(statistics.median(t for t, _ in timed) for timed in self.jobs.values())

    @property
    def pass_totals(self) -> list[float]:
        """Each whole pass at nominal host speed."""
        return [sum(per_pass) for per_pass in zip(*(at_nominal_speed(timed) for timed in self.jobs.values()))]

    @property
    def reference_times(self) -> list[float]:
        return [r for _, r in next(iter(self.jobs.values()))]


class Runner:
    """Runs timed passes of one workload and keeps every outcome the report needs."""

    def __init__(self, workload, cli, check_job):
        self.wl = workload
        self.cli = cli
        self.check_job = check_job  # (workload, job) -> failure messages
        self.first_hash: dict[str, str] = {}
        self.check_errors: dict[str, list[str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.hash_changed: list[str] = []

    def _run_job(self, job):
        try:
            if job.argv is not None:
                code = self.cli.main(job.argv)
                return None if code == 0 else f"exit code {code}"
            job.call()
            return None
        except Exception as exc:  # a failing job is counted, not fatal
            return f"raised {exc!r}"

    def passes(self, budget: float, min_passes: int, tracer=None) -> Timings:
        """Run passes while the next one should end within ``budget`` seconds (at least ``min_passes``)."""
        timings = Timings(self.wl.jobs)
        start = time.perf_counter()
        while len(timings.totals) < min_passes or time.perf_counter() - start + timings.totals[-1] <= budget:
            if tracer is not None:
                tracer.begin_pass()
            outcome, elapsed = {}, {}
            t_pass = time.perf_counter()
            refs = [reference_time()]
            for i, job in enumerate(self.wl.jobs):
                if tracer is not None:
                    tracer.job_id = i
                t_job = time.perf_counter()
                outcome[job.name] = self._run_job(job)
                elapsed[job.name] = time.perf_counter() - t_job
                refs.append(reference_time())
            speed = statistics.median(refs)
            for name, t in elapsed.items():
                timings.jobs[name].append((t, speed))
            timings.totals.append(time.perf_counter() - t_pass)
            if tracer is not None:
                timings.layers.append(tracer.end_pass())
            self._verify_pass(outcome)
        return timings

    def _verify_pass(self, outcome: dict) -> None:
        """Outside the timed region: hash every artifact, check new bytes, count failures."""
        for job in self.wl.jobs:
            self.attempted += 1
            error = outcome[job.name]
            if error is None:
                digest = sha256(job.out)
                if job.name not in self.first_hash:
                    self.first_hash[job.name] = digest
                    self.check_errors[job.name] = self.check_job(self.wl, job)
                elif digest != self.first_hash[job.name]:
                    self.hash_changed.append(job.name)
                    error = "; ".join(self.check_job(self.wl, job)) or None
                else:
                    error = "; ".join(self.check_errors[job.name]) or None
            if error is not None:
                self.failures.append(f"{job.name}: {error}")


def median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d.get(key, 0) for d in dicts)


def layer_metrics(spec: list[dict], wl, untraced: Timings, traced: Timings, probes, quad_err):
    """Per-layer metric values: counts from the first traced pass, times as medians over traced passes."""
    totals = [t for t, _ in traced.layers]
    multisets = sum(job.params.get("multisets", 0) for job in wl.jobs)
    derived = {
        "cli.self_s": median_of(totals, "cli.main.self_s"),
        "core.evals_per_multiset": totals[0].get("core.sybil_payoff.calls", 0) / multisets if multisets else 0.0,
        "numerics.quad_err_max": quad_err,
        "trace.overhead_s": traced.pass_s - untraced.pass_s,
        "trace.spans_per_pass": sum(v for k, v in totals[0].items() if k.endswith(".calls")),
    }
    for phase in ("interpreter_s", "import_numpy_s", "import_scipy_interpolate_s", "import_sybilgames_s", "inputs_s"):
        derived["setup." + phase] = median_of(probes, phase)
    metrics = {}
    for m in spec:
        name = m["name"]
        if name in derived:
            value = derived[name]
        elif m["unit"] == "count":
            value = totals[0].get(name, 0)
        else:
            value = median_of(totals, name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def count_keys(totals: dict) -> dict:
    return {k: v for k, v in totals.items() if not k.endswith("_s")}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sybilgames" / "cli.py").is_file():
        print(f"no sybilgames source tree at {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in THREAD_VARIABLES:  # single-threaded numerics, here and in the set-up probes
        os.environ[var] = "1"
    import checks  # loads numpy, so only after the pinning

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    probes = probe_setup(args.workload, args.seed, TRACE_SETUP_PROBES if args.trace else SETUP_PROBES)

    sys.path.insert(0, str(ROOT / "src"))
    from sybilgames import cli

    wl = workloads.build(args.workload, args.seed, WORK / args.workload)
    runner = Runner(wl, cli, checks.check_job)
    print(f"workload {wl.name} seed {wl.seed} trace {args.trace}: {len(wl.jobs)} jobs, {wl.items} items per pass")

    if args.trace:
        untraced = runner.passes(args.seconds / 2, min_passes=1)
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        timings = runner.passes(args.seconds / 2, min_passes=2, tracer=tracer)
        tracer.save(WORK / f"spans-{wl.name}.npz")
        first = timings.layers[0]
        repeat = all(count_keys(t) == count_keys(first[0]) for t, _ in timings.layers[1:])
        if not repeat:
            runner.failures.append("trace: counts differ between traced passes")
        print(f"trace: {len(timings.totals)} traced passes, counts repeat exactly: {repeat}; "
              f"spans in {WORK}/spans-{wl.name}.npz; untraced pass_s {untraced.pass_s:.4f}")
        for i, job in enumerate(wl.jobs):
            per_job = first[1].get(i, {})
            shown = {k: v for k, v in sorted(per_job.items()) if not k.endswith("_s")}
            print(f"  job {job.name}: " + " ".join(f"{k}={v}" for k, v in shown.items()))
    else:
        timings = runner.passes(args.seconds, min_passes=2)

    quad_err = 0.0
    ic = [job for job in wl.jobs if job.name == "ic-table"]
    if ic:
        quad_err = checks.ic_quad_error(ic[0])
        print(f"quad_err_max {quad_err!r} (largest |ring_transfer - (n-1)v/(n+theta)| over uniform bids)")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    pass_s = timings.pass_s
    setup_raw = [p["setup_s"] for p in probes]
    setup_s = statistics.median(at_nominal_speed(setup_raw))
    items_per_s = wl.items / pass_s
    for job in wl.jobs:
        timed = timings.jobs[job.name]
        print(f"  job {job.name}: median {statistics.median(at_nominal_speed(timed)):.4f} s "
              f"(raw {statistics.median(t for t, _ in timed):.4f}) sha256 {runner.first_hash.get(job.name, '-')}")
    q1, _, q3 = statistics.quantiles(timings.pass_totals, n=4)
    print(f"pass_s {pass_s:.4f} (sum of job medians at nominal speed; raw {timings.raw_pass_s:.4f}); "
          f"whole passes q1 {q1:.4f} q3 {q3:.4f} over {len(timings.totals)} samples")
    print(f"{wl.item_name} {items_per_s:.6g} ({wl.items} items per pass / pass_s)")
    print(f"setup_s {setup_s:.4f} (raw {statistics.median(t for t, _ in setup_raw):.4f}) median over "
          f"{len(probes)} fresh interpreters; peak_rss_mb {peak_rss_mb:.1f}; reference loop median "
          f"{statistics.median(timings.reference_times) * 1e3:.2f} ms (nominal {REFERENCE_NOMINAL_S * 1e3:.0f} ms)")
    failed = len(runner.failures)
    print(f"fail_ratio {failed}/{runner.attempted} = {failed / runner.attempted:.4g}; "
          f"hash changed on rerun: {len(runner.hash_changed)} ({', '.join(sorted(set(runner.hash_changed))) or 'none'})")
    for failure in sorted(set(runner.failures)):
        print(f"  FAILED {failure}")

    if args.trace:
        metrics = layer_metrics(spec["per_layer"], wl, untraced, timings, probes, quad_err)
    else:
        values = {"pass_s": pass_s, "items_per_s": items_per_s, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
