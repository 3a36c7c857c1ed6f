"""Outside-in layer tracing: wraps the package's public functions from outside it.

Every public module-level function of the traced modules, plus the methods the
per-layer metrics name, is replaced by a wrapper that records a span (name,
start, end, parent span, job id).  Names bound by ``from x import f`` are
replaced in every module that holds them, so calls through ``cli``, ``ring``,
``equilibrium``, ``rdm`` and ``commitment`` are seen too.  The wrappers also
count the callback evaluations of the numeric kernels, scalar spline
evaluations and numpy bit-generator constructions.  Spans stay in memory, in
flat arrays, until ``save`` writes them out.

Installing the tracer rebinds module globals for the rest of the process, so a
benchmark run installs it only for its final, traced passes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "core", "cake", "ring", "numerics", "equilibrium", "rdm", "commitment")
METHODS = (
    ("ring", "RingModel", "payoff"),
    ("ring", "RingModel", "expected_profit"),
    ("ring", "ValueDistribution", "sample"),
)
KERNELS = ("numerics.adaptive_simpson", "numerics.bisect_root", "numerics.grid_argmax")  # f is argument 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.nested = array("b")  # 1 when a span of the same name was already open
        self._stack: list[int] = []
        self._open = Counter()
        self.counts = Counter()
        self.job_id = -1
        self._pass_first = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _layer(self) -> str:
        return self.names[self.name[self._stack[-1]]].split(".")[0] if self._stack else "bench"

    def wrap(self, qualname: str, fn):
        nid = self._id(qualname)
        kernel = qualname in KERNELS
        evals_key = qualname + ".f_evals"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kernel:
                f = args[0]

                def counted(x):
                    self.counts[self.job_id, evals_key] += 1
                    return f(x)

                args = (counted,) + args[1:]
            idx = len(self.start)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.name.append(nid)
            self.job.append(self.job_id)
            self.nested.append(self._open[nid] > 0)
            self.end.append(0.0)
            self._open[nid] += 1
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
                self._open[nid] -= 1

        return traced

    def _counting(self, key: str, fn, per_layer: bool):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[self.job_id, f"{self._layer()}.{key}" if per_layer else key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Rebind the package's public functions, methods and counted externals to traced wrappers."""
        from scipy.interpolate import CubicSpline

        modules = {layer: sys.modules[f"sybilgames.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "sybilgames"]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", getattr(cls, attr)))
        CubicSpline.__call__ = self._counting("ring.spline_evals", CubicSpline.__call__, per_layer=False)
        np.random.PCG64 = self._counting("bitgen_constructions", np.random.PCG64, per_layer=True)

    def begin_pass(self) -> None:
        self._pass_first = len(self.start)
        self.counts.clear()

    def end_pass(self) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
        """Per-layer totals of the pass just run, and the same totals per job index."""
        lo = self._pass_first
        # copies: a live view would stop the arrays from growing in the next pass
        name = np.array(self.name[lo:], dtype=np.int32)
        parent = np.array(self.parent[lo:], dtype=np.int64) - lo
        job = np.array(self.job[lo:], dtype=np.int32)
        nested = np.array(self.nested[lo:], dtype=bool)
        dur = np.array(self.end[lo:]) - np.array(self.start[lo:])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        selfdur = dur - child
        k = len(self.names)
        totals = _sums(name, dur, selfdur, nested, k, self.names)
        per_job = {}
        for j in np.unique(job):
            sel = job == j
            per_job[int(j)] = _sums(name[sel], dur[sel], selfdur[sel], nested[sel], k, self.names)
        for (j, key), count in self.counts.items():
            totals[key] = totals.get(key, 0) + count
            per_job.setdefault(j, {})[key] = count
        return totals, per_job

    def save(self, path: Path) -> None:
        """Write every recorded span (name table plus flat columns) as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job, dtype=np.int32),
        )


def _sums(name, dur, selfdur, nested, k, names) -> dict[str, float]:
    calls = np.bincount(name, minlength=k)
    busy = np.bincount(name[~nested], weights=dur[~nested], minlength=k)
    own = np.bincount(name, weights=selfdur, minlength=k)
    out: dict[str, float] = {}
    for i, qualname in enumerate(names):
        if calls[i]:
            out[qualname + ".calls"] = int(calls[i])
            out[qualname + ".busy_s"] = float(busy[i])
            out[qualname + ".self_s"] = float(own[i])
    return out
