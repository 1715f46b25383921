"""Spans around the calls into sqcavity's layers, recorded from outside `src/`.

`Tracer.install()` wraps the public functions listed in `TARGETS` and
rebinds every reference to them inside the loaded `sqcavity` modules, so
calls made through `from .x import f` aliases are traced as well. Spans are
kept in memory and written out once the run ends; `layer_metrics` derives
the per-layer figures from them and needs nothing but the standard library.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time

# layer -> public functions whose calls are timed
TARGETS = {
    "cli": ("main", "resolve_config"),
    "sweep": ("run", "load_config", "solve_point"),
    "liouvillian": ("build_liouvillian", "build_bogoliubov_liouvillian"),
    "operators": ("lift",),
    "solvers": ("steady_state", "make_density_matrix", "check_truncation", "spsolve"),
    "observables": ("photon_distribution", "mean_photon_number", "pair_amplitude",
                    "atom_excited_population", "purity", "partial_trace_atom", "wigner"),
}

MOMENTS = frozenset("observables." + name for name in TARGETS["observables"] if name != "wigner")


def _counts(name, args, result):
    """Work done by one call, as counts attached to its span."""
    if name == "solvers.spsolve":
        return {"unknowns": args[0].shape[0], "nnz": int(args[0].nnz)}
    if name == "liouvillian.build_liouvillian":
        return {"nnz": int(result.matrix.nnz)}
    if name == "observables.wigner":
        return {"evals": len(args[1]) * len(args[2])}
    return None


class Tracer:
    """In-memory span recorder for one workload process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[dict]] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._observers: dict[str, object] = {}

    def observe(self, name: str, callback) -> None:
        """Call `callback(args, kwargs, result)` after each traced call of
        `name` returns; the callback runs after the span has closed."""
        self._observers[name] = callback

    def _parent(self) -> dict | None:
        stack = self._stacks.get(threading.get_ident())
        if stack:
            return stack[-1]
        # a pool thread starts with an empty stack: its work belongs to the
        # span the main thread is blocked in while it waits for the pool
        main = self._stacks.get(threading.main_thread().ident)
        return main[-1] if main else None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._parent()
            span = {"id": next(self._ids), "name": name,
                    "parent": parent["id"] if parent else None,
                    "thread": threading.get_ident(), "start": time.perf_counter(), "end": None}
            stack = self._stacks.setdefault(span["thread"], [])
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            counts = _counts(name, args, result)
            if counts:
                span.update(counts)
            if name in self._observers:
                self._observers[name](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "sqcavity" or key.startswith("sqcavity.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"sqcavity.{layer}"]
            for name in names:
                original = getattr(home, name)
                traced = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)
                            self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _covered(span, children) -> float:
    return _union((max(c["start"], span["start"]), min(c["end"], span["end"]))
                  for c in children)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures of one traced `cli.main` call.

    Self time is a span's duration minus the part of it that its child
    spans cover. Layer busy time sums self time over all threads; layer
    wall time is the union of the layer's span intervals.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def self_time(s):
        return dur(s) - _covered(s, children.get(s["id"], ()))

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] in by_id else None

    def has_ancestor(s, names):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] in names:
                return True
        return False

    def median(values):
        return statistics.median_low(values) if values else 0

    root = named("cli.main")[0]
    run = named("sweep.run")[0]
    point_spans = children.get(run["id"], [])
    point_wall = (max(s["end"] for s in point_spans) - min(s["start"] for s in point_spans)
                  if point_spans else 0.0)
    lu = named("solvers.spsolve")
    builds = named("liouvillian.build_liouvillian")
    lifts = [s for s in named("operators.lift")
             if has_ancestor(s, {"liouvillian.build_liouvillian"})]
    moments = [s for s in spans if s["name"] in MOMENTS and not has_ancestor(s, MOMENTS)]
    moments_s = sum(map(dur, moments))
    wigner = named("observables.wigner")
    wigner_s = sum(map(dur, wigner))

    metrics = {
        "run_s": dur(root),
        "solvers.lu_s": sum(map(dur, lu)),
        "solvers.lu_unknowns": median([s["unknowns"] for s in lu]),
        "solvers.lu_nnz": median([s["nnz"] for s in lu]),
        "solvers.steady_state_s": sum(map(self_time, named("solvers.steady_state"))),
        "solvers.validate_s": sum(dur(s) for s in named("solvers.make_density_matrix")
                                  if parent_name(s) == "solvers.steady_state"),
        "liouvillian.build_s": sum(map(dur, builds)),
        "liouvillian.calls": len(builds),
        "liouvillian.nnz": median([s["nnz"] for s in builds]),
        "operators.lift_s": sum(map(dur, lifts)),
        "operators.lift_calls": len(lifts),
        "observables.time_s": moments_s + wigner_s,
        "observables.moments_s": moments_s,
        "observables.moments_calls": len(moments),
        "observables.wigner_s": wigner_s,
        "observables.wigner_evals": sum(s["evals"] for s in wigner),
        "sweep.self_s": self_time(run),
        "sweep.points": len(named("sweep.solve_point")),
        "sweep.concurrency": sum(map(dur, point_spans)) / point_wall if point_wall else 0.0,
    }
    layers = {}
    for s in spans:
        entry = layers.setdefault(s["name"].split(".")[0],
                                  {"calls": 0, "busy_s": 0.0, "intervals": []})
        entry["calls"] += 1
        entry["busy_s"] += self_time(s)
        entry["intervals"].append((s["start"], s["end"]))
    for entry in layers.values():
        entry["wall_s"] = _union(entry.pop("intervals"))
    return {"metrics": metrics, "layers": layers}
