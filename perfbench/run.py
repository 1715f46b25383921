"""Benchmark of sqcavity's steady-state sweeps through `sqcavity.cli.main`.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from anywhere; the checkout is the directory above this file. This one
process is a closed-loop load generator: it draws a workload's config from
the seed, writes it to a file and starts a fresh `child.py` process
(`PYTHONPATH=src`) for every measurement, one at a time. Only the config
file reaches the program.

With `--trace 0` a run times the set-up of several fresh interpreters, then
runs the workload `Workload.calls` times or more, until the next call would
end after `--seconds`. It reports the median of each end-to-end metric.
With `--trace 1` it runs the workload once untraced and once traced, and
reports per-layer metrics from the spans. Every output is checked against
closed forms after its timed call, and the outputs of all calls in a run
must be byte-identical. The last line of standard output is one JSON
object: `{"correct", "attempted", "failed", "metrics"}`, where attempted and
failed count sweep points.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import checks
from tracer import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
RUN_BUDGET_S = 170.0  # each run must end within 180 s

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "solvers.lu_s": "s",
    "solvers.lu_unknowns": "count",
    "solvers.lu_nnz": "count",
    "solvers.steady_state_s": "s",
    "solvers.validate_s": "s",
    "liouvillian.build_s": "s",
    "liouvillian.calls": "count",
    "liouvillian.nnz": "count",
    "operators.lift_calls": "count",
    "observables.time_s": "s",
    "observables.moments_calls": "count",
    "observables.wigner_evals": "count",
    "sweep.self_s": "s",
    "sweep.points": "count",
    "sweep.concurrency": "ratio",
    "trace.overhead_s": "s",
}
# Printed and written to trace.json, but left out of the result line: each
# is exactly 0 on the workloads that never call the layer.
PER_LAYER_PRINTED = {"operators.lift_s": "s", "observables.moments_s": "s",
                     "observables.wigner_s": "s"}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    atom: bool
    cutoff: int
    points: int
    r_range: tuple[float, float]
    threads: int = 1
    calls: int = 2  # fewest `cli.main` calls per run; the 2-thread sweep is noisiest
    guard: int | None = None
    grid: int = 101
    extent: float = 5.0
    bogoliubov: bool = False


# Why each workload is here: see perfbench/README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("sweep_atom", "moments_sweep", atom=True, cutoff=60, points=6,
                 r_range=(0.1, 1.0), threads=2, calls=3, bogoliubov=True),
        Workload("point_atom_c150", "moments_sweep", atom=True, cutoff=150, points=1,
                 r_range=(1.15, 1.25), guard=8),
        Workload("sweep_empty", "moments_sweep", atom=False, cutoff=90, points=41,
                 r_range=(0.0, 1.0)),
        Workload("wigner_empty", "wigner", atom=False, cutoff=90, points=2,
                 r_range=(0.4, 1.0)),
    )
}
PROBES = 4  # set-up samples per run, on top of one per workload call


def smoke(w: Workload) -> Workload:
    """Tiny version of a workload: same code path, seconds in total. The r
    range and the Wigner extent shrink with the cutoff, so that the state
    and the displaced parity stay resolved and the checks still apply."""
    lo, hi = w.r_range
    return replace(w, cutoff=12, guard=None, points=min(w.points, 2), grid=5, extent=2.0,
                   r_range=(lo / 20, hi / 20))


def make_config(w: Workload, seed: int, out: str) -> dict:
    """The program's whole input, drawn from the seed: sorted, distinct r values."""
    rng = random.Random(f"{w.name}/{seed}")
    lo, hi = (round(x * 1e6) for x in w.r_range)
    r_values = sorted(k / 1e6 for k in rng.sample(range(lo, hi + 1), w.points))
    config = {"mode": w.mode, "r_values": r_values, "atom_present": w.atom,
              "g0": 15.0, "gamma": 1.0, "fock_cutoff": w.cutoff, "epsilon": 1e-8,
              "wigner_extent": w.extent, "wigner_points": w.grid, "output_path": out}
    if w.guard is not None:
        config["guard"] = w.guard
    return config


def config_text(config: dict) -> str:
    def fmt(value):
        if isinstance(value, list):
            return ",".join(repr(v) for v in value)
        if isinstance(value, bool):
            return str(value).lower()
        return str(value)

    return "".join(f"{key} = {fmt(value)}\n" for key, value in config.items())


def output_digest(out: Path) -> str | None:
    paths = sorted(out.iterdir()) if out.is_dir() else [out]
    if not all(p.is_file() for p in paths) or not paths:
        return None
    digest = hashlib.sha256()
    for p in paths:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Run:
    """One benchmark run of one workload: its work directory, its child
    processes, the checks on their outputs and the points they failed."""

    def __init__(self, w: Workload, seed: int, smoke_mode: bool, deadline: float):
        self.w = w
        self.seed = seed
        self.deadline = deadline
        tag = "-smoke" if smoke_mode else ""
        self.workdir = ROOT / ".perfbench_runs" / f"{w.name}-seed{seed}{tag}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.out = self.workdir / ("wigner" if w.mode == "wigner" else "out.csv")
        self.config = make_config(w, seed, str(self.out.relative_to(ROOT)))
        self.config_path = self.workdir / "config.cfg"
        self.config_path.write_text(config_text(self.config))
        self.env = dict(os.environ, PYTHONPATH="src", SIM_THREADS=str(w.threads))
        self.failures: list[str] = []
        self.attempted = self.failed = 0
        self.digest = None
        self.calls = 0

    def child(self, mode: str) -> dict | None:
        """Start one workload process and wait for it; None if it failed."""
        self.calls += 1
        result_path = self.workdir / f"{mode}-{self.calls}.json"
        argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), mode,
                str(self.config_path.relative_to(ROOT)), str(result_path)]
        if mode == "trace" and self.w.bogoliubov:
            argv.append("--bogoliubov")
        try:
            done = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.failures.append(f"{mode} process timed out")
            return None
        if done.returncode != 0 or not result_path.is_file():
            tail = done.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{mode} process exited {done.returncode}: {tail[0]}")
            return None
        return json.loads(result_path.read_text())

    def call(self, mode: str) -> dict | None:
        """One `cli.main` call on the workload, with its output checked
        outside the timed span; its points count as failed on any error."""
        self.attempted += self.w.points
        remove(self.out)
        result = self.child(mode)
        errors = []
        if result is not None:
            errors += result.get("check_failures", [])
            if result["exit_code"] != 0:
                errors.append(f"cli.main returned {result['exit_code']}")
            else:
                errors += self.check(output_digest(self.out))
        self.failures += errors
        if result is None or errors:
            self.failed += self.w.points
        return result

    def check(self, digest: str | None) -> list[str]:
        """The first output of a run is checked; later ones must equal it."""
        if digest is None:
            return ["no output written"]
        if self.digest is not None:
            return [] if digest == self.digest else ["output differs from the first call"]
        self.digest = digest
        try:
            return checks.check_output(self.out, self.config)
        except (ValueError, IndexError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]

    def report(self, metrics: dict, units: dict, extra: dict) -> dict:
        record = {
            "workload": self.w.name, "seed": self.seed, "config": self.config,
            "commit": git_commit(), "attempted": self.attempted, "failed": self.failed,
            "failures": self.failures, "metrics": metrics, **extra,
        }
        (self.workdir / "result.json").write_text(json.dumps(record, indent=1))
        correct = not self.failures
        if correct:
            remove(self.out)
        return {"correct": correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in units.items() if name in metrics}}


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def measure(run: Run, seconds: float, probes: int) -> dict:
    """End-to-end metrics, tracing off."""
    setup, environment = [], None

    def probe(count):
        nonlocal environment
        for _ in range(count):
            result = run.child("probe")
            if result is not None:
                environment = result["environment"]
                setup.append(result["setup_s"])

    run.child("probe")  # fills the file and bytecode caches; not counted
    # half the set-up probes go before the workload calls and half after,
    # so that a slow phase of a shared machine is not all on one side
    probe(probes // 2)
    samples = {"run_s": [], "peak_rss_mb": []}
    walls = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        result = run.call("run")
        walls.append(time.monotonic() - t0)
        if result is not None:
            setup.append(result["setup_s"])
            samples["run_s"].append(result["run_s"])
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
        elapsed = time.monotonic() - start
        estimate = statistics.median(walls)
        if len(walls) >= run.w.calls and (elapsed + estimate > seconds
                                or time.monotonic() + estimate > run.deadline):
            break
    probe(probes - probes // 2)
    samples["setup_s"] = setup
    stats = {name: summary(values) for name, values in samples.items() if values}
    for name, unit in END_TO_END.items():
        if name in stats:
            s = stats[name]
            print(f"  {name:<12} median {s['median']:.4f} {unit}  max {s['max']:.4f} {unit}"
                  f"  n={s['n']}")
    points = run.attempted
    print(f"  failed_frac  {run.failed / points:.4f}  ({run.failed} of {points} points)")
    print(f"  environment  {json.dumps(environment)}")
    metrics = {name: s["median"] for name, s in stats.items()}
    return run.report(metrics, END_TO_END, {"environment": environment, "samples": samples})


def trace(run: Run) -> dict:
    """Per-layer metrics from one traced call, beside one untraced call."""
    plain = run.call("run")
    traced = run.call("trace")
    if traced is None or traced["exit_code"] != 0:
        return run.report({}, PER_LAYER, {})
    derived = layer_metrics(traced["spans"])
    metrics = derived["metrics"]
    if plain is not None:
        metrics["trace.overhead_s"] = metrics["run_s"] - plain["run_s"]
    (run.workdir / "trace.json").write_text(json.dumps(
        {"request": f"{run.w.name}/seed{run.seed}", "layers": derived["layers"],
         "metrics": metrics, "spans": traced["spans"]}, indent=1))
    for name, unit in {**PER_LAYER, **PER_LAYER_PRINTED}.items():
        if name in metrics:
            value = metrics[name]
            print(f"  {name:<26} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    for layer, entry in sorted(derived["layers"].items()):
        print(f"  layer {layer:<12} calls {entry['calls']:>6}  busy {entry['busy_s']:.4f} s"
              f"  wall {entry['wall_s']:.4f} s")
    print(f"  environment  {json.dumps(traced['environment'])}")
    return run.report(metrics, PER_LAYER, {"environment": traced["environment"],
                                           "layers": derived["layers"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default 20, or 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sqcavity" / "cli.py").is_file():
        print(f"no sqcavity sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 20.0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        w = smoke(WORKLOADS[name]) if args.smoke else WORKLOADS[name]
        run = Run(w, args.seed, args.smoke, time.monotonic() + RUN_BUDGET_S)
        print(f"{name}  seed {args.seed}  trace {args.trace}  r = {run.config['r_values']}")
        if args.trace:
            line = trace(run)
        else:
            line = measure(run, args.seconds, 1 if args.smoke else PROBES)
        for failure in run.failures:
            print(f"  FAILED: {failure}")
        print(json.dumps(line), flush=True)
        correct = correct and line["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
