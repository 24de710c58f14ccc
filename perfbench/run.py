"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6-paper --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One invocation measures one workload for ``--seconds`` seconds of wall
time, repeating whole replicas (one replica = one operation) and
reporting medians.  ``--trace 0`` reports the end-to-end metrics of
untraced replicas, with timings at the reference machine speed (see
``speed.py``); ``--trace 1`` runs one untraced replica and then
traced ones, and reports the per-layer split (see ``layers.py``).
``--workload all`` runs every workload, each in a fresh process.
``--record-references`` rewrites the ``references.json`` entries of
the chosen workload(s) for the given seeds.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported:
# the workloads are single-threaded closed loops.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"

#: (name, unit) of the end-to-end metrics, reported with ``--trace 0``
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ticks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _import_program() -> None:
    """Make ``repro`` (the program) and ``perfbench`` importable, or
    exit with an error when the checkout has no program sources."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        sys.exit(2)
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _environment() -> Dict[str, Any]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_references() -> Dict[str, Dict[str, Any]]:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


class Runner:
    """Runs replicas of one workload and counts failed operations."""

    def __init__(self, workload: str, seed: int) -> None:
        from perfbench.workloads import WORKLOADS

        self.workload = workload
        self.seed = seed
        self.fn = WORKLOADS[workload]
        self.reference = load_references().get(workload, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.first_fingerprint: Optional[Dict[str, Any]] = None

    def setup_sample(self):
        """Set the workload up without running it; returns the set-up
        sample, or None when it failed (a failed operation)."""
        gc.collect()
        try:
            return self.fn(self.seed, self.reference, setup_only=True)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None

    def attempt(self, tracer=None):
        """One operation; returns the replica, or None when it failed."""
        from perfbench import tracing

        self.attempted += 1
        # Start every replica from the same heap: garbage left by the
        # previous one would otherwise be collected, and counted, in
        # this one's timed region, and would raise the peak RSS with
        # the replica count.
        gc.collect()
        try:
            if tracer is None:
                replica = self.fn(self.seed, self.reference)
            else:
                with tracing.installed(tracer):
                    with tracer.section(tracing.ROOT):
                        replica = self.fn(
                            self.seed, self.reference, section=tracer.section
                        )
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        failures = list(replica.failures)
        if self.first_fingerprint is None:
            self.first_fingerprint = replica.fingerprint
        elif replica.fingerprint != self.first_fingerprint:
            label = "traced" if tracer is not None else "untraced"
            failures.append(f"{label} replica output differs from the first replica's")
        if failures:
            for failure in failures:
                print(f"perfbench: {self.workload} seed {self.seed}: {failure}",
                      file=sys.stderr)
            self.failed += 1
            return None
        return replica


def _timing(samples: List[float]) -> Dict[str, Any]:
    """Median, the tail percentile the sample count allows, and the count."""
    from perfbench import stats

    pct, value = stats.tail(samples)
    return {"median": stats.median(samples), "tail_pct": pct, "tail": value,
            "samples": len(samples)}


def _time_left(start: float, seconds: float, durations: List[float]) -> bool:
    """Start another replica only if a typical one still fits."""
    if not durations:
        return True
    typical = sorted(durations)[len(durations) // 2]
    return time.perf_counter() - start + typical <= seconds


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from perfbench import layers, stats
    from perfbench.speed import REFERENCE_S, SpeedProbe
    from perfbench.tracing import Tracer
    from perfbench.workloads import OUT_DIR, SETUP_REPEATS

    runner = Runner(workload, seed)
    start = time.perf_counter()
    setups = []
    durations: List[float] = []
    untraced = []
    traced = []
    # With tracing, untraced replicas (the overhead base and the
    # checkpoint figures) get the first third of the time.
    untraced_seconds = seconds / 3.0 if trace else seconds
    # End-to-end timings are put on the reference speed by the probe
    # (see speed.py); the traced run reports raw wall times.
    probe = SpeedProbe()
    with nullcontext() if trace else probe:
        while _time_left(start, untraced_seconds, durations):
            t0 = time.perf_counter()
            if not trace:
                # Set-up-only samples spread over the whole run, like
                # the replicas, so setup_s sees the same machine
                # conditions.
                for _ in range(SETUP_REPEATS[workload]):
                    sample = runner.setup_sample()
                    if sample is not None:
                        setups.append(sample)
            replica = runner.attempt()
            durations.append(time.perf_counter() - t0)
            if replica is not None:
                untraced.append(replica)
    if trace:
        base_run_s = stats.median([r.run_s for r in untraced]) if untraced else 0.0
        durations = []
        last_tracer = None
        while not durations or _time_left(start, seconds, durations):
            tracer = Tracer()
            t0 = time.perf_counter()
            replica = runner.attempt(tracer)
            durations.append(time.perf_counter() - t0)
            if replica is not None and untraced:
                traced.append(layers.traced_metrics(replica, tracer, base_run_s))
                last_tracer = tracer
        if last_tracer is not None:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
            path.write_text(json.dumps(last_tracer.to_dict()), encoding="utf-8")

    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        if traced:
            values = layers.median_metrics(traced)
            values.update(layers.checkpoint_metrics(untraced))
            for name, unit in layers.PER_LAYER:
                metrics[name] = {"value": values[name], "unit": unit}
    elif untraced:
        all_setups = setups + untraced
        setup_s = [probe.at_reference(r.setup_at, r.setup_at + r.setup_s)
                   for r in all_setups]
        run_s = [probe.at_reference(r.run_at, r.run_at + r.run_s) for r in untraced]
        values = {
            "setup_s": stats.median(setup_s),
            "run_s": stats.median(run_s),
            "ticks_per_s": stats.median([r.ticks / t for r, t in zip(untraced, run_s)]),
            "peak_rss_mb": _peak_rss_mb(),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    detail: Dict[str, Any] = {}
    if untraced:
        detail = {
            "ticks": untraced[0].ticks,
            **layers.checkpoint_metrics(untraced),
        }
        if not trace:
            detail.update({
                "setup_s": _timing(setup_s),
                "run_s": _timing(run_s),
                "run_s_samples": run_s,
                "wall_setup_s": _timing([r.setup_s for r in all_setups]),
                "wall_run_s": _timing([r.run_s for r in untraced]),
                "wall_run_s_samples": [r.run_s for r in untraced],
                "probe_s": {"median": probe.median(), "samples": len(probe.durations),
                            "reference": REFERENCE_S},
            })
    correct = runner.failed == 0 and bool(metrics)
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "detail": detail,
    }


def _print_table(workload: str, result: Dict[str, Any]) -> None:
    print(f"== {workload}: {result['attempted']} replicas attempted, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in result.get("detail", {}).items():
        print(f"  [detail] {name}: {value}")


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process."""
    from perfbench.workloads import WORKLOADS

    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"== {workload}: exited with code {proc.returncode}")
            worst = max(worst, 1)
            continue
        result = json.loads(lines[-1])
        _print_table(workload, result)
        if not result["correct"]:
            worst = max(worst, 1)
    return worst


def _record(workloads: List[str], seeds: List[int]) -> int:
    """Run one untraced replica per (workload, seed) and store its
    outputs as the reference for that seed."""
    from perfbench.workloads import WORKLOADS

    references = load_references()
    for workload in workloads:
        fn = WORKLOADS[workload]
        table = references.setdefault(workload, {})
        for seed in seeds:
            replica = fn(seed, None)
            if replica.failures:
                print(f"{workload} seed {seed}: {replica.failures}", file=sys.stderr)
                return 1
            table[str(seed)] = replica.fingerprint
            print(f"recorded {workload} seed {seed}", flush=True)
        references[workload] = {k: table[k] for k in sorted(table, key=int)}
        REFERENCES.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", metavar="SEED", type=int, nargs="+",
                        help="rewrite references.json entries for these seeds")
    args = parser.parse_args(argv)
    _import_program()

    from perfbench.workloads import OUT_DIR, WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    if args.record_references:
        chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
        return _record(chosen, args.record_references)
    if args.workload == "all":
        return _run_all(args)

    env = _environment()
    print(f"perfbench: {args.workload} seed {args.seed} for {args.seconds:g} s, "
          f"trace {args.trace}; " + ", ".join(f"{k}={v}" for k, v in env.items()))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_table(args.workload, result)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, **result}, indent=1), encoding="utf-8"
    )
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
