"""Deterministic output checks, one set per workload.

No check reads a clock: each compares program outputs with invariants
that hold on any seed and, where ``references.json`` records the seed,
with the outputs recorded for it.  A check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional

#: run_summary() fields that measure memory layout, not protocol
#: behaviour (``ServiceShard.identity_state`` excludes them too).
LAYOUT_FIELDS = ("ballot_memory_bytes", "scheduler_memory_bytes")


def digest(obj: Any) -> str:
    """SHA-256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summary_without_population(summary: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in summary.items() if k != "population"}


def summary_without_layout(summary: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(summary)
    out["population"] = {
        k: v for k, v in summary["population"].items() if k not in LAYOUT_FIELDS
    }
    return out


def _compare(name: str, got: Any, want: Any, failures: List[str]) -> None:
    if got != want:
        failures.append(f"{name}: got {got!r}, reference {want!r}")


# ----------------------------------------------------------------------
# fig6-paper
# ----------------------------------------------------------------------
def fig6_fingerprint(series: List[float], summary: Dict[str, Any]) -> Dict[str, Any]:
    """What the reference records for one Fig 6 replica: the exact
    ``correct_fraction`` samples and the run-summary digest (without
    the scheduler-describing ``population`` section)."""
    return {
        "correct_fraction": [float(v) for v in series],
        "summary_digest": digest(summary_without_population(summary)),
    }


def check_fig6(
    fingerprint: Dict[str, Any],
    duration: float,
    sample_interval: float,
    reference: Optional[Dict[str, Any]],
) -> List[str]:
    failures: List[str] = []
    samples = fingerprint["correct_fraction"]
    expected = int(round(duration / sample_interval)) + 1
    if len(samples) != expected:
        failures.append(f"correct_fraction has {len(samples)} samples, expected {expected}")
    bad = [v for v in samples if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    if bad:
        failures.append(f"correct_fraction samples outside [0, 1]: {bad[:3]}")
    if reference is not None:
        _compare("correct_fraction", samples, reference["correct_fraction"], failures)
        _compare("summary_digest", fingerprint["summary_digest"],
                 reference["summary_digest"], failures)
    return failures


# ----------------------------------------------------------------------
# population-churn
# ----------------------------------------------------------------------
def population_fingerprint(trace_events: int, summary: Dict[str, Any]) -> Dict[str, Any]:
    population = summary["population"]
    return {
        "engine": population["engine"],
        "ticks": population["ticks"],
        "ticks_by_protocol": dict(population["ticks_by_protocol"]),
        "batches": population["batches"],
        "mean_batch_size": population["mean_batch_size"],
        "trace_events": trace_events,
        "summary_digest": digest(summary_without_layout(summary)),
    }


def check_population(
    fingerprint: Dict[str, Any], reference: Optional[Dict[str, Any]]
) -> List[str]:
    failures: List[str] = []
    if fingerprint["engine"] != "soa":
        failures.append(f"auto resolved to the {fingerprint['engine']!r} engine, not 'soa'")
    ticks = fingerprint["ticks"]
    if ticks <= 0:
        failures.append("no protocol ticks fired")
    if sum(fingerprint["ticks_by_protocol"].values()) != ticks:
        failures.append("per-protocol ticks do not sum to the tick count")
    batches = fingerprint["batches"]
    if batches <= 0 or not math.isclose(
        batches * fingerprint["mean_batch_size"], ticks, rel_tol=1e-9
    ):
        failures.append(
            f"batches x mean_batch = {batches} x {fingerprint['mean_batch_size']} "
            f"!= ticks {ticks}"
        )
    if reference is not None:
        for key in ("ticks", "ticks_by_protocol", "trace_events", "summary_digest"):
            _compare(key, fingerprint[key], reference[key], failures)
    return failures


# ----------------------------------------------------------------------
# service-cluster
# ----------------------------------------------------------------------
def service_fingerprint(
    identity_states: List[Dict[str, Any]],
    restored_identity: Dict[str, Any],
    checkpoints: int,
) -> Dict[str, Any]:
    return {
        "cluster_digest": digest(identity_states),
        "live_digest": digest(identity_states[-1]),
        "restored_digest": digest(restored_identity),
        "checkpoints": checkpoints,
    }


def check_service(
    fingerprint: Dict[str, Any],
    expected_checkpoints: int,
    reference: Optional[Dict[str, Any]],
) -> List[str]:
    failures: List[str] = []
    if fingerprint["restored_digest"] != fingerprint["live_digest"]:
        failures.append("restored shard's identity_state differs from the live shard's")
    if fingerprint["checkpoints"] != expected_checkpoints:
        failures.append(
            f"{fingerprint['checkpoints']} checkpoints written, "
            f"expected {expected_checkpoints}"
        )
    if reference is not None:
        _compare("cluster_digest", fingerprint["cluster_digest"],
                 reference["cluster_digest"], failures)
    return failures
