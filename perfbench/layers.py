"""Per-layer metrics of the traced run.

Every metric below is reported on every workload; a layer a workload
does not use reads 0 there.  Times are self times: a span's duration
minus the time its child spans cover, so the ``self_s.*`` layer totals
and ``self_s.unattributed`` add up to the traced replica's wall time.
Every ratio is reported next to its base count.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench import stats
from perfbench.tracing import Tracer, self_by_layer
from perfbench.workloads import TICK_PROTOCOLS, TRAFFIC_PROTOCOLS, Replica

LAYERS = (
    "traces", "sim", "bittorrent", "bartercast", "core", "pss",
    "service", "aggregation", "dht", "metrics", "bench", "unattributed",
)

_TICK_PROTOCOLS = TICK_PROTOCOLS + ("voxpopuli",)

#: (name, unit), in report order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("traces.generate_s", "s"),
    ("traces.events", "count"),
    ("sim.engine.events", "count"),
    ("sim.engine.self_s", "s"),
    ("sim.population.batches", "count"),
    ("sim.population.mean_batch", "ticks/batch"),
    ("sim.population.run_due_s", "s"),
    ("sim.churn_events", "count"),
    ("sim.churn_s", "s"),
    ("bittorrent.rounds", "count"),
    ("bittorrent.round_s", "s"),
    ("bittorrent.pieces", "count"),
    ("bittorrent.bytes", "B"),
    ("bartercast.ingest_calls", "count"),
    ("bartercast.ingest_s", "s"),
    ("bartercast.gossip_s", "s"),
    ("bartercast.contribution_s", "s"),
    ("bartercast.cache_lookups", "count"),
    ("bartercast.cache_hit_ratio", "ratio"),
    *((f"core.ticks.{p}", "count") for p in _TICK_PROTOCOLS),
    *((f"core.tick_s.{p}", "s") for p in _TICK_PROTOCOLS),
    ("core.experience.checks", "count"),
    ("core.experience_s", "s"),
    ("core.experience.verdicts", "count"),
    ("core.experience.admit_ratio", "ratio"),
    ("core.ballotbox.merge_s", "s"),
    ("core.ballotbox.votes_merged", "count"),
    ("core.ballotbox.votes_truncated", "count"),
    ("pss.samples", "count"),
    ("pss.sample_s", "s"),
    ("service.checkpoint_state_s", "s"),
    ("service.checkpoint_write_s", "s"),
    ("service.restore_read_s", "s"),
    ("service.restore_build_s", "s"),
    ("checkpoint_ms.p50", "ms"),
    ("checkpoint_ms.tail", "ms"),
    ("checkpoint_ms.tail_pct", "%"),
    ("checkpoint_ms.samples", "count"),
    ("checkpoint_mb", "MB"),
    ("restore_s", "s"),
    ("aggregation.publish_s", "s"),
    ("aggregation.pull_s", "s"),
    ("aggregation.merge_s", "s"),
    ("aggregation.remote_votes_merged", "count"),
    ("aggregation.digests", "count"),
    ("dht.lookups", "count"),
    ("dht.messages_per_digest", "messages/digest"),
    ("dht.timeout_ratio", "ratio"),
    ("metrics.probes", "count"),
    ("metrics.probe_s", "s"),
    *((f"traffic.messages.{p}", "count") for p in TRAFFIC_PROTOCOLS),
    ("traffic.bytes", "B"),
    *((f"self_s.{layer}", "s") for layer in LAYERS),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def traced_metrics(replica: Replica, tracer: Tracer, untraced_run_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced replica (everything except
    the ``checkpoint_ms.*``/``checkpoint_mb``/``restore_s`` figures,
    which come from untraced replicas: see :func:`checkpoint_metrics`)."""
    s = tracer.self_by_name()
    calls = tracer.calls_by_name()
    k = tracer.counts
    c = replica.counts
    m: Dict[str, float] = {
        "traces.generate_s": s.get("traces.generate", 0.0),
        "traces.events": c["traces.events"],
        "sim.engine.events": c["sim.engine.events"],
        "sim.engine.self_s": s.get("sim.engine", 0.0),
        "sim.population.batches": c["sim.population.batches"],
        "sim.population.mean_batch": _ratio(c["ticks"], c["sim.population.batches"]),
        "sim.population.run_due_s": s.get("sim.population.run_due", 0.0),
        "sim.churn_events": calls.get("sim.churn", 0),
        "sim.churn_s": s.get("sim.churn", 0.0),
        "bittorrent.rounds": calls.get("bittorrent.round", 0),
        "bittorrent.round_s": s.get("bittorrent.round", 0.0)
        + s.get("bittorrent.piece_completed", 0.0),
        "bittorrent.pieces": calls.get("bittorrent.piece_completed", 0),
        "bittorrent.bytes": c["bittorrent.bytes"],
        "bartercast.ingest_calls": calls.get("bartercast.ingest", 0),
        "bartercast.ingest_s": s.get("bartercast.ingest", 0.0),
        "bartercast.gossip_s": s.get("bartercast.gossip", 0.0),
        "bartercast.contribution_s": s.get("bartercast.contribution", 0.0),
        "bartercast.cache_lookups": c["bartercast.cache_lookups"],
        "bartercast.cache_hit_ratio": _ratio(
            c["bartercast.cache_hits"], c["bartercast.cache_lookups"]
        ),
        "core.experience.checks": calls.get("core.experience", 0),
        "core.experience_s": s.get("core.experience", 0.0),
        "core.experience.verdicts": k.get("core.experience.verdicts", 0),
        "core.experience.admit_ratio": _ratio(
            k.get("core.experience.admitted", 0), k.get("core.experience.verdicts", 0)
        ),
        "core.ballotbox.merge_s": s.get("core.ballotbox.merge", 0.0),
        "core.ballotbox.votes_merged": c["core.ballotbox.votes_merged"],
        "core.ballotbox.votes_truncated": c["core.ballotbox.votes_truncated"],
        "pss.samples": k.get("pss.samples", 0),
        "pss.sample_s": s.get("pss.sample", 0.0),
        "service.checkpoint_state_s": s.get("service.checkpoint_state", 0.0),
        "service.checkpoint_write_s": s.get("service.checkpoint_write", 0.0),
        "service.restore_read_s": s.get("service.restore_read", 0.0),
        "service.restore_build_s": s.get("service.restore_build", 0.0),
        "aggregation.publish_s": s.get("aggregation.publish", 0.0),
        "aggregation.pull_s": s.get("aggregation.pull", 0.0),
        "aggregation.merge_s": s.get("aggregation.merge", 0.0),
        "aggregation.remote_votes_merged": c.get("aggregation.remote_votes_merged", 0),
        "aggregation.digests": c.get("aggregation.digests", 0),
        "dht.lookups": calls.get("dht.lookup", 0),
        "dht.messages_per_digest": _ratio(
            c.get("dht.messages", 0), c.get("aggregation.digests", 0)
        ),
        "dht.timeout_ratio": _ratio(c.get("dht.timeouts", 0), calls.get("dht.lookup", 0)),
        "metrics.probes": k.get("metrics.probes", 0),
        "metrics.probe_s": s.get("metrics.probe", 0.0),
        "traffic.bytes": c["traffic.bytes"],
        "trace.run_s": replica.run_s,
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_ratio": _ratio(replica.run_s, untraced_run_s),
        "trace.spans": tracer.span_count(),
    }
    for p in _TICK_PROTOCOLS:
        m[f"core.ticks.{p}"] = c[f"core.ticks.{p}"]
        m[f"core.tick_s.{p}"] = s.get(f"core.tick.{p}", 0.0)
    for p in TRAFFIC_PROTOCOLS:
        m[f"traffic.messages.{p}"] = c[f"traffic.messages.{p}"]
    by_layer = self_by_layer(tracer)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = by_layer.get(layer, 0.0)
    return m


def checkpoint_metrics(replicas: List[Replica]) -> Dict[str, float]:
    """Checkpoint pause, size and restore figures from untraced
    replicas; all 0 on workloads that do not checkpoint."""
    pauses = [ms for r in replicas for ms in r.checkpoint_ms]
    sizes = [b for r in replicas for b in r.checkpoint_bytes]
    restores = [r.restore_s for r in replicas if r.restore_s is not None]
    out = {
        "checkpoint_ms.p50": 0.0,
        "checkpoint_ms.tail": 0.0,
        "checkpoint_ms.tail_pct": 0.0,
        "checkpoint_ms.samples": len(pauses),
        "checkpoint_mb": sum(sizes) / len(sizes) / 1e6 if sizes else 0.0,
        "restore_s": stats.median(restores) if restores else 0.0,
    }
    if pauses:
        out["checkpoint_ms.p50"] = stats.percentile(pauses, 50.0)
        pct, value = stats.tail(pauses)
        if pct is not None:
            out["checkpoint_ms.tail_pct"] = pct
            out["checkpoint_ms.tail"] = value
    return out


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over the traced replicas of one run."""
    return {name: stats.median([run[name] for run in runs]) for name in runs[0]}
