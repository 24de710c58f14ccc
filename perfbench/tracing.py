"""Span tracing installed from the benchmark, around calls into each layer.

The program under test carries no tracing of its own, so the traced run
wraps the layer-boundary methods listed in :data:`BOUNDARIES` at class
level for the duration of one replica and restores them afterwards.
Every wrapper records a span (name, start, end, parent).  Spans nest
strictly because the workloads run on one thread, so a span's self
time is its duration minus the summed durations of its direct
children.

Boundaries called hundreds of thousands of times per run (BarterCast
ingest, piece completion, protocol ticks) are aggregated per
``(name, parent name)`` instead of being stored one by one; the self
time arithmetic is the same, only the per-call records are folded.

The wrappers draw no random numbers and return exactly what the
wrapped method returns, so a traced replica produces the same outputs
as an untraced one (the benchmark checks this).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span name of the benchmark's own root span around one replica.
#: Its self time is the time no layer span accounts for.
ROOT = "workload"


class _Frame:
    __slots__ = ("name", "start", "child", "span_id")

    def __init__(self, name: str, start: float, span_id: int) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """In-memory span recorder with streaming self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: recorded spans: {"id", "name", "parent", "start", "end", "self"}
        self.spans: List[Dict[str, Any]] = []
        #: folded hot spans: (name, parent name) -> [calls, total_s, self_s]
        self.aggregates: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: event counts recorded at the boundaries
        self.counts: Dict[str, float] = {}
        self._stack: List[_Frame] = []
        self._next_id = 0

    def open(self, name: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(name, self.clock(), self._next_id)
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame, aggregate: bool = False) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        self_time = duration - frame.child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        if aggregate:
            key = (frame.name, parent.name if parent is not None else None)
            acc = self.aggregates.get(key)
            if acc is None:
                self.aggregates[key] = [1, duration, self_time]
            else:
                acc[0] += 1
                acc[1] += duration
                acc[2] += self_time
        else:
            self.spans.append(
                {
                    "id": frame.span_id,
                    "name": frame.name,
                    "parent": parent.span_id if parent is not None else None,
                    "start": frame.start,
                    "end": end,
                    "self": self_time,
                }
            )

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """A recorded span around a block of the benchmark's own code."""
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def span_count(self) -> int:
        return len(self.spans) + int(sum(a[0] for a in self.aggregates.values()))

    def self_by_name(self) -> Dict[str, float]:
        """Summed self time per span name, recorded and folded alike."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span["name"]] = out.get(span["name"], 0.0) + span["self"]
        for (name, _parent), (_calls, _total, self_time) in self.aggregates.items():
            out[name] = out.get(name, 0.0) + self_time
        return out

    def calls_by_name(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span["name"]] = out.get(span["name"], 0) + 1
        for (name, _parent), (calls, _total, _self) in self.aggregates.items():
            out[name] = out.get(name, 0) + int(calls)
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "aggregates": [
                {"name": name, "parent": parent, "calls": int(a[0]),
                 "total_s": a[1], "self_s": a[2]}
                for (name, parent), a in sorted(
                    self.aggregates.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                )
            ],
            "counts": self.counts,
        }


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: its first dotted component, with the
    benchmark's root span reported as ``unattributed``."""
    if span_name == ROOT:
        return "unattributed"
    return span_name.split(".", 1)[0]


def self_by_layer(tracer: Tracer) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, self_time in tracer.self_by_name().items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + self_time
    return out


# ----------------------------------------------------------------------
# Boundary table
# ----------------------------------------------------------------------
def _count_requesters(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("pss.samples", len(args[1]))


def _count_one_sample(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("pss.samples", 1)


def _count_verdicts(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("core.experience.verdicts", len(result))
    tracer.add("core.experience.admitted", sum(1 for ok in result.values() if ok))


def _count_probes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("metrics.probes", len(args[0]._probes))


@dataclass(frozen=True)
class Boundary:
    module: str
    cls: str
    attr: str
    span: str
    #: fold per (name, parent) instead of recording every call
    aggregate: bool = True
    on_result: Optional[Callable[[Tracer, tuple, Any], None]] = None


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("repro.traces.generator", "TraceGenerator", "generate",
             "traces.generate", aggregate=False),
    Boundary("repro.sim.engine", "Engine", "run_until", "sim.engine",
             aggregate=False),
    Boundary("repro.sim.population", "PopulationEngine", "run_due",
             "sim.population.run_due"),
    Boundary("repro.bittorrent.session", "BitTorrentSession", "_apply_event",
             "sim.churn"),
    Boundary("repro.bittorrent.swarm", "Swarm", "run_round", "bittorrent.round"),
    Boundary("repro.bittorrent.picker", "PiecePicker", "piece_completed",
             "bittorrent.piece_completed"),
    Boundary("repro.bartercast.protocol", "BarterCastService", "local_transfer",
             "bartercast.ingest"),
    Boundary("repro.bartercast.protocol", "BarterCastService", "gossip_tick",
             "bartercast.gossip"),
    Boundary("repro.bartercast.protocol", "BarterCastService", "contribution",
             "bartercast.contribution"),
    Boundary("repro.bartercast.protocol", "BarterCastService",
             "contributions_to_observer", "bartercast.contribution"),
    Boundary("repro.core.runtime", "ProtocolRuntime", "_moderation_tick",
             "core.tick.moderation"),
    Boundary("repro.core.runtime", "ProtocolRuntime", "_vote_tick",
             "core.tick.vote"),
    Boundary("repro.core.runtime", "ProtocolRuntime", "_vote_tick_batch",
             "core.tick.vote"),
    Boundary("repro.core.runtime", "ProtocolRuntime", "_bartercast_tick",
             "core.tick.bartercast"),
    Boundary("repro.core.node", "VoteSamplingNode", "respond_top_k",
             "core.tick.voxpopuli"),
    Boundary("repro.core.node", "VoteSamplingNode", "receive_top_k",
             "core.tick.voxpopuli"),
    Boundary("repro.core.experience", "ExperienceFunction", "experienced_many",
             "core.experience", on_result=_count_verdicts),
    Boundary("repro.core.experience", "ThresholdExperience", "experienced_many",
             "core.experience", on_result=_count_verdicts),
    Boundary("repro.core.ballotbox", "BallotBox", "merge", "core.ballotbox.merge"),
    Boundary("repro.core.columnar", "ColumnarBallotBox", "merge",
             "core.ballotbox.merge"),
    Boundary("repro.core.columnar", "ColumnarStateStore", "bb_merge",
             "core.ballotbox.merge"),
    Boundary("repro.pss.ideal", "OraclePSS", "sample", "pss.sample",
             on_result=_count_one_sample),
    Boundary("repro.pss.ideal", "OraclePSS", "sample_batch", "pss.sample",
             on_result=_count_requesters),
    Boundary("repro.sim.service", "ServiceShard", "write_checkpoint",
             "service.checkpoint_write", aggregate=False),
    Boundary("repro.sim.service", "ServiceShard", "checkpoint_state",
             "service.checkpoint_state", aggregate=False),
    Boundary("repro.sim.service", "ServiceShard", "restore_from",
             "service.restore_read", aggregate=False),
    Boundary("repro.sim.service", "ServiceShard", "restore",
             "service.restore_build", aggregate=False),
    Boundary("repro.sim.aggregation", "ShardAggregator", "publish",
             "aggregation.publish", aggregate=False),
    Boundary("repro.sim.aggregation", "ShardAggregator", "pull",
             "aggregation.pull", aggregate=False),
    Boundary("repro.sim.aggregation", "ShardAggregator", "merge_pending",
             "aggregation.merge", aggregate=False),
    Boundary("repro.dht.chord", "ChordRing", "lookup", "dht.lookup"),
    Boundary("repro.metrics.timeseries", "TimeSeriesRecorder", "_tick",
             "metrics.probe", on_result=_count_probes),
)


def _wrap(fn: Callable, tracer: Tracer, boundary: Boundary) -> Callable:
    name = boundary.span
    aggregate = boundary.aggregate
    on_result = boundary.on_result
    open_span = tracer.open
    close_span = tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(frame, aggregate)
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return traced


class installed:
    """Context manager: wrap every boundary for ``tracer``, restore the
    original class attributes on exit.  A boundary whose class or
    method no longer exists is skipped with a note on stderr (its
    metrics then read 0)."""

    def __init__(self, tracer: Tracer, boundaries=BOUNDARIES) -> None:
        self.tracer = tracer
        self.boundaries = boundaries
        self._saved: List[Tuple[type, str, Any]] = []

    def __enter__(self) -> Tracer:
        for b in self.boundaries:
            cls = getattr(importlib.import_module(b.module), b.cls, None)
            original = cls.__dict__.get(b.attr) if cls is not None else None
            if original is None:
                print(f"perfbench: boundary {b.cls}.{b.attr} not found; "
                      f"span {b.span} not recorded", file=sys.stderr)
                continue
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(_wrap(original.__func__, self.tracer, b))
            else:
                wrapped = _wrap(original, self.tracer, b)
            self._saved.append((cls, b.attr, original))
            setattr(cls, b.attr, wrapped)
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)
