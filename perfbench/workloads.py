"""The three benchmark workloads.

Each workload is a closed-loop batch run on the simulated clock, built
from the workload seed and run through the program's public entry
points with default (``auto``) backend knobs.  One call of a
workload's ``replica`` function is one operation: it times set-up and
run separately, reads the counters the per-layer report needs from
the program's own objects, and runs the workload's output checks.
See ``README.md`` for why each workload was chosen.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional

from perfbench import checks

HOUR = 3600.0

#: run results, span dumps and checkpoint scratch (git-ignored)
OUT_DIR = Path(__file__).resolve().parent / "out"

# fig6-paper -----------------------------------------------------------
#: Simulated span of one Fig 6 replica: the first half day, which
#: covers the paper's slow start and the sharp rise around 12 h.
FIG6_DURATION = 12 * HOUR
#: Seed of the fixed 100-peer paper trace.  The trace plays the role of
#: the paper's recorded BitTorrent trace and is the same on every run;
#: the workload seed drives everything simulated on top of it (voter
#: roles, peer sampling, choking, gossip partners).
FIG6_TRACE_SEED = 1
FIG6_SAMPLE_INTERVAL = 1800.0

# population-churn -----------------------------------------------------
POPULATION_PEERS = 15_000
POPULATION_WINDOW = 900.0

# service-cluster ------------------------------------------------------
SERVICE_SHARDS = 4
SERVICE_PEERS = 80
SERVICE_UNTIL = 8 * HOUR
SERVICE_INTERVAL = HOUR
#: the shard restored from disk at the end of every replica
SERVICE_RESTORED_SHARD = SERVICE_SHARDS - 1

#: protocols whose exchanges the traffic meters count
TRAFFIC_PROTOCOLS = (
    "moderationcast", "ballotbox", "voxpopuli", "bartercast", "dht", "aggregation",
)
TICK_PROTOCOLS = ("vote", "moderation", "bartercast")

#: span around the benchmark's own output checks in a traced replica
CHECKS_SPAN = "bench.checks"


@dataclass
class Replica:
    """Timings, counts and check results of one workload run."""

    setup_s: float
    run_s: float
    ticks: int
    fingerprint: Dict[str, Any]
    failures: List[str]
    #: per-layer counts read from the program's objects after the run
    counts: Dict[str, float]
    checkpoint_ms: List[float] = field(default_factory=list)
    checkpoint_bytes: List[int] = field(default_factory=list)
    restore_s: Optional[float] = None
    #: ``time.perf_counter()`` when set-up and run started
    setup_at: float = 0.0
    run_at: float = 0.0

    @classmethod
    def setup_sample(cls, setup_at: float, setup_s: float) -> "Replica":
        """A set-up-only repetition: the workload was built, not run."""
        return cls(setup_s, 0.0, 0, {}, [], {}, setup_at=setup_at)


def _untraced(name: str) -> ContextManager:
    return nullcontext()


@contextmanager
def _phase_marks(cls: type, attr: str, skip: bool = False) -> Iterator[List[float]]:
    """Record the clock when ``cls.attr`` is entered and left, so a run
    phase buried inside a public entry point can be timed from outside.
    With ``skip`` the phase is not run at all (set-up-only samples)."""
    original = cls.__dict__[attr]
    marks: List[float] = []

    def marked(*args, **kwargs):
        marks.append(time.perf_counter())
        if skip:
            return None
        try:
            return original(*args, **kwargs)
        finally:
            marks.append(time.perf_counter())

    setattr(cls, attr, marked)
    try:
        yield marks
    finally:
        setattr(cls, attr, original)


def runtime_counts(stacks: List[Any]) -> Dict[str, float]:
    """Counts summed over one or more ``(engine, session, runtime)``
    holders (a :class:`SimulationStack` or a :class:`ServiceShard`)."""
    counts: Dict[str, float] = {
        "sim.engine.events": 0,
        "sim.population.batches": 0,
        "bittorrent.bytes": 0.0,
        "bartercast.cache_hits": 0,
        "bartercast.cache_lookups": 0,
        "core.ballotbox.votes_merged": 0,
        "core.ballotbox.votes_truncated": 0,
        "core.ticks.voxpopuli": 0,
        "traffic.bytes": 0.0,
        "ticks": 0,
    }
    for p in TICK_PROTOCOLS:
        counts[f"core.ticks.{p}"] = 0
    for p in TRAFFIC_PROTOCOLS:
        counts[f"traffic.messages.{p}"] = 0
    for holder in stacks:
        runtime = holder.runtime
        summary = runtime.run_summary()
        population = summary["population"]
        traffic = summary["traffic"]
        barter = summary["bartercast"]
        counts["sim.engine.events"] += holder.engine.events_fired
        counts["sim.population.batches"] += population["batches"]
        counts["ticks"] += population["ticks"]
        for p in TICK_PROTOCOLS:
            counts[f"core.ticks.{p}"] += population["ticks_by_protocol"].get(p, 0)
        counts["bittorrent.bytes"] += holder.session.ledger.total_bytes
        counts["bartercast.cache_hits"] += barter["contribution_hits"]
        counts["bartercast.cache_lookups"] += (
            barter["contribution_hits"] + barter["contribution_misses"]
        )
        counts["core.ballotbox.votes_merged"] += summary["nodes"]["votes_merged"]
        counts["core.ballotbox.votes_truncated"] += summary["nodes"]["votes_truncated"]
        counts["core.ticks.voxpopuli"] += traffic.get("voxpopuli", {}).get("exchanges", 0)
        for p in TRAFFIC_PROTOCOLS:
            counts[f"traffic.messages.{p}"] += traffic.get(p, {}).get("exchanges", 0)
        counts["traffic.bytes"] += sum(c["bytes"] for c in traffic.values())
    return counts


# ----------------------------------------------------------------------
# fig6-paper
# ----------------------------------------------------------------------
def _fig6_replica(
    seed: int,
    reference: Optional[Dict[str, Any]],
    setup_only: bool = False,
    section: Callable[[str], ContextManager] = _untraced,
) -> Replica:
    from repro.experiments.common import SimulationStack
    from repro.experiments.vote_sampling import (
        VoteSamplingConfig,
        VoteSamplingExperiment,
    )
    from repro.traces.generator import TraceGenerator, TraceGeneratorConfig

    class PaperTraceExperiment(VoteSamplingExperiment):
        """A Fig 6 replica over a trace built beforehand."""

        def __init__(self, config, trace):
            super().__init__(config)
            self._trace = trace

        def _make_trace(self, replica):
            return self._trace

    t0 = time.perf_counter()
    trace = TraceGenerator(
        TraceGeneratorConfig(duration=FIG6_DURATION), seed=FIG6_TRACE_SEED
    ).generate(0)
    experiment = PaperTraceExperiment(
        VoteSamplingConfig(
            seed=seed, duration=FIG6_DURATION, sample_interval=FIG6_SAMPLE_INTERVAL
        ),
        trace,
    )
    with _phase_marks(SimulationStack, "run", skip=setup_only) as marks:
        result = experiment.run()
    setup_s = marks[0] - t0
    if setup_only:
        return Replica.setup_sample(t0, setup_s)
    run_s = marks[1] - marks[0]

    with section(CHECKS_SPAN):
        summary = result.metadata["run_summary"]
        fingerprint = checks.fig6_fingerprint(
            list(result.get("correct_fraction").values), summary
        )
        counts = runtime_counts([experiment.last_stack])
        counts["traces.events"] = len(trace.events)
        failures = checks.check_fig6(
            fingerprint, FIG6_DURATION, FIG6_SAMPLE_INTERVAL, reference
        )
    return Replica(
        setup_s=setup_s,
        run_s=run_s,
        ticks=int(counts["ticks"]),
        fingerprint=fingerprint,
        failures=failures,
        counts=counts,
        setup_at=t0,
        run_at=marks[0],
    )


# ----------------------------------------------------------------------
# population-churn
# ----------------------------------------------------------------------
def _population_replica(
    seed: int,
    reference: Optional[Dict[str, Any]],
    setup_only: bool = False,
    section: Callable[[str], ContextManager] = _untraced,
) -> Replica:
    from repro.bittorrent.session import SessionConfig
    from repro.core.runtime import RuntimeConfig
    from repro.experiments.common import SimulationStack
    from repro.traces.generator import TraceGenerator, TraceGeneratorConfig

    t0 = time.perf_counter()
    trace = TraceGenerator(
        TraceGeneratorConfig(
            n_peers=POPULATION_PEERS,
            duration=POPULATION_WINDOW,
            n_swarms=1,
            swarms_per_session=0.0,
            arrival_window=POPULATION_WINDOW,
            rare_fraction=0.5,
        ),
        seed=seed,
    ).generate()
    stack = SimulationStack.build(
        trace,
        seed=seed,
        runtime_config=RuntimeConfig(
            moderation_interval=300.0,
            vote_interval=300.0,
            bartercast_interval=600.0,
        ),
        session_config=SessionConfig(round_interval=300.0),
        sample_interval=POPULATION_WINDOW,
    )
    t1 = time.perf_counter()
    if setup_only:
        return Replica.setup_sample(t0, t1 - t0)
    stack.run(until=POPULATION_WINDOW)
    t2 = time.perf_counter()

    with section(CHECKS_SPAN):
        summary = stack.runtime.run_summary()
        fingerprint = checks.population_fingerprint(len(trace.events), summary)
        counts = runtime_counts([stack])
        counts["traces.events"] = len(trace.events)
        failures = checks.check_population(fingerprint, reference)
    return Replica(
        setup_s=t1 - t0,
        run_s=t2 - t1,
        ticks=int(counts["ticks"]),
        fingerprint=fingerprint,
        failures=failures,
        counts=counts,
        setup_at=t0,
        run_at=t1,
    )


# ----------------------------------------------------------------------
# service-cluster
# ----------------------------------------------------------------------
def _service_replica(
    seed: int,
    reference: Optional[Dict[str, Any]],
    setup_only: bool = False,
    section: Callable[[str], ContextManager] = _untraced,
) -> Replica:
    from repro.sim.aggregation import AggregationConfig, ShardCluster
    from repro.sim.service import ServiceConfig, ServiceShard, ShardConfig

    config = ServiceConfig(
        shards=SERVICE_SHARDS,
        until=SERVICE_UNTIL,
        checkpoint_interval=SERVICE_INTERVAL,
        shard=ShardConfig(
            peers=SERVICE_PEERS,
            seed=seed,
            aggregation=AggregationConfig(shards=SERVICE_SHARDS),
        ),
    )
    checkpoint_ms: List[float] = []
    checkpoint_bytes: List[int] = []

    def on_boundary(cluster: Any) -> None:
        for shard in cluster.shards:
            checkpoint_ms.append(shard.ops["checkpoint_wall_last"] * 1000.0)
            checkpoint_bytes.append(int(shard.ops["checkpoint_bytes_last"]))

    OUT_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="checkpoints-", dir=OUT_DIR))
    try:
        t0 = time.perf_counter()
        cluster = ShardCluster(config, directory=directory)
        t1 = time.perf_counter()
        if setup_only:
            return Replica.setup_sample(t0, t1 - t0)
        cluster.run(on_boundary=on_boundary)
        t2 = time.perf_counter()
        restored = ServiceShard.restore_from(
            config.shard_config(SERVICE_RESTORED_SHARD),
            cluster.shard_dir(SERVICE_RESTORED_SHARD),
        )
        t3 = time.perf_counter()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    with section(CHECKS_SPAN):
        live = [shard.identity_state() for shard in cluster.shards]
        fingerprint = checks.service_fingerprint(
            live, restored.identity_state(), len(checkpoint_ms)
        )
        boundaries = int(round(SERVICE_UNTIL / SERVICE_INTERVAL))
        failures = checks.check_service(
            fingerprint, SERVICE_SHARDS * boundaries, reference
        )
        counts = runtime_counts(cluster.shards)
        counts["traces.events"] = 0
        ops = [shard.aggregator.ops for shard in cluster.shards]
        counts["aggregation.remote_votes_merged"] = sum(
            o["remote_votes_merged"] for o in ops
        )
        counts["aggregation.digests"] = sum(
            o["digests_published"] + o["digests_pulled"] for o in ops
        )
        counts["dht.messages"] = sum(o["dht_messages"] for o in ops)
        counts["dht.timeouts"] = sum(o["timeouts"] for o in ops)
    return Replica(
        setup_s=t1 - t0,
        run_s=t2 - t1,
        ticks=int(counts["ticks"]),
        fingerprint=fingerprint,
        failures=failures,
        counts=counts,
        checkpoint_ms=checkpoint_ms,
        checkpoint_bytes=checkpoint_bytes,
        restore_s=t3 - t2,
        setup_at=t0,
        run_at=t1,
    )


WORKLOADS: Dict[str, Callable[..., Replica]] = {
    "fig6-paper": _fig6_replica,
    "population-churn": _population_replica,
    "service-cluster": _service_replica,
}

#: set-up-only repetitions before every replica, on top of the
#: replica's own set-up, so ``setup_s`` is a median over enough samples
SETUP_REPEATS = {"fig6-paper": 3, "population-churn": 1, "service-cluster": 3}
