"""Tests of the benchmark's own arithmetic and output checks."""

import copy
import json

import pytest

from perfbench import checks, layers, speed, stats, tracing
from perfbench.tracing import Boundary, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _at(clock, t):
    clock.now = float(t)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _nested_run(aggregate_children):
    """root [0,10] > a [1,4] > b [2,3];  root > c [5,9]."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    _at(clock, 0)
    root = tracer.open(tracing.ROOT)
    _at(clock, 1)
    a = tracer.open("core.tick.vote")
    _at(clock, 2)
    b = tracer.open("pss.sample")
    _at(clock, 3)
    tracer.close(b, aggregate_children)
    _at(clock, 4)
    tracer.close(a, aggregate_children)
    _at(clock, 5)
    c = tracer.open("bittorrent.round")
    _at(clock, 9)
    tracer.close(c, aggregate_children)
    _at(clock, 10)
    tracer.close(root)
    return tracer


@pytest.mark.parametrize("aggregate", [False, True])
def test_self_time_is_duration_minus_child_spans(aggregate):
    tracer = _nested_run(aggregate)
    assert tracer.self_by_name() == {
        tracing.ROOT: 3.0,            # 10 - (3 + 4)
        "core.tick.vote": 2.0,        # 3 - 1
        "pss.sample": 1.0,
        "bittorrent.round": 4.0,
    }
    by_layer = tracing.self_by_layer(tracer)
    assert by_layer == {"unattributed": 3.0, "core": 2.0, "pss": 1.0, "bittorrent": 4.0}
    # Layer self times and the unattributed remainder add up to the root.
    assert sum(by_layer.values()) == 10.0


def test_repeated_hot_spans_fold_per_name_and_parent():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root = tracer.open(tracing.ROOT)
    for i in range(3):
        _at(clock, 2 * i)
        frame = tracer.open("bartercast.ingest")
        _at(clock, 2 * i + 1)
        tracer.close(frame, aggregate=True)
    _at(clock, 6)
    tracer.close(root)
    assert tracer.aggregates[("bartercast.ingest", tracing.ROOT)] == [3, 3.0, 3.0]
    assert tracer.calls_by_name() == {tracing.ROOT: 1, "bartercast.ingest": 3}
    assert tracer.self_by_name()[tracing.ROOT] == 3.0
    assert len(tracer.spans) == 1


def test_recorded_spans_keep_name_start_end_and_parent():
    tracer = _nested_run(aggregate_children=False)
    by_name = {s["name"]: s for s in tracer.spans}
    root = by_name[tracing.ROOT]
    assert root["parent"] is None and (root["start"], root["end"]) == (0.0, 10.0)
    assert by_name["core.tick.vote"]["parent"] == root["id"]
    assert by_name["pss.sample"]["parent"] == by_name["core.tick.vote"]["id"]
    json.dumps(tracer.to_dict())


def test_out_of_order_close_is_an_error():
    tracer = Tracer()
    outer = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_installed_wrappers_preserve_results_and_are_removed():
    from repro.core.ballotbox import BallotBox
    from repro.core.votes import Vote, VoteEntry

    original = BallotBox.__dict__["merge"]
    boundary = Boundary("repro.core.ballotbox", "BallotBox", "merge", "core.ballotbox.merge")
    entries = [VoteEntry("m1", Vote.POSITIVE, 0.0)]
    plain = BallotBox(b_max=5).merge("v1", entries, 1.0)
    tracer = Tracer()
    with tracing.installed(tracer, boundaries=(boundary,)):
        assert BallotBox.__dict__["merge"] is not original
        traced = BallotBox(b_max=5).merge("v1", entries, 1.0)
    assert BallotBox.__dict__["merge"] is original
    assert traced == plain
    assert tracer.calls_by_name() == {"core.ballotbox.merge": 1}


# ----------------------------------------------------------------------
# Percentile with sample count
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([3.0], 50) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_reports_nothing_below_twenty_samples():
    assert stats.tail([1.0] * 19) == (None, None)
    pct, value = stats.tail([float(i) for i in range(1, 41)])
    assert (pct, value) == (75.0, 30.0)


def test_median():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_checkpoint_metrics_use_the_sample_count_rule():
    from perfbench.workloads import Replica

    replica = Replica(0.1, 1.0, 1, {}, [], {}, checkpoint_ms=[float(i) for i in range(1, 33)],
                      checkpoint_bytes=[2_000_000] * 32, restore_s=0.5)
    m = layers.checkpoint_metrics([replica])
    assert m["checkpoint_ms.samples"] == 32
    assert m["checkpoint_ms.tail_pct"] == 50.0
    assert m["checkpoint_ms.p50"] == m["checkpoint_ms.tail"] == 16.0
    assert m["checkpoint_mb"] == 2.0 and m["restore_s"] == 0.5


# ----------------------------------------------------------------------
# Machine-speed probe
# ----------------------------------------------------------------------
def test_interval_with_enough_samples_uses_its_own_speed():
    # Probes of 1 ms every 10 ms; the machine ran at half the reference
    # speed in [0, 1) and at the reference speed afterwards.
    stamps = [i * 0.01 for i in range(200)]
    durations = [0.002 if t < 1.0 else 0.001 for t in stamps]
    # 1 s of wall time holds 100 probes (0.2 s): 0.8 s of work at half
    # speed is 0.4 s at the reference speed.
    assert speed.at_reference(0.0, 1.0, stamps, durations, reference=0.001,
                              min_samples=20) == pytest.approx(0.4)
    assert speed.at_reference(1.0, 2.0, stamps, durations, reference=0.001,
                              min_samples=20) == pytest.approx(0.9)


def test_short_interval_takes_the_speed_of_the_nearest_samples():
    stamps = [i * 0.01 for i in range(200)]
    durations = [0.002 if t < 1.0 else 0.001 for t in stamps]
    # [0.503, 0.508) holds no probe; its 20 nearest probes all ran at
    # half speed.
    assert speed.at_reference(0.503, 0.508, stamps, durations, reference=0.001,
                              min_samples=20) == pytest.approx(0.0025)
    assert sorted(speed._nearest(stamps, list(range(200)), 1.004, 3)) == [99, 100, 101]


def test_speed_probe_samples_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(period=0.005) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 5
    assert probe.stamps == sorted(probe.stamps)
    assert probe.median() > 0.0


# ----------------------------------------------------------------------
# Output checks fail on perturbed outputs
# ----------------------------------------------------------------------
DURATION, INTERVAL = 12 * 3600.0, 1800.0


def _fig6_case():
    series = [min(1.0, i / 30.0) for i in range(25)]
    summary = {"traffic": {"ballotbox": {"exchanges": 7}}, "population": {"ticks": 9}}
    fingerprint = checks.fig6_fingerprint(series, summary)
    return fingerprint, copy.deepcopy(fingerprint)


def test_fig6_check_passes_on_reference_output():
    fingerprint, reference = _fig6_case()
    assert checks.check_fig6(fingerprint, DURATION, INTERVAL, reference) == []
    assert checks.check_fig6(fingerprint, DURATION, INTERVAL, None) == []


def test_fig6_population_section_is_outside_the_digest():
    series = [0.0] * 25
    a = checks.fig6_fingerprint(series, {"traffic": {}, "population": {"engine": "object"}})
    b = checks.fig6_fingerprint(series, {"traffic": {}, "population": {"engine": "soa"}})
    assert a == b


@pytest.mark.parametrize(
    "perturb",
    [
        lambda f: f["correct_fraction"].__setitem__(5, f["correct_fraction"][5] + 1e-12),
        lambda f: f.__setitem__("summary_digest", checks.digest({"other": 1})),
    ],
    ids=["sample", "summary"],
)
def test_fig6_check_fails_when_output_differs_from_reference(perturb):
    fingerprint, reference = _fig6_case()
    perturb(fingerprint)
    assert checks.check_fig6(fingerprint, DURATION, INTERVAL, reference)


@pytest.mark.parametrize(
    "perturb",
    [
        lambda f: f["correct_fraction"].__setitem__(3, 1.5),
        lambda f: f["correct_fraction"].__setitem__(3, -0.1),
        lambda f: f["correct_fraction"].__setitem__(3, float("nan")),
        lambda f: f["correct_fraction"].pop(),
    ],
    ids=["above-one", "below-zero", "nan", "missing-sample"],
)
def test_fig6_invariants_fail_without_a_reference(perturb):
    fingerprint, _ = _fig6_case()
    perturb(fingerprint)
    assert checks.check_fig6(fingerprint, DURATION, INTERVAL, None)


def _population_case():
    summary = {
        "traffic": {"ballotbox": {"exchanges": 3}},
        "population": {
            "engine": "soa", "ticks": 12, "batches": 3, "mean_batch_size": 4.0,
            "ticks_by_protocol": {"vote": 5, "moderation": 5, "bartercast": 2},
            "ballot_memory_bytes": 100, "scheduler_memory_bytes": 200,
        },
    }
    fingerprint = checks.population_fingerprint(40, summary)
    return summary, fingerprint, copy.deepcopy(fingerprint)


def test_population_check_passes_on_reference_output():
    _, fingerprint, reference = _population_case()
    assert checks.check_population(fingerprint, reference) == []


def test_population_digest_ignores_memory_layout_only():
    summary, fingerprint, _ = _population_case()
    moved = copy.deepcopy(summary)
    moved["population"]["ballot_memory_bytes"] = 999
    assert checks.population_fingerprint(40, moved) == fingerprint
    moved["traffic"]["ballotbox"]["exchanges"] = 4
    assert checks.population_fingerprint(40, moved)["summary_digest"] != fingerprint["summary_digest"]


@pytest.mark.parametrize(
    "perturb, with_reference",
    [
        (lambda f: f.update(ticks=13, mean_batch_size=13 / 3), True),
        (lambda f: f["ticks_by_protocol"].update(vote=6, moderation=4), True),
        (lambda f: f.update(trace_events=41), True),
        (lambda f: f.update(summary_digest=checks.digest([])), True),
        (lambda f: f.update(mean_batch_size=4.5), False),
        (lambda f: f["ticks_by_protocol"].update(vote=6), False),
        (lambda f: f.update(engine="object"), False),
    ],
    ids=["ticks", "per-protocol", "trace-events", "summary",
         "batch-product", "tick-sum", "engine"],
)
def test_population_check_fails_on_perturbed_output(perturb, with_reference):
    _, fingerprint, reference = _population_case()
    perturb(fingerprint)
    assert checks.check_population(fingerprint, reference if with_reference else None)


def _service_case():
    live = [{"sim_now": 10.0, "nodes": [{"peer_id": f"p{i}"}]} for i in range(4)]
    fingerprint = checks.service_fingerprint(live, copy.deepcopy(live[-1]), 32)
    return live, fingerprint, copy.deepcopy(fingerprint)


def test_service_check_passes_when_restore_matches():
    _, fingerprint, reference = _service_case()
    assert checks.check_service(fingerprint, 32, reference) == []


def test_service_check_fails_when_restored_state_differs():
    live, _, reference = _service_case()
    restored = copy.deepcopy(live[-1])
    restored["nodes"][0]["peer_id"] = "other"
    fingerprint = checks.service_fingerprint(live, restored, 32)
    assert checks.check_service(fingerprint, 32, None)


def test_service_check_fails_on_checkpoint_count_or_cluster_state():
    live, fingerprint, reference = _service_case()
    assert checks.check_service(fingerprint, 28, reference)
    live[0]["sim_now"] = 11.0
    moved = checks.service_fingerprint(live, copy.deepcopy(live[-1]), 32)
    assert checks.check_service(moved, 32, reference)
