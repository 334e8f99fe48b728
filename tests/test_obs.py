"""The observability plane: metrics semantics, exporters, tracing, scoping.

Covers the plane's contracts in isolation and wired into the simulator:

* exact nearest-rank percentiles and the windowed time-series views;
* label discipline (declared names enforced, re-declaration rejected);
* Prometheus / JSON export shapes and the SLO evaluator's verdict rules;
* one-trace-per-collective linking through orchestrator lineage, including
  a fault-and-recover run whose failed and replacement attempts share the
  trace;
* the per-cluster fast-path counter scoping (the old module-global STATS
  footgun: two back-to-back runs must report identical counters) and the
  ``repro.net.fastpath`` context manager that gates both fast paths.
"""

import numpy as np
import pytest

from repro.net import coalesce, convoy
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.fastpath import COUNTER_KEYS, fastpath, is_enabled
from repro.obs.export import (
    SLOTarget,
    evaluate_slos,
    format_slo_table,
    to_json,
    to_prometheus,
)
from repro.obs.metrics import MetricsRegistry, nearest_rank
from repro.store.objects import ObjectID, ObjectValue, ReduceOp, reset_id_counter

MB = 1024 * 1024


class _Clock:
    """A stand-in simulator: the registry only reads ``sim._now``."""

    def __init__(self):
        self._now = 0.0


# ---------------------------------------------------------------------------
# Metrics semantics
# ---------------------------------------------------------------------------


def test_nearest_rank_is_exact():
    values = [1.0, 2.0, 3.0, 4.0]
    assert nearest_rank(values, 50) == 2.0
    assert nearest_rank(values, 75) == 3.0
    assert nearest_rank(values, 76) == 4.0  # ceil(0.76*4)=4 -> 4th value
    assert nearest_rank(values, 100) == 4.0
    assert nearest_rank([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_counter_windows_against_simulated_time():
    clock = _Clock()
    registry = MetricsRegistry(clock, window=0.1)
    counter = registry.counter("ops", "operations").labels()
    counter.inc()
    clock._now = 0.05
    counter.inc(2)
    clock._now = 0.25
    counter.inc()
    assert counter.value == 4.0
    # Two buckets: [0.0, 0.1) collected 3, [0.2, 0.3) collected 1.
    assert counter.series() == [(0.0, 3.0), (pytest.approx(0.2), 1.0)]


def test_histogram_percentiles_full_and_windowed():
    clock = _Clock()
    registry = MetricsRegistry(clock, window=1.0)
    hist = registry.histogram("latency", "", ("op",)).labels(op="get")
    for i in range(10):
        clock._now = float(i)
        hist.observe(float(i + 1))  # values 1..10 at times 0..9
    assert hist.count == 10
    assert hist.percentile(50) == 5.0
    assert hist.percentile(99) == 10.0
    # Time-windowed: only samples in [2, 5) -> values 3, 4, 5.
    assert hist.percentile(50, since=2.0, until=4.0) == 4.0
    windowed = hist.windowed_percentile(100)
    assert windowed == [(float(i), float(i + 1)) for i in range(10)]


def test_gauge_windowed_mean():
    clock = _Clock()
    registry = MetricsRegistry(clock, window=0.5)
    gauge = registry.gauge("depth", "").labels()
    for t, v in ((0.0, 2.0), (0.4, 4.0), (0.6, 10.0)):
        clock._now = t
        gauge.set(v)
    assert gauge.value == 10.0
    assert gauge.windowed_mean() == [(0.0, 3.0), (0.5, 10.0)]


def test_label_discipline():
    registry = MetricsRegistry(_Clock(), window=1.0)
    family = registry.counter("bytes", "", ("link", "cls"))
    child = family.labels(link="n0/up", cls="bulk")
    assert family.labels(cls="bulk", link="n0/up") is child  # order-free
    with pytest.raises(ValueError, match="missing label"):
        family.labels(link="n0/up")
    with pytest.raises(ValueError, match="unexpected label"):
        family.labels(link="n0/up", cls="bulk", extra="x")
    with pytest.raises(ValueError, match="re-declared"):
        registry.gauge("bytes", "", ("link", "cls"))
    with pytest.raises(ValueError, match="re-declared"):
        registry.counter("bytes", "", ("link",))
    with pytest.raises(ValueError):
        MetricsRegistry(_Clock(), window=0.0)


# ---------------------------------------------------------------------------
# Exporters and the SLO evaluator
# ---------------------------------------------------------------------------


def _latency_registry():
    clock = _Clock()
    registry = MetricsRegistry(clock, window=1.0)
    family = registry.histogram(
        "fleet_op_latency_seconds", "op latency", ("tenant", "op", "size")
    )
    for value in (0.010, 0.020, 0.030):
        family.labels(tenant="prod", op="broadcast", size="1MB").observe(value)
    family.labels(tenant="batch", op="broadcast", size="1MB").observe(0.500)
    family.labels(tenant="prod", op="gather", size="32KB").observe(0.002)
    return registry


def test_prometheus_export_shapes():
    registry = _latency_registry()
    registry.counter("ops", "total ops", ("cls",)).labels(cls="bulk").inc(3)
    registry.gauge("depth", "queue depth").labels().set(2.0)
    text = to_prometheus(registry)
    assert "# TYPE ops_total counter" in text
    assert 'ops_total{cls="bulk"} 3' in text
    assert "# TYPE depth gauge" in text
    assert "depth 2" in text
    assert "# TYPE fleet_op_latency_seconds summary" in text
    assert (
        'fleet_op_latency_seconds{tenant="prod",op="broadcast",size="1MB",'
        'quantile="0.5"} 0.02' in text
    )
    assert (
        'fleet_op_latency_seconds_count{tenant="prod",op="broadcast",size="1MB"} 3'
        in text
    )
    # Deterministic: rendering twice is byte-identical.
    assert to_prometheus(registry) == text


def test_json_export_carries_series():
    registry = _latency_registry()
    payload = to_json(registry)
    assert payload["window"] == 1.0
    (family,) = payload["families"]
    assert family["name"] == "fleet_op_latency_seconds"
    assert family["label_names"] == ["tenant", "op", "size"]
    prod_bcast = next(
        child
        for child in family["children"]
        if child["labels"] == {"tenant": "prod", "op": "broadcast", "size": "1MB"}
    )
    assert prod_bcast["count"] == 3
    assert prod_bcast["quantiles"]["0.5"] == 0.020
    assert len(prod_bcast["series"]) == 3
    # No fastpath_stats passed -> no fastpath key (artifact shape is opt-in).
    assert "fastpath" not in payload


def test_json_export_carries_fastpath_counters():
    """The fastpath block's key set is pinned to COUNTER_KEYS: a new
    counter kind must show up in the artifact (and this test) on purpose."""
    cluster = Cluster(num_nodes=2, network=NetworkConfig())
    registry = MetricsRegistry(cluster.sim, window=1.0)
    payload = to_json(registry, fastpath_stats=cluster.fastpath_stats)
    assert set(payload["fastpath"].keys()) == set(COUNTER_KEYS)
    assert all(value == 0 for value in payload["fastpath"].values())


def test_prometheus_export_skips_empty_families():
    """Declared families nothing ever observed into emit no text at all."""
    registry = _latency_registry()
    registry.histogram("never_observed", "no children", ("op",))
    registry.counter("never_incremented", "no children", ("link",))
    text = to_prometheus(registry)
    assert "never_observed" not in text
    assert "never_incremented" not in text
    # JSON keeps the declaration (schema is part of the artifact).
    names = {family["name"] for family in to_json(registry)["families"]}
    assert "never_observed" in names and "never_incremented" in names
    # A labeled child with zero observations still renders sum/count.
    registry.counter("touched", "", ("cls",)).labels(cls="bulk")
    assert 'touched_total{cls="bulk"} 0' in to_prometheus(registry)


def test_prometheus_export_escapes_label_values_and_help():
    registry = MetricsRegistry(_Clock(), window=1.0)
    family = registry.counter("odd", 'help with \\ and\nnewline', ("name",))
    family.labels(name='a\\b"c\nd').inc()
    text = to_prometheus(registry)
    assert "# HELP odd_total help with \\\\ and\\nnewline" in text
    assert 'odd_total{name="a\\\\b\\"c\\nd"} 1' in text
    # The rendered exposition never contains a raw newline inside a sample.
    for line in text.splitlines():
        assert line == line.strip("\r")


def test_zero_or_negative_window_is_rejected():
    for window in (0.0, -1.0):
        with pytest.raises(ValueError, match="window"):
            MetricsRegistry(_Clock(), window=window)


def test_slo_evaluator_verdicts():
    registry = _latency_registry()
    targets = [
        SLOTarget("broadcast", "1MB", p50=0.025, p99=0.100),
        SLOTarget("alltoall", "2MB", p50=0.050, p99=0.100),  # no traffic
    ]
    rows = evaluate_slos(registry, targets)
    # gather has no target -> skipped; alltoall has no samples -> no row.
    assert [(row.tenant, row.op) for row in rows] == [
        ("batch", "broadcast"),
        ("prod", "broadcast"),
    ]
    batch, prod = rows
    assert prod.ok and prod.verdict == "PASS"
    assert not batch.ok and batch.verdict == "FAIL"  # 0.5s against 25ms
    table = format_slo_table(rows)
    assert "PASS" in table and "FAIL" in table
    assert evaluate_slos(MetricsRegistry(_Clock()), targets) == []


# ---------------------------------------------------------------------------
# Plane lifecycle on a live cluster
# ---------------------------------------------------------------------------


def test_enable_observability_counts_events_and_detaches():
    cluster = Cluster(num_nodes=2, network=NetworkConfig())
    obs = cluster.enable_observability()
    assert cluster.enable_observability() is obs  # idempotent accessor
    from repro.obs import Observability

    with pytest.raises(ValueError):
        Observability(cluster)

    from repro.core.runtime import HopliteRuntime

    runtime = HopliteRuntime(cluster)

    def driver():
        oid = ObjectID.unique("obs-ev")
        yield from runtime.client(0).put(oid, ObjectValue.of_size(4 * MB))
        yield from runtime.client(1).get(oid)

    cluster.sim.process(driver())
    cluster.run()
    counted = obs.registry.families["sim_events"].labels().value
    assert counted == cluster.sim.events_processed
    assert counted > 0
    bytes_family = obs.registry.families["link_bytes"]
    assert sum(child.value for child in bytes_family.children.values()) >= 4 * MB

    obs.detach()
    assert cluster.obs is None and cluster.sim.on_step is None
    assert cluster.nodes[0].uplink_sched._obs_bytes is None
    # The recorded data stays readable after detach.
    assert obs.registry.families["sim_events"].labels().value == counted


def test_fault_and_recover_is_one_trace():
    """A collective with a mid-flight failure traces as one span tree."""
    cluster = Cluster(num_nodes=5, network=NetworkConfig(bandwidth=1.25e8))
    obs = cluster.enable_observability()

    from repro.collectives.plane import HoplitePlane
    from repro.core.runtime import HopliteRuntime
    from repro.tasksys import CollectiveOrchestrator, CollectiveSpec, TaskSystem

    runtime = HopliteRuntime(cluster)
    system = TaskSystem(cluster, HoplitePlane(runtime))
    orchestrator = CollectiveOrchestrator(system)
    cluster.schedule_failure(2, at=0.2, recover_at=0.5)

    ranks = list(range(5))
    sources = {i: ObjectID.unique(f"trace-src{i}") for i in ranks}
    spec = CollectiveSpec.reduce(
        "traced",
        0,
        ranks,
        sources,
        ObjectID.unique("trace-target"),
        {
            sources[i]: ObjectValue.from_array(
                np.full(4, float(i + 1)), logical_size=16 * MB
            )
            for i in ranks
        },
        ReduceOp.SUM,
        allreduce=True,
    )
    done = {}

    def driver():
        done["outcome"] = yield from orchestrator.invoke(spec)

    cluster.sim.process(driver())
    cluster.run(until=240.0)
    assert "outcome" in done

    spans = obs.tracer.trace(spec.spec_id)
    assert spans, "the collective recorded no trace"
    root = spans[0]
    assert root.name == "collective:allreduce" and root.status == "ok"
    assert root.trace_id == spec.spec_id
    tasks = [s for s in spans if s.name.startswith("task:")]
    assert tasks and all(s.parent_id == root.span_id for s in tasks)
    # The node-2 failure killed at least one attempt; its replacement is a
    # sibling span of the same task in the same trace.
    interrupted = [s for s in tasks if s.status in ("retrying", "failed")]
    assert interrupted, "no attempt recorded the failure"
    retried_names = {s.name for s in interrupted}
    for name in retried_names:
        attempts = [s for s in tasks if s.name == name]
        assert len(attempts) >= 2, f"{name} has no replacement attempt"
        assert attempts[-1].status == "ok"
    assert system.metrics.failures >= 1
    rendered = obs.tracer.format_trace(spec.spec_id)
    assert "collective:allreduce" in rendered and "task:" in rendered


def test_trace_transfers_records_coalesced_run_spans():
    """A long broadcast coalesces; the runs appear as finished spans."""
    from repro.core.runtime import HopliteRuntime

    cluster = Cluster(num_nodes=6, network=NetworkConfig())
    obs = cluster.enable_observability(trace_transfers=True)
    runtime = HopliteRuntime(cluster)
    oid = ObjectID.unique("traced-bcast")

    def sender():
        yield from runtime.client(0).put(oid, ObjectValue.of_size(32 * MB))

    cluster.sim.process(sender())
    for node_id in range(1, 6):

        def receiver(node_id=node_id):
            yield from runtime.client(node_id).get(oid)

        cluster.sim.process(receiver())
    cluster.run()

    assert cluster.fastpath_stats["coalesced_runs"] > 0
    runs = [s for s in obs.tracer.spans if s.name == "coalesced_run"]
    assert len(runs) == cluster.fastpath_stats["coalesced_runs"]
    for span in runs:
        assert span.status in ("ok", "resplit") and span.end is not None
        assert span.attrs["kind"] == "CoalescedRun"
        assert span.attrs["blocks"] > 1


def _traced_system(num_nodes=3, workers_per_node=1):
    from repro.collectives.plane import HoplitePlane
    from repro.core.runtime import HopliteRuntime
    from repro.tasksys import TaskSystem

    cluster = Cluster(num_nodes=num_nodes, network=NetworkConfig())
    obs = cluster.enable_observability()
    system = TaskSystem(
        cluster, HoplitePlane(HopliteRuntime(cluster)), workers_per_node=workers_per_node
    )
    return cluster, obs, system


def test_task_failing_before_start_spans_per_attempt():
    """An attempt killed while still queued is a 'retrying' span; the
    replacement attempt is a sibling in the same trace, and the task body
    never ran for the dead attempt."""
    cluster, obs, system = _traced_system()
    root = obs.tracer.root_for_spec("prestart-spec", "test")
    calls = []

    def blocker(ctx):
        yield ctx.compute(1.0)

    def victim(ctx):
        calls.append(ctx.node.node_id)
        yield ctx.compute(0.01)
        return ObjectValue.of_size(MB)

    cluster.schedule_failure(1, at=0.3)

    def driver():
        system.submit(blocker, node=1, name="blocker")
        # One worker slot per node: the victim queues behind the blocker and
        # is still waiting for the slot when node 1 dies at t=0.3.
        ref = system.submit(victim, node=1, name="victim", key="prestart-spec#w/0")
        yield from system.get(ref)

    cluster.sim.process(driver())
    cluster.run(until=60.0)

    attempts = [s for s in obs.tracer.spans if s.name == "task:victim"]
    assert len(attempts) == 2
    first, second = attempts
    assert first.status == "retrying" and first.attrs["attempt"] == 1
    assert first.attrs["node"] == 1
    assert second.status == "ok" and second.attrs["attempt"] == 2
    assert second.attrs["node"] != 1
    # Both attempts hang off the lineage root: one trace end-to-end.
    assert {s.trace_id for s in attempts} == {"prestart-spec"}
    assert {s.parent_id for s in attempts} == {root.span_id}
    # The first attempt failed before the body ever started.
    assert calls == [second.attrs["node"]]


def test_adopted_reexecution_span_is_marked():
    """A re-execution that finds its output already produced adopts it; the
    adopting attempt's span says so, in the same trace as the dead one."""
    cluster, obs, system = _traced_system()
    root = obs.tracer.root_for_spec("adopt-spec", "test")
    output_id = ObjectID.unique("adopt-out")

    def slow_task(ctx):
        yield ctx.compute(1.0)
        return ObjectValue.of_size(MB)

    def external_producer():
        # Another holder publishes the same output mid-run (e.g. a surviving
        # replica): the copy lands on node 1 before node 0 dies.
        yield cluster.sim.timeout(0.2)
        yield from system.plane.put(
            cluster.nodes[1], output_id, ObjectValue.of_size(MB)
        )

    cluster.schedule_failure(0, at=0.5)
    cluster.sim.process(external_producer())

    def driver():
        ref = system.submit(
            slow_task,
            node=0,
            name="adoptee",
            output_id=output_id,
            key="adopt-spec#w/0",
        )
        yield from system.get(ref)

    cluster.sim.process(driver())
    cluster.run(until=60.0)

    attempts = [s for s in obs.tracer.spans if s.name == "task:adoptee"]
    assert len(attempts) == 2
    first, second = attempts
    assert first.status == "retrying" and "adopted" not in first.attrs
    assert second.status == "ok" and second.attrs.get("adopted") is True
    assert system.metrics.adoptions == 1
    # Span per attempt, one trace end-to-end.
    assert {s.trace_id for s in attempts} == {"adopt-spec"}
    assert {s.parent_id for s in attempts} == {root.span_id}


# ---------------------------------------------------------------------------
# Fast-path scoping (satellites 1 and 2)
# ---------------------------------------------------------------------------


def test_fastpath_context_manager_gates_both_fast_paths():
    assert is_enabled() and coalesce.ENABLED and convoy.ENABLED
    with fastpath(False):
        assert not is_enabled()
        assert not coalesce.ENABLED and not convoy.ENABLED
        with fastpath(True):
            assert is_enabled()
        assert not is_enabled()
    assert is_enabled() and coalesce.ENABLED and convoy.ENABLED


def _broadcast_fastpath_counts() -> dict:
    """One fixed broadcast on a fresh cluster; returns its fast-path counters."""
    reset_id_counter()
    from repro.core.runtime import HopliteRuntime

    cluster = Cluster(num_nodes=6, network=NetworkConfig())
    runtime = HopliteRuntime(cluster)
    oid = ObjectID.unique("scoped")

    def sender():
        yield from runtime.client(0).put(oid, ObjectValue.of_size(32 * MB))

    def receiver(node_id):
        yield from runtime.client(node_id).get(oid)

    cluster.sim.process(sender())
    for node_id in range(1, 6):
        cluster.sim.process(receiver(node_id))
    cluster.run()
    return cluster.fastpath_stats.as_dict()


def test_back_to_back_runs_report_identical_counters():
    """The counters are per cluster: no reset call, no bleed-through.

    With the old module-global STATS, the second run either reported the
    accumulated totals of both runs or required a manual reset between
    them; per-cluster scoping makes both failure modes impossible.
    """
    first = _broadcast_fastpath_counts()
    second = _broadcast_fastpath_counts()
    assert set(first) == set(COUNTER_KEYS)
    assert first["coalesced_runs"] > 0, "broadcast should coalesce"
    assert first == second
