"""Per-block kernel objects are freed by reference counting.

Every block a Hoplite stream moves races its wait against a peer's failure
and queues an admission request.  These tests pin down that none of those
objects outlives its work: no failure listener stays registered once its
wait is over, and no race, request or finished process is left in a
reference cycle for the cyclic garbage collector to find.
"""

import gc
from collections import Counter

import numpy as np
import pytest

from repro.bench.scenarios import measure_allgather, measure_allreduce
from repro.core import HopliteRuntime, ObjectID, ObjectValue, ReduceOp
from repro.core.reduce import ReduceExecution
from repro.net import Cluster, NetworkConfig
from repro.sim import MultiRequest, Resource, Simulator

MB = 1024 * 1024

#: kernel classes that must never end up in cyclic garbage.
PER_BLOCK_KINDS = {"AnyOf", "AllOf", "MultiRequest", "_Request", "Process", "Timeout"}


def _cyclic_garbage(run) -> Counter:
    """Run ``run()`` with the collector off; count what only it could free."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_kernel_objects_are_freed_by_reference_counting():
    def scenario():
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        other = Resource(sim, capacity=1)

        def worker(name):
            with resource.request() as request:
                yield request
                yield sim.timeout(1.0)
            joint = MultiRequest(sim, [(resource, 1), (other, 1)])
            yield joint
            joint.release()
            # A race won by one side, lost by the other (never fires).
            yield sim.any_of([sim.timeout(0.5), sim.event()])
            yield sim.all_of([sim.timeout(0.1), sim.timeout(0.2)])
            return name

        def failing():
            gate = sim.event()
            gate.fail(ValueError("gate"))
            try:
                yield sim.all_of([gate, sim.event()])
            except ValueError:
                pass

        procs = [sim.process(worker(i)) for i in range(3)]
        sim.process(failing())
        sim.run()
        assert [proc.value for proc in procs] == [0, 1, 2]

    counts = _cyclic_garbage(scenario)
    leaked = {kind: counts[kind] for kind in PER_BLOCK_KINDS if counts[kind]}
    assert not leaked, leaked


@pytest.mark.parametrize("measure", [measure_allgather, measure_allreduce])
def test_cyclic_garbage_does_not_scale_with_blocks(measure):
    small = _cyclic_garbage(lambda: measure("hoplite", 8, 8 * MB))
    large = _cyclic_garbage(lambda: measure("hoplite", 8, 64 * MB))
    for counts in (small, large):
        leaked = {kind: counts[kind] for kind in PER_BLOCK_KINDS if counts[kind]}
        assert not leaked, leaked
    small_total, large_total = sum(small.values()), sum(large.values())
    assert large_total <= 1.15 * small_total, (small_total, large_total)


# ---------------------------------------------------------------------------
# Listener hygiene after fault-free collectives
# ---------------------------------------------------------------------------


def _run_collective(kind: str, nbytes: int, num_nodes: int = 8):
    cluster = Cluster(num_nodes=num_nodes, network=NetworkConfig())
    runtime = HopliteRuntime(cluster)
    sim = cluster.sim
    source_ids = [ObjectID.of(f"{kind}-src-{i}") for i in range(num_nodes)]
    target_id = ObjectID.of(f"{kind}-target")
    done = []

    def participant(node_id):
        client = runtime.client(node_id)
        value = ObjectValue.from_array(np.full(4, float(node_id + 1)), logical_size=nbytes)
        yield from client.put(source_ids[node_id], value)
        if kind == "allgather":
            yield from client.allgather(source_ids)
        elif kind == "allreduce":
            yield from client.allreduce(target_id, source_ids, ReduceOp.SUM)
        elif node_id == 0:
            yield from client.reduce(target_id, source_ids, ReduceOp.SUM)
        done.append(node_id)

    for node_id in range(num_nodes):
        sim.process(participant(node_id))
    cluster.run(until=60.0)
    assert sorted(done) == list(range(num_nodes))
    return cluster


def _subscriber_names(cluster) -> list[list[str]]:
    return [
        [getattr(cb, "__qualname__", type(cb).__name__) for cb in node.failure_listeners]
        for node in cluster.nodes
    ]


@pytest.mark.parametrize("kind", ["allgather", "allreduce", "reduce"])
def test_fault_free_collective_leaves_only_runtime_subscribers(kind):
    small = _subscriber_names(_run_collective(kind, 8 * MB))
    large = _subscriber_names(_run_collective(kind, 64 * MB))
    assert small == large
    runtime_subscribers = [
        "NodeObjectManager._on_failure",
        "LocalObjectStore._on_node_failure",
        "ObjectDirectory._on_node_failure",
    ]
    for names in small:
        assert sorted(names) == sorted(runtime_subscribers), names


def test_finished_reduce_execution_leaves_no_hook(monkeypatch):
    hooked = []
    original = ReduceExecution._hook_failures

    def _record(self):
        hooked.append(self)
        original(self)

    monkeypatch.setattr(ReduceExecution, "_hook_failures", _record)
    cluster = _run_collective("reduce", 8 * MB)
    assert hooked and all(execution._finished.processed for execution in hooked)
    for node in cluster.nodes:
        owners = [getattr(cb, "__self__", None) for cb in node.failure_listeners]
        assert not any(isinstance(owner, ReduceExecution) for owner in owners)


# ---------------------------------------------------------------------------
# Node.race_failure and the one-shot notifiers
# ---------------------------------------------------------------------------


def _listener_counts(cluster) -> list[int]:
    return [len(node.failure_listeners) for node in cluster.nodes]


def test_race_failure_withdraws_when_the_event_wins():
    cluster = Cluster(num_nodes=3)
    sim = cluster.sim
    a, b = cluster.node(0), cluster.node(1)
    before = _listener_counts(cluster)
    gate = sim.event()
    race = a.race_failure(gate, b)
    assert len(a.failure_listeners) == before[0] + 1
    assert len(b.failure_listeners) == before[1] + 1
    gate.succeed("block")
    sim.run()
    assert race.ok and race.value == ["block"]
    assert _listener_counts(cluster) == before
    assert race.events == []


def test_race_failure_withdraws_when_a_peer_dies():
    cluster = Cluster(num_nodes=3)
    sim = cluster.sim
    a, b = cluster.node(0), cluster.node(1)
    before = _listener_counts(cluster)
    gate = sim.event()
    race = a.race_failure(gate, b)
    b.fail()
    sim.run()
    assert race.ok and race.value == [b]
    assert _listener_counts(cluster) == before
    # The lost gate still points at the race, but the race no longer points
    # back at it: no reference cycle is left between them.
    assert race.events == []
    assert gate.callbacks


def test_race_failure_fires_at_once_on_a_dead_node():
    cluster = Cluster(num_nodes=2)
    sim = cluster.sim
    a, b = cluster.node(0), cluster.node(1)
    b.fail()
    before = _listener_counts(cluster)
    race = a.race_failure(sim.event(), b)
    assert _listener_counts(cluster) == before
    sim.run()
    assert sim.now == 0.0 and race.value == [b]


def test_race_failure_notifies_once_when_both_peers_die_together():
    cluster = Cluster(num_nodes=2)
    sim = cluster.sim
    a, b = cluster.node(0), cluster.node(1)
    race = a.race_failure(sim.event(), b)
    processed = sim.events_processed
    a.fail()
    b.fail()
    sim.run()
    # One shared failure event, then the race itself: nothing else pops.
    assert sim.events_processed - processed == 2
    assert race.value == [a]


def test_one_shot_notifiers_withdraw_when_they_fire():
    cluster = Cluster(num_nodes=1)
    sim = cluster.sim
    node = cluster.node(0)
    failed = node.failure_event()
    assert len(node.failure_listeners) == 1
    node.fail()
    assert not node.failure_listeners
    recovered = node.recovery_event()
    assert len(node.recovery_listeners) == 1
    node.recover()
    assert not node.recovery_listeners
    sim.run()
    assert failed.value is node and recovered.value is node
