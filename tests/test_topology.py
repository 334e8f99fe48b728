"""Tests for the hierarchical fabric model and topology-aware collectives.

Covers the :class:`~repro.net.topology.Topology` spec, the instantiated
:class:`~repro.net.topology.Fabric` (slot math, path link claims, per-tier
accounting), the flat-equivalence guarantee (``Topology.flat(n)`` reproduces
the default fabric exactly), the locality invariants (intra-rack traffic
never touches a shared tier link — property-tested over random shapes), and
the 4:1-oversubscription regression: topology-aware broadcast and allreduce
beat the ``topology_aware=False`` ablation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import (
    collect_flow_usage,
    measure_allgather,
    measure_allreduce,
    measure_broadcast,
    measure_reduce,
    rack_interleaved_delays,
)
from repro.core.hierarchical import HierarchicalReduceExecution
from repro.core.options import HopliteOptions
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.flowsched import Flow, FlowClass, Reservation
from repro.net.topology import Topology
from repro.net.transport import transfer_bytes
from repro.store.objects import ObjectID, ObjectValue, ReduceOp

MB = 1024 * 1024


# ---------------------------------------------------------------------------
# Topology spec
# ---------------------------------------------------------------------------


def test_topology_shape_accessors():
    topo = Topology(rack_sizes=(2, 3, 1), rack_zones=(0, 0, 1))
    assert topo.num_nodes == 6
    assert topo.num_racks == 3
    assert topo.num_zones == 2
    assert [topo.rack_of(i) for i in range(6)] == [0, 0, 1, 1, 1, 2]
    assert topo.zone_of(0) == 0 and topo.zone_of(5) == 1
    assert list(topo.rack_nodes(1)) == [2, 3, 4]
    assert topo.same_rack(2, 4) and not topo.same_rack(1, 2)
    assert topo.same_zone(0, 4) and not topo.same_zone(0, 5)
    # distance classes: self < rack < zone < cross-zone
    assert topo.distance(2, 2) == 0
    assert topo.distance(2, 3) == 1
    assert topo.distance(0, 2) == 2
    assert topo.distance(0, 5) == 3


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(rack_sizes=())
    with pytest.raises(ValueError):
        Topology(rack_sizes=(2, 0))
    with pytest.raises(ValueError):
        Topology(rack_sizes=(2, 2), rack_zones=(0,))
    with pytest.raises(ValueError):
        Topology(rack_sizes=(2,), oversubscription=0.5)
    with pytest.raises(ValueError):
        Topology(rack_sizes=(2,), rack_latency=-1.0)
    with pytest.raises(ValueError):
        Topology(rack_sizes=(2,), nic_bandwidths=(1e9,))
    with pytest.raises(ValueError):
        Topology(rack_sizes=(2,), nic_bandwidths=(1e9, -1e9))
    with pytest.raises(ValueError):
        Topology.flat(0)
    with pytest.raises(ValueError):
        Topology.racks(0, 4)


def test_flat_topology_is_flat_and_hierarchies_are_not():
    assert Topology.flat(8).is_flat
    assert not Topology.racks(2, 4).is_flat
    # A single rack with heterogeneous NICs is not flat either.
    assert not Topology(rack_sizes=(4,), nic_bandwidths=(None, None, None, 5e8)).is_flat


def test_cluster_rejects_mismatched_topology():
    with pytest.raises(ValueError):
        Cluster(num_nodes=4, network=NetworkConfig(topology=Topology.racks(2, 4)))


# ---------------------------------------------------------------------------
# Fabric instantiation: slots, paths, timing
# ---------------------------------------------------------------------------


def test_fabric_slot_quantization():
    base = NetworkConfig().bandwidth
    # 4 nodes at 2:1 -> 2 full-rate slots.
    cluster = Cluster(8, topology=Topology.racks(2, 4, oversubscription=2.0))
    link = cluster.fabric.rack_up[0]
    assert link.capacity == 2 and link.slot_bandwidth == pytest.approx(base)
    # 4 nodes at 4:1 -> 1 full-rate slot.
    cluster = Cluster(8, topology=Topology.racks(2, 4, oversubscription=4.0))
    link = cluster.fabric.rack_up[0]
    assert link.capacity == 1 and link.slot_bandwidth == pytest.approx(base)
    # 4 nodes at 8:1 -> 1 half-rate slot (sub-NIC aggregate still bites).
    cluster = Cluster(8, topology=Topology.racks(2, 4, oversubscription=8.0))
    link = cluster.fabric.rack_up[0]
    assert link.capacity == 1 and link.slot_bandwidth == pytest.approx(base / 2)


def test_fabric_path_links_by_tier():
    topo = Topology.racks(4, 2, zones=(0, 0, 1, 1))
    cluster = Cluster(8, topology=topo)
    fabric = cluster.fabric
    assert fabric.path_links(0, 1) == ()  # same rack
    cross_rack = fabric.path_links(0, 2)  # same zone
    assert [link.tier for link in cross_rack] == ["rack_up", "rack_down"]
    cross_zone = fabric.path_links(0, 6)
    assert [link.tier for link in cross_zone] == [
        "rack_up",
        "zone_up",
        "zone_down",
        "rack_down",
    ]


def test_fabric_tier_latency_and_hetero_nic_timing():
    topo = Topology.racks(
        2,
        2,
        zones=(0, 1),
        rack_latency=1e-3,
        zone_latency=2e-3,
        nic_bandwidths=(None, 2.5e8, None, None),
    )
    config = NetworkConfig(topology=topo)
    cluster = Cluster(4, network=config)
    fabric = cluster.fabric
    assert fabric.latency(0, 1) == config.latency
    assert fabric.latency(0, 2) == pytest.approx(config.latency + 1e-3 + 2e-3)
    # The slow NIC bounds both directions of its transfers.
    assert fabric.transmission_time(0, 1, MB) == pytest.approx(MB / 2.5e8)
    assert fabric.transmission_time(1, 0, MB) == pytest.approx(MB / 2.5e8)
    assert fabric.transmission_time(2, 3, MB) == pytest.approx(MB / config.bandwidth)


def test_cross_rack_reservation_claims_tier_links():
    cluster = Cluster(8, topology=Topology.racks(2, 4, oversubscription=4.0))
    src, dst = cluster.node(0), cluster.node(4)
    reservation = Reservation(src, dst, MB, Flow("x", FlowClass.BULK))
    assert reservation.granted
    assert cluster.fabric.rack_up[0].resource.in_use == 1
    assert cluster.fabric.rack_down[1].resource.in_use == 1
    # A second cross-rack flow out of rack 0 must wait for the single slot.
    second = Reservation(cluster.node(1), cluster.node(5), MB, Flow("y"))
    assert not second.granted
    # ... but an intra-rack flow is admitted immediately (holds no tier slot).
    intra = Reservation(cluster.node(2), cluster.node(3), MB, Flow("z"))
    assert intra.granted
    intra.release()
    reservation.release()
    assert second.granted
    second.release()
    assert cluster.fabric.rack_up[0].resource.in_use == 0
    # Released holds were accounted on the tier link schedulers.
    assert cluster.fabric.rack_up[0].sched.bytes_by_flow == {"x": MB, "y": MB}


def test_per_tier_stats_nonzero_only_for_cross_rack_traffic():
    """Acceptance: tier stats are non-zero exactly when traffic crossed racks."""
    topo = Topology.racks(2, 2, oversubscription=2.0)

    def run(pairs):
        cluster = Cluster(4, topology=topo)
        for src, dst in pairs:
            cluster.sim.process(
                transfer_bytes(cluster.config, cluster.node(src), cluster.node(dst), 8 * MB)
            )
        cluster.run()
        return collect_flow_usage(cluster)

    intra = run([(0, 1), (3, 2)])
    assert intra["tier_bytes"]["rack_uplink"] == 0
    assert intra["tier_busy_time"]["rack_uplink"] == 0.0
    assert intra["cross_rack_fraction"] == 0.0
    assert intra["tier_bytes"]["nic"] == 16 * MB

    cross = run([(0, 1), (0, 2)])
    assert cross["tier_bytes"]["rack_uplink"] == 8 * MB
    assert cross["tier_busy_time"]["rack_uplink"] > 0.0
    assert cross["cross_rack_fraction"] == pytest.approx(0.5)


@settings(max_examples=30, deadline=None)
@given(
    rack_sizes=st.lists(st.integers(min_value=2, max_value=4), min_size=2, max_size=4),
    oversubscription=st.sampled_from([1.0, 2.0, 4.0]),
    data=st.data(),
)
def test_intra_rack_traffic_never_reserves_spine_links(
    rack_sizes, oversubscription, data
):
    """Property: transfers that stay inside a rack touch no shared tier link."""
    topo = Topology(
        rack_sizes=tuple(rack_sizes),
        rack_zones=tuple(index % 2 for index in range(len(rack_sizes))),
        oversubscription=oversubscription,
    )
    cluster = Cluster(topo.num_nodes, topology=topo)
    # A handful of random intra-rack (src, dst) pairs, possibly concurrent.
    num_transfers = data.draw(st.integers(min_value=1, max_value=4))
    for _ in range(num_transfers):
        rack = data.draw(st.integers(min_value=0, max_value=len(rack_sizes) - 1))
        nodes = list(topo.rack_nodes(rack))
        src = data.draw(st.sampled_from(nodes))
        dst = data.draw(st.sampled_from([n for n in nodes if n != src]))
        cluster.sim.process(
            transfer_bytes(cluster.config, cluster.node(src), cluster.node(dst), 2 * MB)
        )
    cluster.run()
    for link in cluster.fabric.iter_links():
        assert link.sched.reservations_granted == 0, link.name
        assert sum(link.sched.bytes_by_class.values()) == 0, link.name
        assert link.resource.in_use == 0, link.name


# ---------------------------------------------------------------------------
# Flat equivalence: Topology.flat(n) reproduces the default results exactly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "measure,kwargs",
    [
        (measure_broadcast, {}),
        (measure_reduce, {}),
        (measure_allreduce, {}),
        (measure_allgather, {}),
    ],
)
def test_flat_topology_reproduces_default_results_exactly(measure, kwargs, monkeypatch):
    import itertools

    from repro.store import objects as objects_module

    # The scenarios allocate ObjectIDs through the process-global unique()
    # counter and the directory's tie-break hashes the resulting keys, so
    # two otherwise-identical runs in one process schedule differently.
    # Pin the counter before each run to compare them bit for bit.
    monkeypatch.setattr(objects_module, "_id_counter", itertools.count())
    default = measure("hoplite", 8, 4 * MB, **kwargs)
    monkeypatch.setattr(objects_module, "_id_counter", itertools.count())
    flat = measure(
        "hoplite",
        8,
        4 * MB,
        network=NetworkConfig(topology=Topology.flat(8)),
        **kwargs,
    )
    assert flat == default  # bit-for-bit, not approximately


# ---------------------------------------------------------------------------
# Topology-aware collectives
# ---------------------------------------------------------------------------


def test_topology_aware_beats_oblivious_at_4_to_1():
    """Acceptance regression: 4:1 oversubscription, aware < oblivious.

    Arrival order is interleaved round-robin across racks (placement
    uncorrelated with node ids): synchronized id-ordered arrival happens to
    build rack-contiguous chains even without topology awareness, so the
    oblivious ablation only degrades once arrivals scatter.
    """
    num_racks, nodes_per_rack = 4, 4
    num_nodes = num_racks * nodes_per_rack
    network = NetworkConfig(
        topology=Topology.racks(num_racks, nodes_per_rack, oversubscription=4.0)
    )
    aware = HopliteOptions(topology_aware=True)
    oblivious = HopliteOptions(topology_aware=False)
    delays = rack_interleaved_delays(num_racks, nodes_per_rack)

    aware_stats: dict = {}
    bcast_aware = measure_broadcast(
        "hoplite",
        num_nodes,
        16 * MB,
        arrival_delays=delays[1:],
        network=network,
        options=aware,
        flow_stats=aware_stats,
    )
    bcast_oblivious = measure_broadcast(
        "hoplite",
        num_nodes,
        16 * MB,
        arrival_delays=delays[1:],
        network=network,
        options=oblivious,
    )
    assert bcast_aware < bcast_oblivious, (bcast_aware, bcast_oblivious)
    # Rack-aware relaying: roughly one cross-rack transfer per remote rack,
    # far below the one-per-receiver of the oblivious chain.
    assert aware_stats["cross_rack_fraction"] <= 0.35, aware_stats

    allred_aware = measure_allreduce(
        "hoplite",
        num_nodes,
        16 * MB,
        arrival_delays=delays,
        network=network,
        options=aware,
    )
    allred_oblivious = measure_allreduce(
        "hoplite",
        num_nodes,
        16 * MB,
        arrival_delays=delays,
        network=network,
        options=oblivious,
    )
    assert allred_aware < allred_oblivious, (allred_aware, allred_oblivious)


def test_rack_locality_survives_objects_larger_than_the_detection_delay():
    """The locality-park budget scales with the object's service time.

    A fixed failure_detection_delay budget expires mid-stream for objects
    whose serialization time exceeds it, and every parked rack-mate then
    falls back cross-rack — doubling the tier traffic exactly for the large
    objects that hurt most.  256 MB serializes in ~0.21 s > the 0.1 s
    detection delay, so this pins the service-time-scaled budget.
    """
    num_racks, nodes_per_rack = 4, 4
    network = NetworkConfig(
        topology=Topology.racks(num_racks, nodes_per_rack, oversubscription=4.0)
    )
    delays = rack_interleaved_delays(num_racks, nodes_per_rack)
    stats: dict = {}
    measure_broadcast(
        "hoplite",
        num_racks * nodes_per_rack,
        256 * MB,
        arrival_delays=delays[1:],
        network=network,
        options=HopliteOptions(topology_aware=True),
        flow_stats=stats,
    )
    # One cross-rack transfer per remote rack: 3 of 15 = 0.2 of NIC bytes.
    assert stats["cross_rack_fraction"] <= 0.25, stats["cross_rack_fraction"]


def test_topology_aware_is_safe_when_fabric_does_not_bind():
    """At 1:1 the aware mode must not regress materially vs oblivious."""
    network = NetworkConfig(topology=Topology.racks(2, 4, oversubscription=1.0))
    aware = measure_broadcast(
        "hoplite", 8, 8 * MB, network=network, options=HopliteOptions(topology_aware=True)
    )
    oblivious = measure_broadcast(
        "hoplite", 8, 8 * MB, network=network, options=HopliteOptions(topology_aware=False)
    )
    assert aware <= oblivious * 1.10, (aware, oblivious)


# ---------------------------------------------------------------------------
# Hierarchical reduce
# ---------------------------------------------------------------------------


def _put_sources(runtime, cluster, num_nodes, tag):
    source_ids = [ObjectID.of(f"{tag}-src-{i}") for i in range(num_nodes)]

    def put(node_id):
        yield from runtime.client(node_id).put(
            source_ids[node_id],
            ObjectValue.from_array(np.full(4, float(node_id + 1)), logical_size=4 * MB),
        )

    procs = [cluster.sim.process(put(i)) for i in range(num_nodes)]
    return source_ids, procs


def test_hierarchical_reduce_correctness_and_structure():
    topo = Topology.racks(2, 4, oversubscription=4.0)
    cluster = Cluster(8, topology=topo)
    runtime = HopliteRuntime(cluster, options=HopliteOptions(topology_aware=True))
    source_ids, _ = _put_sources(runtime, cluster, 8, "hier")
    target_id = ObjectID.of("hier-target")
    done = {}

    def scenario():
        result = yield from runtime.client(0).reduce(target_id, source_ids, ReduceOp.SUM)
        value = yield from runtime.client(0).get(target_id)
        done["result"] = result
        done["value"] = value

    cluster.sim.process(scenario())
    cluster.run()
    assert np.allclose(done["value"].as_array(), sum(range(1, 9)))
    assert len(done["result"].reduced_ids) == 8
    assert done["result"].unreduced_ids == []
    # The registry entry is cleaned up on completion.
    assert target_id not in runtime.active_reductions


def test_hierarchical_reduce_single_stream_per_rack():
    """The inter-rack phase moves one shard's worth of bytes per rack."""
    topo = Topology.racks(2, 4, oversubscription=4.0)
    cluster = Cluster(8, topology=topo)
    runtime = HopliteRuntime(cluster, options=HopliteOptions(topology_aware=True))
    source_ids, _ = _put_sources(runtime, cluster, 8, "hier-bytes")
    target_id = ObjectID.of("hier-bytes-target")

    def scenario():
        yield from runtime.client(0).reduce(target_id, source_ids, ReduceOp.SUM)
        yield from runtime.client(0).get(target_id)

    cluster.sim.process(scenario())
    cluster.run()
    stats = collect_flow_usage(cluster)
    # The reduce crosses racks exactly once (one rack partial streamed to
    # the top tree; the other rack hosts the top root): cross-rack bytes
    # stay within a couple of object sizes instead of one per participant.
    assert 0 < stats["tier_bytes"]["rack_uplink"] <= 2 * 4 * MB, stats["tier_bytes"]


def test_hierarchical_reduce_adoption_and_flat_fallback():
    topo = Topology.racks(2, 4, oversubscription=2.0)
    cluster = Cluster(8, topology=topo)
    runtime = HopliteRuntime(cluster, options=HopliteOptions(topology_aware=True))
    source_ids, _ = _put_sources(runtime, cluster, 8, "hier-adopt")
    target_id = ObjectID.of("hier-adopt-target")

    from repro.core.reduce import adopt_or_create_reduction

    first = adopt_or_create_reduction(
        runtime, cluster.node(0), target_id, source_ids, ReduceOp.SUM
    )
    assert isinstance(first, HierarchicalReduceExecution)
    first._ensure_driver()
    # A re-executed caller issuing the same Reduce adopts the composition.
    second = adopt_or_create_reduction(
        runtime, cluster.node(1), target_id, source_ids, ReduceOp.SUM
    )
    assert second is first
    assert runtime.reduce_adoptions == 1
    done = {}

    def run_it():
        result = yield from first.run()
        done["result"] = result

    cluster.sim.process(run_it())
    cluster.run()
    assert len(done["result"].reduced_ids) == 8

    # Oblivious runtimes and small reductions keep the flat dynamic tree.
    oblivious = HopliteRuntime(
        Cluster(8, topology=topo), options=HopliteOptions(topology_aware=False)
    )
    from repro.core.reduce import ReduceExecution

    flat = adopt_or_create_reduction(
        oblivious,
        oblivious.cluster.node(0),
        ObjectID.of("flat-target"),
        source_ids,
        ReduceOp.SUM,
    )
    assert isinstance(flat, ReduceExecution)


def test_hierarchical_reduce_starts_before_last_arrival():
    """A straggling Put must not stall the rack trees (start-on-first-arrival).

    The flat dynamic tree starts reducing at the *first* ready source; the
    hierarchical composition must preserve that under staggered arrivals by
    growing each rack's tree incrementally — a straggler joins its rack's
    running partial as one chained fold stage instead of gating the whole
    grouping pass on the last arrival.
    """
    import repro.core.hierarchical as hierarchical_mod

    topo = Topology.racks(2, 3, oversubscription=4.0)
    cluster = Cluster(6, topology=topo)
    runtime = HopliteRuntime(cluster, options=HopliteOptions(topology_aware=True))
    sim = cluster.sim
    source_ids = [ObjectID.of(f"hier-jitter-src-{i}") for i in range(6)]
    delays = [0.0, 0.0, 0.0, 0.0, 0.0, 0.5]

    def put(node_id):
        if delays[node_id]:
            yield sim.timeout(delays[node_id])
        yield from runtime.client(node_id).put(
            source_ids[node_id],
            ObjectValue.from_array(np.full(4, float(node_id + 1)), logical_size=4 * MB),
        )

    for i in range(6):
        sim.process(put(i))

    created = []
    real = hierarchical_mod.ReduceExecution

    def spy(runtime_, caller, target_id, src, op, **kwargs):
        created.append((sim.now, target_id.key))
        return real(runtime_, caller, target_id, src, op, **kwargs)

    target_id = ObjectID.of("hier-jitter-target")
    done = {}

    def scenario():
        result = yield from runtime.client(0).reduce(target_id, source_ids, ReduceOp.SUM)
        value = yield from runtime.client(0).get(target_id)
        done["result"] = result
        done["value"] = value

    sim.process(scenario())
    hierarchical_mod.ReduceExecution = spy
    try:
        cluster.run()
    finally:
        hierarchical_mod.ReduceExecution = real

    rack_creations = [t for t, key in created if "-rack" in key]
    assert rack_creations, "expected per-rack executions"
    # Both racks have two ready sources at t=0; their trees must start well
    # before the straggler's Put at t=0.5.
    assert min(rack_creations) < 0.5, rack_creations
    # The straggler joined as a chained fold stage, not a restart.
    assert any(key.endswith("-g1") for _t, key in created), created
    assert np.allclose(done["value"].as_array(), sum(range(1, 7)))
    assert sorted(o.key for o in done["result"].reduced_ids) == sorted(
        o.key for o in source_ids
    )
    assert done["result"].unreduced_ids == []
