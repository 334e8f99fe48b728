"""Microbenchmarks and exactness checks for coalesced block transfers.

Three properties pin the fast path (see ``net/coalesce``):

* **uncontended O(1)**: a multi-block transfer on idle, stream-exclusive
  links completes in O(1) simulator events per flow instead of O(blocks);
* **contested re-split**: the moment a competing flow claims a link, the
  run re-splits to per-block granularity — per-block interleaving and
  fair-share timing are *identical* to the reference per-block execution;
* **exactness everywhere**: completion times, per-link byte/busy
  accounting, and block-progress observations match the per-block
  reference bit for bit (the golden digests extend this to full scenarios).
"""

import pytest

from repro.net import coalesce
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.flowsched import Flow, FlowClass
from repro.net.transport import local_copy, transfer_bytes
from repro.store.objects import reset_id_counter

MB = 1024 * 1024


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_id_counter()
    yield
    coalesce.ENABLED = True


def _cluster(num_nodes=3):
    return Cluster(num_nodes=num_nodes, network=NetworkConfig())


def _drive_transfer(cluster, src, dst, nbytes, flow=None, start=0.0):
    sim = cluster.sim
    done = {}

    def _proc():
        if start:
            yield sim.timeout(start)
        yield from transfer_bytes(cluster.config, src, dst, nbytes, flow)
        done["t"] = sim.now

    sim.process(_proc(), name=f"xfer-{src.node_id}-{dst.node_id}")
    return done


def test_uncontended_transfer_is_o1_events():
    """16 blocks over an idle path: a handful of events, not ~5 per block."""
    cluster = _cluster()
    done = _drive_transfer(cluster, cluster.node(0), cluster.node(1), 64 * MB)
    cluster.run()
    events = cluster.sim.events_processed
    assert done["t"] > 0
    # Per-block this run costs ~80 events (5 per block); coalesced it is a
    # constant independent of the block count.
    assert events <= 12, events


def test_uncontended_transfer_time_matches_per_block_reference():
    coalesce.ENABLED = False
    ref_cluster = _cluster()
    ref = _drive_transfer(ref_cluster, ref_cluster.node(0), ref_cluster.node(1), 64 * MB)
    ref_cluster.run()

    coalesce.ENABLED = True
    fast_cluster = _cluster()
    fast = _drive_transfer(
        fast_cluster, fast_cluster.node(0), fast_cluster.node(1), 64 * MB
    )
    fast_cluster.run()

    assert fast["t"] == ref["t"]
    # Link accounting is replicated block by block: bytes AND busy time.
    for node_id in (0, 1):
        ref_up = ref_cluster.node(node_id).uplink_sched
        fast_up = fast_cluster.node(node_id).uplink_sched
        assert fast_up.bytes_by_class == ref_up.bytes_by_class
        assert fast_up.busy_time == ref_up.busy_time
        assert fast_up.reservations_granted == ref_up.reservations_granted


def _two_flow_times(enabled, stagger=0.01):
    """Two flows sharing node 0's uplink; the second arrives mid-run."""
    coalesce.ENABLED = enabled
    cluster = _cluster(3)
    flow_a = Flow("a", FlowClass.BULK)
    flow_b = Flow("b", FlowClass.BULK)
    done_a = _drive_transfer(cluster, cluster.node(0), cluster.node(1), 64 * MB, flow_a)
    done_b = _drive_transfer(
        cluster, cluster.node(0), cluster.node(2), 64 * MB, flow_b, start=stagger
    )
    cluster.run()
    scheds = {
        node.node_id: dict(node.uplink_sched.bytes_by_class)
        for node in cluster.nodes
    }
    return done_a["t"], done_b["t"], scheds, cluster.node(0).uplink_sched.busy_time


def test_contested_run_resplits_to_per_block_fair_share():
    """A competitor arriving mid-run forces a re-split: per-block interleaving
    and fair-share completion times are bit-identical to the reference."""
    ref = _two_flow_times(enabled=False)
    fast = _two_flow_times(enabled=True)
    assert fast == ref
    # The shared uplink really was time-shared: the first flow finishes later
    # than an uncontended run would (its tail interleaves with flow b).
    solo_cluster = _cluster()
    solo = _drive_transfer(solo_cluster, solo_cluster.node(0), solo_cluster.node(1), 64 * MB)
    solo_cluster.run()
    assert ref[0] > solo["t"]


def test_contested_run_with_simultaneous_start_matches_reference():
    """Both flows start at t=0: neither may coalesce past the other."""
    ref = _two_flow_times(enabled=False, stagger=0.0)
    fast = _two_flow_times(enabled=True, stagger=0.0)
    assert fast == ref


def test_local_copy_coalesces_and_matches_reference():
    results = {}
    for enabled in (False, True):
        coalesce.ENABLED = enabled
        cluster = _cluster(1)
        sim = cluster.sim
        done = {}

        def _proc():
            yield from local_copy(cluster.config, cluster.node(0), 64 * MB)
            done["t"] = sim.now

        sim.process(_proc(), name="copy")
        cluster.run()
        results[enabled] = (done["t"], sim.events_processed)
    assert results[True][0] == results[False][0]
    # 16 blocks: per-block pays ~2 events each, coalesced is O(1).
    assert results[True][1] <= 6, results[True][1]
    assert results[False][1] >= 30, results[False][1]


def test_pull_cascade_is_o1_events_per_hop():
    """A put feeding a chain of gets: every hop rides the arithmetic
    schedule of the hop above it (the relay cascade)."""
    from repro.core.runtime import HopliteRuntime
    from repro.store.objects import ObjectID, ObjectValue

    def _run(enabled):
        coalesce.ENABLED = enabled
        cluster = _cluster(4)
        runtime = HopliteRuntime(cluster)
        sim = cluster.sim
        object_id = ObjectID.of("chain-obj")
        finish = {}

        def _put():
            yield from runtime.client(cluster.node(0)).put(
                object_id, ObjectValue.of_size(64 * MB)
            )

        def _get(node_id):
            yield from runtime.client(cluster.node(node_id)).get(object_id)
            finish[node_id] = sim.now

        sim.process(_put(), name="put")
        for node_id in (1, 2, 3):
            sim.process(_get(node_id), name=f"get-{node_id}")
        cluster.run()
        return dict(finish), sim.events_processed

    ref_finish, ref_events = _run(False)
    fast_finish, fast_events = _run(True)
    assert fast_finish == ref_finish
    # 3 receivers x 16 blocks: the reference pays ~5 events per transferred
    # block; the cascade pays a small constant per hop.  The remaining floor
    # is the (unchanged) per-block Put copy-in and the directory RPCs.
    assert fast_events < ref_events * 0.5, (fast_events, ref_events)


def test_inflight_progress_is_readable_at_exact_times():
    """blocks_ready on a coalesced destination is exact at any instant."""
    from repro.core.runtime import HopliteRuntime
    from repro.store.objects import ObjectID, ObjectValue

    def _probe(enabled, at):
        coalesce.ENABLED = enabled
        cluster = _cluster(2)
        runtime = HopliteRuntime(cluster)
        sim = cluster.sim
        object_id = ObjectID.of("probe-obj")
        seen = {}

        def _put():
            yield from runtime.client(cluster.node(0)).put(
                object_id, ObjectValue.of_size(64 * MB)
            )

        def _get():
            yield from runtime.client(cluster.node(1)).get(object_id)

        def _prober():
            yield sim.timeout(at)
            entry = runtime.store(cluster.node(1)).try_get_entry(object_id)
            seen["ready"] = None if entry is None else entry.blocks_ready

        sim.process(_put(), name="put")
        sim.process(_get(), name="get")
        sim.process(_prober(), name="probe")
        cluster.run()
        return seen["ready"]

    for at in (0.05, 0.2, 0.31, 0.44):
        assert _probe(True, at) == _probe(False, at), at


def test_first_block_resplit_releases_in_grant_order():
    """A run re-split inside its first block releases its links in grant order.

    Topology-oblivious allgather on two 4:1 racks: two runs start at the
    same instant and re-split at different later instants.  The per-block
    chain releases their links at the shared boundary in grant order, which
    decides who the receivers admit next; releasing them in re-split order
    instead made the fast path finish at 0.2188 s against the reference
    0.2361 s.
    """
    from repro.bench.scenarios import measure_allgather
    from repro.core.options import HopliteOptions
    from repro.net.fastpath import fastpath
    from repro.net.topology import Topology

    network = NetworkConfig(topology=Topology.racks(2, 4, oversubscription=4.0))

    def _run(enabled):
        reset_id_counter()
        with fastpath(enabled):
            return measure_allgather(
                "hoplite",
                8,
                16 * MB,
                network=network,
                options=HopliteOptions(topology_aware=False),
            )

    assert _run(True) == _run(False)
