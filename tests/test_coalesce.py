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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import coalesce
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.fastpath import fastpath
from repro.net.flowsched import Flow, FlowClass, LinkScheduler
from repro.net.transport import local_copy, transfer_bytes
from repro.obs.flight import semantic_records
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
    # is the Put's per-block first block and the directory RPCs.
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


# ---------------------------------------------------------------------------
# Pipelined Put copy-in as a coalesced run
# ---------------------------------------------------------------------------


def _copy_in_scenario(enabled, network=None, puts=((0, 0.0),), gets=(), transfers=()):
    """Pipelined 64 MB Puts plus optional Gets and opaque transfers.

    ``puts`` are ``(node, start)``; ``gets`` are ``(node, start, put index)``;
    ``transfers`` are ``(src, dst, start)`` 64 MB handle-less streams.
    Returns what must match between fast paths on and off, and, apart,
    the copy-in runs formed (``(base, blocks)``) and the re-split count.
    """
    from repro.core.runtime import HopliteRuntime
    from repro.store.objects import ObjectID, ObjectValue

    reset_id_counter()
    copy_runs = []
    orig_init = coalesce.CoalescedRun.__init__

    def recording_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        if self.src is self.dst and self.entry is not None:
            copy_runs.append((self.base, self.n))

    with pytest.MonkeyPatch.context() as patch, fastpath(enabled):
        patch.setattr(coalesce.CoalescedRun, "__init__", recording_init)
        cluster = Cluster(num_nodes=3, network=network or NetworkConfig())
        recorder = cluster.enable_flight_recorder()
        runtime = HopliteRuntime(cluster)
        sim = cluster.sim
        object_ids = [ObjectID.of(f"copy-in-{i}") for i in range(len(puts))]
        finish = {}

        def _after(start, body, key):
            if start:
                yield sim.timeout(start)
            yield from body()
            finish[key] = sim.now

        for i, (node_id, start) in enumerate(puts):
            client = runtime.client(cluster.node(node_id))
            body = lambda c=client, o=object_ids[i]: c.put(o, ObjectValue.of_size(64 * MB))
            sim.process(_after(start, body, ("put", i)), name=f"put-{i}")
        for node_id, start, i in gets:
            client = runtime.client(cluster.node(node_id))
            body = lambda c=client, o=object_ids[i]: c.get(o)
            sim.process(_after(start, body, ("get", node_id)), name=f"get-{node_id}")
        for src, dst, start in transfers:
            body = lambda s=cluster.node(src), d=cluster.node(dst): transfer_bytes(
                cluster.config, s, d, 64 * MB
            )
            sim.process(_after(start, body, ("xfer", src, dst)), name="xfer")
        cluster.run()
    links = {
        (node.node_id, direction): (
            dict(sched.bytes_by_class),
            sched.busy_time,
            sched.reservations_granted,
        )
        for node in cluster.nodes
        for direction, sched in (("up", node.uplink_sched), ("down", node.downlink_sched))
    }
    stores = {
        node_id: (dict(store.flow_bytes_in), dict(store.flow_bytes_out))
        for node_id, store in runtime.stores.items()
    }
    observed = (finish, links, stores, semantic_records(recorder.records))
    return observed, copy_runs, cluster.fastpath_stats["resplits"]


def test_put_copy_in_is_one_run_from_block_one():
    """A lone pipelined Put copies block 0 per-block, then the other 15 blocks
    as one run; a synchronized Get afterwards and a Get streaming from the
    partial copy both see exactly the per-block timeline."""
    for gets in ((), ((1, 0.05, 0),), ((1, 0.0, 0),)):
        ref, ref_runs, _ = _copy_in_scenario(False, gets=gets)
        fast, fast_runs, resplits = _copy_in_scenario(True, gets=gets)
        assert fast == ref, gets
        assert ref_runs == []
        assert fast_runs == [(1, 15)], gets
        assert resplits == 0


def test_put_copy_in_run_has_o1_events():
    from repro.core.runtime import HopliteRuntime
    from repro.store.objects import ObjectID, ObjectValue

    cluster_events = {}
    for enabled in (False, True):
        reset_id_counter()
        with fastpath(enabled):
            cluster = _cluster(1)
            runtime = HopliteRuntime(cluster)
            client = runtime.client(cluster.node(0))
            cluster.sim.process(
                client.put(ObjectID.of("lone"), ObjectValue.of_size(64 * MB)), name="put"
            )
            cluster.run()
            cluster_events[enabled] = cluster.sim.events_processed
    # Per-block the copy-in pays ~2 events for each of its 16 blocks; the run
    # replaces 15 of them with a constant.
    assert cluster_events[False] - cluster_events[True] >= 25, cluster_events


def test_second_put_mid_copy_in_resplits_identically():
    """A second Put on the same node joins the memcpy channel mid-run: the
    first Put's run re-splits and both Puts interleave exactly per-block."""
    puts = ((0, 0.0), (0, 0.004))
    gets = ((1, 0.0, 0), (2, 0.0, 1))
    ref, _, _ = _copy_in_scenario(False, puts=puts, gets=gets)
    fast, fast_runs, resplits = _copy_in_scenario(True, puts=puts, gets=gets)
    assert fast == ref
    assert fast_runs and fast_runs[0] == (1, 15)
    assert resplits >= 1


def test_decoalescing_consumer_mid_copy_in_resplits_identically():
    """A Get whose downlink is contended parks on the Put's arithmetic
    schedule, opts out of it (``decoalesce``) and re-splits the copy-in."""
    # A slow memcpy channel, so the Get catches up with the copy-in.
    network = NetworkConfig(memcpy_bandwidth=2.5e8)
    gets = ((1, 0.0, 0),)
    transfers = ((2, 1, 0.0),)
    ref, _, _ = _copy_in_scenario(False, network, gets=gets, transfers=transfers)
    fast, fast_runs, resplits = _copy_in_scenario(
        True, network, gets=gets, transfers=transfers
    )
    assert fast == ref
    assert fast_runs == [(1, 15)]
    assert resplits >= 1


# ---------------------------------------------------------------------------
# Bulk bookkeeping helpers
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    holds=st.lists(
        st.floats(min_value=1e-9, max_value=1.0, allow_nan=False), min_size=1, max_size=20
    ),
    # A nonzero starting total, so a summed-then-added shortcut rounds
    # differently from adding the holds one at a time.
    start=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    data=st.data(),
)
def test_bulk_link_account_equals_sequential_account(holds, start, data):
    sizes = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=8 * MB),
            min_size=len(holds),
            max_size=len(holds),
        )
    )
    lo = data.draw(st.integers(min_value=0, max_value=len(holds)))
    hi = data.draw(st.integers(min_value=lo, max_value=len(holds)))
    flow = Flow("f", FlowClass.REDUCE_PARTIAL)
    cluster = _cluster(1)
    node = cluster.node(0)
    bulk = LinkScheduler(cluster.sim, node.uplink, "up")
    single = LinkScheduler(cluster.sim, node.uplink, "up")
    for sched in (bulk, single):
        sched.busy_time = start
    bulk.account_blocks(flow, sizes[lo:hi], holds[lo:hi])
    for j in range(lo, hi):
        single.account(flow, sizes[j], holds[j])
    assert bulk.busy_time == single.busy_time  # bit for bit
    assert bulk.bytes_by_flow == single.bytes_by_flow
    assert bulk.bytes_by_class == single.bytes_by_class
    assert bulk.reservations_granted == single.reservations_granted


@settings(max_examples=60, deadline=None)
@given(
    block_size=st.integers(min_value=1, max_value=64),
    nbytes=st.integers(min_value=0, max_value=1024),
    data=st.data(),
)
def test_block_sizes_equal_per_block_sizes(block_size, nbytes, data):
    config = NetworkConfig(block_size=block_size)
    total = config.num_blocks(nbytes)
    lo = data.draw(st.integers(min_value=0, max_value=total))
    hi = data.draw(st.integers(min_value=lo, max_value=total))
    expected = [config.block_bytes(nbytes, i) for i in range(lo, hi)]
    assert config.block_sizes(nbytes, lo, hi) == expected
    sizes, times = coalesce.run_blocks(config, nbytes, lo, hi, config.memcpy_time)
    assert sizes == expected
    assert times == [config.memcpy_time(nb) for nb in expected]
    with pytest.raises(IndexError):
        config.block_sizes(nbytes, lo, total + 1)


def test_ready_times_slices_equal_per_block_ready_times():
    """Mid copy-in, the sliced ready times of the Put's entry equal the
    per-block ``ready_time_of`` values, for windows on both sides of the
    blocks already present."""
    from repro.core.runtime import HopliteRuntime
    from repro.store.objects import ObjectID, ObjectValue

    cluster = _cluster(1)
    runtime = HopliteRuntime(cluster)
    sim = cluster.sim
    object_id = ObjectID.of("ready-times")
    checked = []

    def _put():
        yield from runtime.client(cluster.node(0)).put(
            object_id, ObjectValue.of_size(64 * MB)
        )

    def _probe():
        yield sim.timeout(0.004)
        entry = runtime.store(cluster.node(0)).try_get_entry(object_id)
        assert entry._inflight is not None
        ready = entry.blocks_ready
        for lo, hi in ((0, 16), (0, ready), (ready, 16), (ready + 2, 12), (1, ready + 1)):
            expected = [coalesce.ready_time_of(entry, j) for j in range(lo, hi)]
            assert coalesce.ready_times_of(entry, lo, hi) == expected, (lo, hi)
            checked.append((lo, hi))

    sim.process(_put(), name="put")
    sim.process(_probe(), name="probe")
    cluster.run()
    assert len(checked) == 5
