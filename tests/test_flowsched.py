"""Tests for the reservation-based flow-scheduled transport.

Covers the head-of-line-blocking regression (the motivating scenario: a
sender with an idle second receiver stuck behind a busy first receiver),
reservation cancellation, priority classes, and per-flow accounting.
"""

import pytest

from repro.net import Cluster, NetworkConfig, TransferError
from repro.net.flowsched import Flow, FlowClass, FlowTransport, Reservation
from repro.net.transport import transfer_bytes

MB = 1024 * 1024


def make_cluster(num_nodes=4, **overrides):
    config = NetworkConfig(**overrides)
    return Cluster(num_nodes=num_nodes, network=config), config


# ---------------------------------------------------------------------------
# Head-of-line blocking regression
# ---------------------------------------------------------------------------


def _hol_scenario(config):
    """Sender A feeds a busy receiver B and an idle receiver C.

    D occupies B's downlink with one long transmission.  A sender that held
    its uplink while A->B waited for B's downlink would starve the A->C flow
    even though both of its links are idle.  Returns the per-flow finish
    times.
    """
    from repro.net.transport import transfer_block

    cluster = Cluster(num_nodes=4, network=config)
    sim = cluster.sim
    a, b, c, d = (cluster.node(i) for i in range(4))
    finish = {}

    def move(src, dst, nbytes, key, delay=0.0, single_block=False):
        if delay > 0:
            yield sim.timeout(delay)
        if single_block:
            yield from transfer_block(config, src, dst, nbytes)
        else:
            yield from transfer_bytes(config, src, dst, nbytes)
        finish[key] = sim.now

    # One long unbroken occupancy of B's downlink (a receiver busy for ~0.1s).
    sim.process(move(d, b, 128 * MB, "d->b", single_block=True))
    sim.process(move(a, b, 64 * MB, "a->b", delay=1e-6))
    # Arrives just after a->b, while A's first flow is queued for B.
    sim.process(move(a, c, 32 * MB, "a->c", delay=2e-6))
    cluster.run()
    return finish


def test_scheduler_serves_idle_receiver_behind_busy_one():
    """Regression for head-of-line blocking at a busy receiver.

    The flow scheduler interleaves the flows so C's transfer runs at full
    rate while A->B is still queued for B.
    """
    config = NetworkConfig()
    scheduled = _hol_scenario(config)
    ideal_c = config.transmission_time(32 * MB) + config.num_blocks(32 * MB) * config.latency

    # The scheduler serves the idle receiver at (near) full line rate: while
    # B is busy, the A->B reservation holds nothing and A's uplink belongs to
    # the A->C flow.
    assert scheduled["a->c"] <= 1.05 * ideal_c, scheduled
    # The flows genuinely interleave: C finishes long before A->B.
    assert scheduled["a->c"] < scheduled["a->b"]


def test_busy_receiver_still_shares_fairly_under_scheduler():
    """B's downlink serves both senders block by block (fair interleaving)."""
    cluster, config = make_cluster()
    sim = cluster.sim
    finish = {}

    def move(src_id, dst_id, key):
        yield from transfer_bytes(
            config, cluster.node(src_id), cluster.node(dst_id), 32 * MB
        )
        finish[key] = sim.now

    sim.process(move(0, 1, "a"))
    sim.process(move(2, 1, "b"))
    cluster.run()
    # Two 32 MB flows into one 10 Gbps downlink: the first to finish still
    # waits out all but one block of the interleaved pair.
    pair_time = 2 * config.transmission_time(32 * MB)
    assert min(finish.values()) >= pair_time - config.transmission_time(config.block_size)


# ---------------------------------------------------------------------------
# Reservations
# ---------------------------------------------------------------------------


def test_pending_reservation_holds_nothing_and_cancels_cleanly():
    cluster, config = make_cluster()
    src, dst, other = cluster.node(0), cluster.node(1), cluster.node(2)
    # Occupy dst's downlink so the reservation cannot be admitted.
    blocker = Reservation(other, dst, MB, Flow("blocker"))
    assert blocker.granted
    pending = Reservation(src, dst, MB, Flow("pending"))
    assert not pending.granted
    # The pending reservation holds neither link slot.
    assert src.uplink.in_use == 0
    assert dst.downlink.in_use == 1
    assert src.uplink.queue_length == 1
    pending.cancel()
    assert src.uplink.queue_length == 0
    assert dst.downlink.queue_length == 0
    # Cancel/release are idempotent.
    pending.cancel()
    blocker.release()
    assert dst.downlink.in_use == 0


def test_reservation_admitted_when_both_slots_free():
    cluster, config = make_cluster()
    src, dst, other = cluster.node(0), cluster.node(1), cluster.node(2)
    blocker = Reservation(other, dst, MB, Flow("blocker"))
    pending = Reservation(src, dst, MB, Flow("pending"))
    assert not pending.granted
    blocker.release()
    assert pending.granted
    assert src.uplink.in_use == 1 and dst.downlink.in_use == 1
    pending.release()


def test_reduce_partial_class_cuts_ahead_of_bulk():
    """A later reduce-partial reservation is admitted before queued bulk."""
    cluster, config = make_cluster(num_nodes=5)
    dst = cluster.node(0)
    holder = Reservation(cluster.node(1), dst, MB, Flow("hold", FlowClass.BULK))
    bulk = Reservation(cluster.node(2), dst, MB, Flow("bulk", FlowClass.BULK))
    partial = Reservation(
        cluster.node(3), dst, MB, Flow("partial", FlowClass.REDUCE_PARTIAL)
    )
    assert holder.granted and not bulk.granted and not partial.granted
    holder.release()
    assert partial.granted and not bulk.granted
    partial.release()
    assert bulk.granted
    bulk.release()


def test_failure_before_admission_raises_and_withdraws_reservation():
    cluster, config = make_cluster()
    sim = cluster.sim
    src, dst, other = cluster.node(0), cluster.node(1), cluster.node(2)
    transport = FlowTransport(config)
    # Keep dst's downlink busy so src's transfer waits for admission.
    blocker = sim.process(transfer_bytes(config, other, dst, 256 * MB))
    process = sim.process(transport.transfer_block(src, dst, 4 * MB))
    # Fail dst during the blocker's first block, while the reservation is
    # still queued for admission.
    cluster.schedule_failure(1, at=0.001)
    cluster.run()
    assert not process.ok
    assert isinstance(process.value, TransferError)
    process.defused = True
    assert not blocker.ok
    blocker.defused = True
    # No ghost claim survives the failure.
    assert src.uplink.queue_length == 0 and src.uplink.in_use == 0


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


def test_per_flow_accounting_on_both_link_ends():
    cluster, config = make_cluster()
    sim = cluster.sim
    src, dst = cluster.node(0), cluster.node(1)
    flow = Flow("bench:flow", FlowClass.BULK)
    process = sim.process(transfer_bytes(config, src, dst, 8 * MB, flow))
    cluster.run()
    assert process.ok
    assert src.uplink_sched.bytes_by_flow["bench:flow"] == 8 * MB
    assert dst.downlink_sched.bytes_by_flow["bench:flow"] == 8 * MB
    assert src.uplink_sched.bytes_by_class[FlowClass.BULK] == 8 * MB
    assert src.uplink_sched.reservations_granted == config.num_blocks(8 * MB)
    # The link was busy for exactly the serialization time.
    assert src.uplink_sched.busy_time == pytest.approx(config.transmission_time(8 * MB))
    assert 0 < src.uplink_sched.utilization(cluster.now) <= 1.0


def test_untagged_transfers_fall_back_to_default_flow():
    cluster, config = make_cluster()
    sim = cluster.sim
    process = sim.process(transfer_bytes(config, cluster.node(0), cluster.node(1), MB))
    cluster.run()
    assert process.ok
    assert cluster.node(0).uplink_sched.bytes_by_flow == {"untagged": MB}
