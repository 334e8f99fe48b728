"""Reservation-based flow scheduling for NIC links.

This is the admission layer between the collective protocols and the raw
uplink/downlink resources.  Acquiring a block's links one after another
(hold the sender's uplink, then queue on the receiver's downlink) would park
a sender's NIC idle-but-held whenever its receiver is busy: head-of-line
blocking, which keeps an alltoall well above its pipelined bound.  Real
transports avoid this with per-flow queueing and admission at the
bottleneck (flow-queuing AQM, receiver-driven admission); this module
reproduces that discipline for the simulated NICs:

* every block transfer is a :class:`Reservation` — a cancellable claim on
  **both** the source uplink slot and the destination downlink slot, granted
  atomically only when the two are simultaneously free (a matching on the
  bipartite uplink/downlink graph, built on
  :class:`~repro.sim.resources.MultiRequest`);
* a sender whose flow toward one busy receiver is waiting keeps serving its
  flows toward idle receivers — pending reservations never hold capacity;
* flows carry metadata: a ``flow_id`` for per-flow bandwidth accounting and a
  :class:`FlowClass` priority (control > reduce-partial > bulk) that orders
  the admission queues, so reduce partials cut ahead of bulk broadcast
  traffic when both contend for a link;
* each NIC direction has a :class:`LinkScheduler` that owns the admission
  queue of its link and accumulates per-flow / per-class byte counts and
  busy time for the utilization reports in :mod:`repro.bench.scenarios`.

:class:`FlowTransport` is the facade: ``transfer_block`` / ``transfer_bytes``
generators behind the :mod:`repro.net.transport` functions of the same
names, plus explicit ``reserve`` for protocols that want to manage
reservation lifetimes themselves.

Failures: a dead endpoint raises
:class:`~repro.net.transport.TransferError`, and a reservation still waiting
for admission when its peer dies is cancelled (withdrawn from every queue)
before the error propagates, so no ghost claim survives the failure.  The
failure-detection delay lives in the retry loops of the protocols above.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, Generator, Optional

from repro.net.config import NetworkConfig
from repro.net.errors import TransferError, _check_alive
from repro.sim import MultiRequest, Resource, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.node import Node


class FlowClass(IntEnum):
    """Priority classes for link admission (lower value = admitted first)."""

    CONTROL = 0
    REDUCE_PARTIAL = 1
    BULK = 2


@dataclass(frozen=True)
class Flow:
    """Metadata attached to a transfer for scheduling and accounting."""

    flow_id: str
    flow_class: FlowClass = FlowClass.BULK


#: flow used when a call site does not tag its transfer.
DEFAULT_FLOW = Flow("untagged", FlowClass.BULK)


#: Returned (via StopIteration) by handle-threaded transfers when a convoy
#: formation adopted the stream while it was parked on admission: no block
#: moved, no bytes were accounted; the caller's loop re-enters its top and
#: drives the run the formation left on its handle.
ADOPTED = object()

#: Convoy stream phases, stamped on a :class:`repro.net.convoy.StreamHandle`
#: at every parking point.  Defined here — below :mod:`repro.net.convoy` in
#: the import graph — so the transfer paths can stamp them without importing
#: the convoy machinery; convoy re-exports them under its own names.
PHASE_TOP = 0  #: at the top of its block loop
PHASE_GATE = 1  #: parked on the source entry's ``wait_for_blocks``
PHASE_ADMIT = 2  #: reservation/request queued, not granted
PHASE_TX = 3  #: holding its links until ``tx_end``
PHASE_LAT = 4  #: links released, block arrives at ``arr_at``
PHASE_RUN = 5  #: driving a coalesced/convoy run


def path_transmission_time(config: NetworkConfig, src: "Node", dst: "Node", nbytes: float) -> float:
    """Serialization time of one block at the ``src -> dst`` bottleneck rate.

    Delegates to the cluster's fabric when one exists; on the flat fabric
    (and for nodes built without a cluster) this is exactly
    ``config.transmission_time``.
    """
    fabric = src.cluster.fabric if src.cluster is not None else None
    if fabric is None:
        return config.transmission_time(nbytes)
    return fabric.transmission_time(src.node_id, dst.node_id, nbytes)


def path_latency(config: NetworkConfig, src: "Node", dst: "Node") -> float:
    """One-way propagation latency, including any per-tier extras."""
    fabric = src.cluster.fabric if src.cluster is not None else None
    if fabric is None:
        return config.latency
    return fabric.latency(src.node_id, dst.node_id)


class LinkScheduler:
    """Admission and accounting for one link direction.

    The scheduler wraps the direction's capacity
    :class:`~repro.sim.Resource`; reservations enqueue on it (ordered by
    :class:`FlowClass`, FIFO within a class) and the work-conserving grant
    scan admits the first reservation whose partner links are also free.
    One scheduler exists per NIC direction of every node and — on
    hierarchical fabrics — per shared tier link direction
    (:class:`~repro.net.topology.FabricLink`).
    """

    def __init__(self, sim: Simulator, link: Resource, direction: str):
        self.sim = sim
        self.link = link
        self.direction = direction
        #: cumulative bytes granted per flow id.
        self.bytes_by_flow: dict[str, int] = {}
        #: cumulative bytes granted per priority class.
        self.bytes_by_class: dict[FlowClass, int] = {cls: 0 for cls in FlowClass}
        #: total simulated time this link spent occupied by reservations.
        self.busy_time: float = 0.0
        #: number of reservations granted on this link.
        self.reservations_granted: int = 0
        #: control-plane messages (RPCs) sent from this direction; control
        #: traffic rides the latency path and never occupies a bulk slot.
        self.control_messages: int = 0
        #: observability children, installed by repro.obs.Observability
        #: (None = disabled: one branch per account/record_control call).
        self._obs_bytes: Optional[dict] = None
        self._obs_queue = None
        self._obs_control = None

    @property
    def queue_length(self) -> int:
        """Reservations waiting for this link."""
        return self.link.queue_length

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` this link spent transmitting."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def account(self, flow: Flow, nbytes: int, hold_time: float) -> None:
        """Record one released reservation's bytes and occupancy."""
        self.bytes_by_flow[flow.flow_id] = self.bytes_by_flow.get(flow.flow_id, 0) + nbytes
        self.bytes_by_class[flow.flow_class] += nbytes
        self.busy_time += hold_time
        self.reservations_granted += 1
        if self._obs_bytes is not None:
            self._obs_bytes[flow.flow_class].inc(nbytes)

    def account_blocks(self, flow: Flow, sizes: list[int], holds: list[float]) -> None:
        """:meth:`account` for a run of blocks, in one call.

        ``sizes[j]`` and ``holds[j]`` describe the run's ``j``-th block.
        Bytes are integers and summed once; ``busy_time`` still adds one
        hold at a time, in block order, so the float total is bit-identical
        to sequential :meth:`account` calls.
        """
        if not sizes:
            return
        nbytes = sum(sizes)
        self.bytes_by_flow[flow.flow_id] = self.bytes_by_flow.get(flow.flow_id, 0) + nbytes
        self.bytes_by_class[flow.flow_class] += nbytes
        busy = self.busy_time
        for hold in holds:
            busy += hold
        self.busy_time = busy
        self.reservations_granted += len(sizes)
        if self._obs_bytes is not None:
            self._obs_bytes[flow.flow_class].inc(nbytes)

    def record_control(self) -> None:
        """Count one control-plane message leaving through this direction."""
        self.control_messages += 1
        if self._obs_control is not None:
            self._obs_control.inc()

    def lockstep_candidates(self) -> Optional[list]:
        """Stream handles of a potential lockstep convoy on this link.

        A contended, capacity-1 link whose every registered stream published
        a convoy :class:`~repro.net.convoy.StreamHandle` is a candidate
        bottleneck for arithmetic convoy simulation; this is the
        saturation-detection half of formation (the plan validation lives in
        :func:`repro.net.convoy.maybe_form`).  Returns the handles, or
        ``None`` when the link is idle, exclusive, oversized, or carries an
        opaque (handle-less) stream.
        """
        link = self.link
        handles = link._handles
        if (
            link.capacity == 1
            and link._streams > 1
            and len(handles) == link._streams
        ):
            return list(handles)
        return None


class Reservation:
    """A cancellable claim on every link a ``src -> dst`` block crosses.

    On the flat fabric that is the (source uplink, destination downlink)
    pair; on a hierarchical fabric the claim additionally covers one slot on
    **every shared tier link on the path** (source rack uplink, zone
    aggregation links, destination rack downlink), so admission is a
    matching on the fabric graph rather than the bipartite NIC graph.  The
    whole set is granted atomically when every slot is simultaneously free;
    until then the reservation holds nothing.  ``release`` frees a granted
    claim (crediting every link scheduler's accounting) or withdraws a
    pending one; both are idempotent, so the transfer generators can release
    unconditionally in a ``finally``.
    """

    def __init__(self, src: "Node", dst: "Node", nbytes: int, flow: Flow):
        self.src = src
        self.dst = dst
        self.nbytes = int(nbytes)
        self.flow = flow
        self.sim: Simulator = src.sim
        #: submission time, for grant-wait (admission latency) observability.
        self.created_at = self.sim._now
        fabric = src.cluster.fabric if src.cluster is not None else None
        #: shared tier links on the path (empty for flat/intra-rack traffic).
        self.path = (
            fabric.path_links(src.node_id, dst.node_id) if fabric is not None else ()
        )
        claims = [(src.uplink, 1), (dst.downlink, 1)]
        claims.extend((link.resource, 1) for link in self.path)
        self.request = MultiRequest(
            self.sim,
            claims,
            priority=int(flow.flow_class),
        )
        loc = self.sim.locality
        if loc is not None:
            # A reservation whose claim set spans shared tier links couples
            # two partitions' admission state at the same instant — the
            # zero-lookahead interaction a conservative PDES window cannot
            # hide.  Intra-rack claims stay inside the source's partition.
            if self.path:
                loc.tag_sync_reservation(self.request)
            else:
                loc.tag(self.request, src.node_id)
        self._closed = False

    @property
    def event(self) -> MultiRequest:
        """The event that fires when the claim is granted."""
        return self.request

    @property
    def granted(self) -> bool:
        return self.request.granted

    def release(self) -> None:
        """Free (or withdraw) the claim; granted holds are accounted."""
        if self._closed:
            return
        self._closed = True
        if self.request.granted:
            hold = self.sim.now - self.request.granted_at
            self.src.uplink_sched.account(self.flow, self.nbytes, hold)
            self.dst.downlink_sched.account(self.flow, self.nbytes, hold)
            for link in self.path:
                link.sched.account(self.flow, self.nbytes, hold)
            cluster = self.src.cluster
            if cluster is not None:
                if cluster.obs is not None:
                    cluster.obs.record_reservation(self)
                flight = cluster.flight
                if flight is not None:
                    # The semantic transfer timeline: the coalescing fast
                    # paths retrofit the same records from their boundary
                    # arrays, so on/off recordings compare equal.
                    key = f"n{self.src.node_id}>n{self.dst.node_id}"
                    detail = f"{self.flow.flow_id}/{self.nbytes}"
                    flight.record(self.request.granted_at, "grant", key, detail)
                    flight.record(self.sim.now, "release", key, detail)
        self.request.release()

    def cancel(self) -> None:
        """Alias of :meth:`release`; reads better at failure call sites."""
        self.release()


class FlowTransport:
    """Flow-scheduled block transport over a cluster's NICs.

    Generator methods have the :mod:`repro.net.transport` signatures and
    return values, plus an optional :class:`Flow` for priority and
    accounting.
    """

    def __init__(self, config: NetworkConfig):
        self.config = config

    # -- admission ---------------------------------------------------------
    def reserve(
        self, src: "Node", dst: "Node", nbytes: int, flow: Optional[Flow] = None
    ) -> Reservation:
        """Submit a reservation for one ``src -> dst`` block."""
        return Reservation(src, dst, nbytes, flow or DEFAULT_FLOW)

    # -- transfers ---------------------------------------------------------
    def transfer_block(
        self,
        src: "Node",
        dst: "Node",
        nbytes: int,
        flow: Optional[Flow] = None,
        handle=None,
    ) -> Generator:
        """Move one block from ``src`` to ``dst`` under flow scheduling.

        Returns (via StopIteration) the simulated time at which the block is
        fully available at the destination.  ``handle`` is the caller's
        convoy :class:`~repro.net.convoy.StreamHandle` when the caller is a
        multi-block loop: the transfer keeps its phase/timestamps current at
        every parking point so a convoy can form around the stream while it
        waits, consumes a materialization's preplaced reservation, and backs
        out with :data:`ADOPTED` (no block moved, nothing accounted) when a
        formation withdrew its queued admission.
        """
        sim = src.sim
        _check_alive(src, dst)
        if handle is not None and handle.preplaced is not None:
            reservation = handle.preplaced
            handle.preplaced = None
        else:
            reservation = self.reserve(src, dst, nbytes, flow)
        if handle is not None:
            handle.phase = PHASE_ADMIT
            handle.reservation = reservation
        try:
            if not reservation.event.triggered:
                # Race the queued admission against either peer dying.
                yield src.race_failure(reservation.event, dst)
                if handle is not None and handle.poked:
                    handle.poked = False
                    return ADOPTED
                if not reservation.event.triggered:
                    # A peer died while the reservation was still queued:
                    # withdraw the claim so no ghost request survives, then
                    # fail like a broken connection.
                    dead = src if not src.alive else dst
                    raise TransferError(
                        f"node {dead.node_id} failed before transfer admission",
                        node=dead,
                    )
            _check_alive(src, dst)
            tx_t = path_transmission_time(self.config, src, dst, nbytes)
            if handle is not None:
                handle.phase = PHASE_TX
                handle.tx_end = sim._now + tx_t
            tx_timeout = sim.timeout(tx_t)
            loc = sim.locality
            if loc is not None:
                # Serialization happens at the source NIC: the event belongs
                # to the source's partition.
                loc.tag(tx_timeout, src.node_id)
            yield tx_timeout
            _check_alive(src, dst)
        finally:
            reservation.release()
            if handle is not None:
                handle.reservation = None
        lat = path_latency(self.config, src, dst)
        if handle is not None:
            handle.phase = PHASE_LAT
            handle.arr_at = sim._now + lat
        lat_timeout = sim.timeout(lat)
        loc = sim.locality
        if loc is not None:
            # Delivery lands in the destination's partition; the causal
            # predecessor (tx end at the source) is one propagation latency
            # in the past — at least the lookahead for cross-rack paths.
            loc.tag(lat_timeout, dst.node_id)
            loc.arrival(src.node_id, dst.node_id)
        yield lat_timeout
        _check_alive(dst)
        cluster = src.cluster
        if cluster is not None and cluster.flight is not None:
            cluster.flight.record(
                sim._now,
                "arrive",
                f"n{src.node_id}>n{dst.node_id}",
                f"{reservation.flow.flow_id}/{nbytes}",
            )
        return sim.now

    def transfer_bytes(
        self, src: "Node", dst: "Node", nbytes: int, flow: Optional[Flow] = None
    ) -> Generator:
        """Move ``nbytes`` from ``src`` to ``dst`` as a sequence of blocks.

        Thin delegate to the canonical :func:`repro.net.transport.transfer_bytes`
        (one home for the zero-byte and block-splitting contract); every
        per-block step routes back through :meth:`transfer_block`.
        """
        from repro.net.transport import transfer_bytes as _transfer_bytes

        result = yield from _transfer_bytes(self.config, src, dst, nbytes, flow)
        return result
