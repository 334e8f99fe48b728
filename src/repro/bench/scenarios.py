"""Measurement drivers for the microbenchmark figures (6, 7, 8, 14, 15).

Each driver builds a fresh simulated cluster, runs one collective operation
under one system ("hoplite", "openmpi", "gloo", "ray", "dask", ...), and
returns the latency in simulated seconds, using the same measurement
boundaries as the paper:

* point-to-point — round-trip time of one object;
* broadcast — from the moment every receiver calls ``Get`` (after the
  sender's ``Put`` has completed) to the moment the last receiver finishes;
* gather — the duration of the caller's ``Get`` over all objects;
* reduce — from the ``Reduce`` call to the caller holding the result;
* allreduce — from the ``Reduce`` call to the last participant holding the
  result;
* allgather — from the moment every participant's ``Put`` has completed to
  the last participant holding all ``n`` objects;
* alltoall — from the start of the exchange (sends included) to the last
  participant holding its ``n - 1`` personalized blocks;
* the asynchrony variants stagger participant arrivals by a fixed interval
  and measure from the arrival of the first participant (Figure 8).

The six collective drivers (:data:`MEASURES`) are thin wrappers over one
private driver, ``_measure``, which reads three tables:

* :data:`OPTIMAL` — the analytic pipelined bound, returned for the
  ``"optimal"`` system;
* :data:`repro.collectives.STATIC_OPERATIONS` — which static (MPI/Gloo)
  system implements which collective, and how to build the operation;
  a static system missing from it raises :class:`UnsupportedScenarioError`;
* ``_PLANE_BODIES`` — one object-plane scenario per collective (reduce and
  allreduce share one, differing only in who fetches the result).

Static operations run in one of two shapes.  Broadcast, gather, reduce and
allreduce start every rank after its arrival delay and run once (the
asynchrony experiments).  Allgather and alltoall accept a failure schedule
(:class:`~repro.net.failure.FailureEvent` list) and run under the MPI
failure model: the job aborts and restarts once every node is back.  The
shapes stay separate because they schedule different kernel events, which
the golden digests pin.  The object planes ride through failures with
Hoplite's per-transfer recovery plus framework reconstruction (a recovered
producer re-``Put``s its objects, Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Generator, Optional, Sequence

from repro.apps.common import (
    PLANE_SYSTEMS,
    make_cluster,
    make_plane,
    reconstruct_on_recovery,
    retry_across_failures,
)
from repro.collectives import STATIC_OPERATIONS, STATIC_SYSTEMS, MPICollectives
from repro.collectives.plane import CommPlane
from repro.core.options import HopliteOptions
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.failure import FailureEvent, schedule
from repro.net.flowsched import FlowClass
from repro.net.transport import TransferError
from repro.store.objects import ObjectID, ObjectValue, ReduceOp
from repro.tasksys import CollectiveOrchestrator, CollectiveSpec, TaskSystem

SUPPORTED_SYSTEMS = (*PLANE_SYSTEMS, *STATIC_SYSTEMS, "optimal")


class UnsupportedScenarioError(ValueError):
    """The requested system does not implement the requested primitive."""


# ---------------------------------------------------------------------------
# Per-flow link utilization reporting (flow-scheduled transport)
# ---------------------------------------------------------------------------


@dataclass
class LinkUsage:
    """Utilization of one link direction over a scenario run."""

    node_id: int
    direction: str
    #: fraction of the run this link spent transmitting granted reservations.
    utilization: float
    #: bytes granted per flow class name (``control``/``reduce_partial``/``bulk``).
    bytes_by_class: dict[str, int]
    #: number of reservations granted on this link.
    reservations: int
    #: ``nic`` for NIC directions; the fabric tier (``rack_up``/``rack_down``/
    #: ``zone_up``/``zone_down``) for shared aggregation links (``node_id``
    #: is ``-1`` for those).
    tier: str = "nic"


@dataclass
class FlowUsage:
    """The frozen return schema of :func:`collect_flow_usage`.

    Callers historically consume a plain dict (``flow_stats.update(...)``,
    digest fingerprints over selected keys), so :func:`collect_flow_usage`
    returns :meth:`as_dict`; this dataclass is the schema contract the
    tests pin.  Remove or rename a field here and
    ``tests/test_flow_usage_schema.py`` fails before any consumer does.
    """

    #: simulated seconds the scenario ran for (utilization denominator).
    elapsed: float
    #: kernel events processed by the cluster's simulator so far.
    events_processed: int
    #: one :class:`LinkUsage` per NIC direction and per shared fabric link.
    links: list[LinkUsage]
    #: uplink-side aggregate bytes per flow-class name (no double counting).
    bytes_by_class: dict[str, int]
    mean_uplink_utilization: float
    max_uplink_utilization: float
    #: control-plane messages sent (directory RPCs etc.).
    control_messages: int
    #: bytes that crossed each tier, egress side only: ``nic`` /
    #: ``rack_uplink`` / ``inter_zone``.
    tier_bytes: dict[str, int]
    #: busy seconds per tier, same keys as ``tier_bytes``.
    tier_busy_time: dict[str, float]
    #: fraction of NIC bytes that also crossed the rack uplink tier.
    cross_rack_fraction: float
    #: fraction of NIC bytes that also crossed the inter-zone tier.
    cross_zone_fraction: float
    #: the cluster's fast-path counters (repro.net.fastpath.COUNTER_KEYS).
    fastpath: dict[str, int]

    def as_dict(self) -> dict:
        # Shallow on purpose: ``links`` stays a list of LinkUsage objects.
        return {field.name: getattr(self, field.name) for field in fields(self)}


def collect_flow_usage(cluster: Cluster) -> dict:
    """Per-link and aggregate flow statistics for a finished scenario.

    Returns :meth:`FlowUsage.as_dict` — a dict with ``links`` (a
    :class:`LinkUsage` per NIC direction and per shared fabric link),
    ``bytes_by_class`` (uplink-side aggregate, so bytes are not counted
    twice), ``mean_uplink_utilization`` / ``max_uplink_utilization``, the
    number of ``control_messages`` the control plane sent, the cluster's
    ``fastpath`` counters, and the per-tier rollup: ``tier_bytes`` /
    ``tier_busy_time`` keyed by ``nic`` (NIC uplinks), ``rack_uplink`` (ToR
    uplinks) and ``inter_zone`` (zone uplinks) — each tier counted on its
    egress side only, so a byte is counted once per tier it crossed — plus
    the derived ``cross_rack_fraction`` / ``cross_zone_fraction`` of NIC
    bytes that also crossed that tier.  On the flat topology the fabric
    tiers are identically zero.  Utilization is measured over the whole
    simulated run (``cluster.now``).  The schema is frozen as
    :class:`FlowUsage`.
    """
    elapsed = cluster.now
    links: list[LinkUsage] = []
    bytes_by_class = {cls.name.lower(): 0 for cls in FlowClass}
    uplink_utils: list[float] = []
    control_messages = 0

    def _usage(node_id: int, direction: str, sched, tier: str = "nic") -> LinkUsage:
        return LinkUsage(
            node_id=node_id,
            direction=direction,
            utilization=sched.utilization(elapsed),
            bytes_by_class={
                cls.name.lower(): count for cls, count in sched.bytes_by_class.items()
            },
            reservations=sched.reservations_granted,
            tier=tier,
        )

    for node in cluster.nodes:
        for sched in (node.uplink_sched, node.downlink_sched):
            links.append(_usage(node.node_id, sched.direction, sched))
        for cls, count in node.uplink_sched.bytes_by_class.items():
            bytes_by_class[cls.name.lower()] += count
        uplink_utils.append(node.uplink_sched.utilization(elapsed))
        control_messages += node.uplink_sched.control_messages

    nic_bytes = sum(bytes_by_class.values())
    tier_bytes = {"nic": nic_bytes, "rack_uplink": 0, "inter_zone": 0}
    tier_busy_time = {
        "nic": sum(node.uplink_sched.busy_time for node in cluster.nodes),
        "rack_uplink": 0.0,
        "inter_zone": 0.0,
    }
    egress_tiers = {"rack_up": "rack_uplink", "zone_up": "inter_zone"}
    for link in cluster.fabric.iter_links():
        links.append(_usage(-1, link.name, link.sched, link.tier))
        tier = egress_tiers.get(link.tier)
        if tier is not None:
            tier_bytes[tier] += sum(link.sched.bytes_by_class.values())
            tier_busy_time[tier] += link.sched.busy_time

    return FlowUsage(
        elapsed=elapsed,
        events_processed=cluster.sim.events_processed,
        links=links,
        bytes_by_class=bytes_by_class,
        mean_uplink_utilization=(
            sum(uplink_utils) / len(uplink_utils) if uplink_utils else 0.0
        ),
        max_uplink_utilization=max(uplink_utils, default=0.0),
        control_messages=control_messages,
        tier_bytes=tier_bytes,
        tier_busy_time=tier_busy_time,
        cross_rack_fraction=(
            tier_bytes["rack_uplink"] / nic_bytes if nic_bytes else 0.0
        ),
        cross_zone_fraction=(
            tier_bytes["inter_zone"] / nic_bytes if nic_bytes else 0.0
        ),
        fastpath=cluster.fastpath_stats.as_dict(),
    ).as_dict()


def rack_interleaved_delays(
    num_racks: int, nodes_per_rack: int, eps: float = 2e-4
) -> list[float]:
    """Per-node arrival delays whose order round-robins across racks.

    Synchronized id-ordered arrival happens to build rack-contiguous
    broadcast chains and reduce trees even without topology awareness; this
    arrival pattern models placement *uncorrelated* with node ids — node 0,
    then the first node of every other rack, then everyone's second node,
    and so on, ``eps`` apart — which is where topology-oblivious trees
    scatter their edges across the shared tier links.  Used by the topology
    benchmarks, the regression tests, and the example.
    """
    order = [
        rack * nodes_per_rack + index
        for index in range(nodes_per_rack)
        for rack in range(num_racks)
    ]
    delays = [0.0] * (num_racks * nodes_per_rack)
    for position, node_id in enumerate(order):
        delays[node_id] = position * eps
    return delays


def _check_system(system: str) -> None:
    if system not in SUPPORTED_SYSTEMS:
        raise UnsupportedScenarioError(
            f"unknown system {system!r}; expected one of {SUPPORTED_SYSTEMS}"
        )


def _resolve_delays(
    count: int,
    arrival_interval: float,
    arrival_delays: Optional[Sequence[float]],
) -> list[float]:
    """Per-participant arrival delays for the asynchrony experiments.

    Explicit ``arrival_delays`` win; otherwise participant ``k`` arrives at
    ``k * arrival_interval`` (the paper's fixed-interval arrival process).
    """
    if arrival_delays is not None:
        if len(arrival_delays) != count:
            raise ValueError(
                f"expected {count} arrival delays, got {len(arrival_delays)}"
            )
        return [float(delay) for delay in arrival_delays]
    return [index * arrival_interval for index in range(count)]


# ---------------------------------------------------------------------------
# Point-to-point (Figure 6)
# ---------------------------------------------------------------------------


def measure_point_to_point_rtt(
    system: str,
    nbytes: int,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
) -> float:
    """Round-trip latency of one object between two nodes."""
    _check_system(system)
    network = network or NetworkConfig()
    if system == "optimal":
        return 2.0 * nbytes / network.bandwidth

    cluster = make_cluster(2, network)
    sim = cluster.sim

    if system in STATIC_SYSTEMS:
        mpi = MPICollectives(cluster)

        def _round_trip() -> Generator:
            yield from mpi.send(0, 1, nbytes)
            yield from mpi.send(1, 0, nbytes)
            return sim.now

        sender = sim.process(_round_trip(), name="p2p-mpi")
        sim.run()
        return sender.value

    plane = make_plane(system, cluster, options)
    ping_id = ObjectID.of("p2p-ping")
    pong_id = ObjectID.of("p2p-pong")

    def _sender() -> Generator:
        yield from plane.put(cluster.node(0), ping_id, ObjectValue.of_size(nbytes))
        yield from plane.get(cluster.node(0), pong_id)
        return sim.now

    def _responder() -> Generator:
        yield from plane.get(cluster.node(1), ping_id)
        yield from plane.put(cluster.node(1), pong_id, ObjectValue.of_size(nbytes))

    sender = sim.process(_sender(), name="p2p-sender")
    sim.process(_responder(), name="p2p-responder")
    sim.run()
    return sender.value


# ---------------------------------------------------------------------------
# The collective driver and its tables
# ---------------------------------------------------------------------------

#: the analytic pipelined bound per collective, what the ``"optimal"``
#: system reports: ``(num_nodes, nbytes, bandwidth) -> seconds``.
OPTIMAL: dict[str, Callable[[int, int, float], float]] = {
    "broadcast": lambda n, nbytes, bandwidth: nbytes / bandwidth,
    "gather": lambda n, nbytes, bandwidth: (n - 1) * nbytes / bandwidth,
    "reduce": lambda n, nbytes, bandwidth: nbytes / bandwidth,
    "allreduce": lambda n, nbytes, bandwidth: 2.0 * nbytes / bandwidth * (n - 1) / n,
    "allgather": lambda n, nbytes, bandwidth: (n - 1) * nbytes / bandwidth,
    "alltoall": lambda n, nbytes, bandwidth: (n - 1) * nbytes / bandwidth,
}

#: static collectives run under the MPI failure model (abort and restart);
#: the others run once, each rank after its own arrival delay.
_RESTARTED_STATIC = ("allgather", "alltoall")


def _run_static_ranks(cluster: Cluster, op, delays: Sequence[float]) -> list[float]:
    """Run a static collective once, rank ``r`` arriving after ``delays[r]``.

    Returns every rank's finish time, in rank order.
    """
    sim = cluster.sim

    def _rank(rank: int, delay: float) -> Generator:
        if delay > 0:
            yield sim.timeout(delay)
        rank_result = yield from op.participate(rank)
        return rank_result.finish_time

    ranks = [
        sim.process(_rank(rank, delay), name=f"static-rank-{rank}")
        for rank, delay in enumerate(delays)
    ]
    sim.run()
    return [rank.value for rank in ranks]


def _run_static_with_restarts(
    cluster: Cluster,
    make_op,
    num_ranks: int,
) -> float:
    """Run a static collective, restarting the whole job after node failures.

    Static (MPI/Gloo-style) collectives have no intra-operation fault
    tolerance: a failed rank aborts the job and the launcher re-runs it once
    the node rejoins.  Aborted attempts interrupt every rank process so no
    partial state leaks into the retry.
    """
    sim = cluster.sim

    def _rank(op, rank: int) -> Generator:
        rank_result = yield from op.participate(rank)
        return rank_result.finish_time

    def _job() -> Generator:
        while True:
            op = make_op()
            rank_procs = [
                sim.process(_rank(op, rank), name=f"static-rank-{rank}")
                for rank in range(num_ranks)
            ]
            all_done = sim.all_of(rank_procs)
            any_failure = sim.any_of(
                [node.failure_event() for node in cluster.nodes]
            )
            aborted = False
            try:
                yield sim.any_of([all_done, any_failure])
                aborted = not all_done.triggered
            except TransferError:
                aborted = True
            if not aborted:
                return max(all_done.value)
            for proc in rank_procs:
                if proc.is_alive:
                    proc.interrupt("static collective restart")
            while not all(node.alive for node in cluster.nodes):
                dead = next(node for node in cluster.nodes if not node.alive)
                yield dead.recovery_event()
            # The launcher pays one failure-detection delay before it can
            # observe the rejoin and respawn the job — the same delay the
            # object planes' task resubmission pays.
            yield sim.timeout(cluster.config.failure_detection_delay)

    job = sim.process(_job(), name="static-job")
    sim.run()
    if not job.ok:
        raise RuntimeError("static collective did not complete (unrecovered failure?)")
    return job.value


# Object-plane bodies: ``body(cluster, plane, nbytes, arrivals, failures)``
# allocates the ObjectIDs and returns the scenario generator, whose return
# value is the latency.  ``arrivals(count)`` resolves ``count`` arrival
# delays; ``failures`` is true when a failure schedule is installed, and the
# bodies that take one then add framework reconstruction.


def _broadcast_body(cluster: Cluster, plane: CommPlane, nbytes: int, arrivals, failures):
    sim = cluster.sim
    object_id = ObjectID.unique("bcast")
    delays = arrivals(len(cluster.nodes) - 1)

    def _receiver(node_id: int, epoch: float) -> Generator:
        if delays[node_id - 1] > 0:
            yield sim.timeout(delays[node_id - 1])
        yield from plane.get(cluster.node(node_id), object_id)
        return sim.now - epoch

    def _scenario() -> Generator:
        # The sender's Put completes before the measurement window opens.
        yield from plane.put(cluster.node(0), object_id, ObjectValue.of_size(nbytes))
        epoch = sim.now
        receivers = [
            sim.process(_receiver(node_id, epoch), name=f"bcast-recv-{node_id}")
            for node_id in range(1, len(cluster.nodes))
        ]
        finish_times = yield sim.all_of(receivers)
        return max(finish_times)

    return _scenario()


def _gather_body(cluster: Cluster, plane: CommPlane, nbytes: int, arrivals, failures):
    sim = cluster.sim
    object_ids = [ObjectID.unique(f"gather-{i}") for i in range(1, len(cluster.nodes))]

    def _scenario() -> Generator:
        yield sim.all_of(
            [
                sim.process(
                    plane.put(cluster.node(node_id), object_id, ObjectValue.of_size(nbytes)),
                    name=f"gather-put-{node_id}",
                )
                for node_id, object_id in enumerate(object_ids, start=1)
            ]
        )
        epoch = sim.now
        yield sim.all_of(
            [
                sim.process(plane.get(cluster.node(0), oid), name=f"gather-get-{oid}")
                for oid in object_ids
            ]
        )
        return sim.now - epoch

    return _scenario()


def _reduce_body(
    collective: str, cluster: Cluster, plane: CommPlane, nbytes: int, arrivals, failures
):
    """Reduce into node 0; the caller fetches (reduce) or everyone does (allreduce).

    In the synchronized case (no staggering) every ``Put`` completes before
    the ``Reduce`` is issued (Figure 7); with staggered arrivals the
    ``Reduce`` is issued immediately and objects trickle in (Figure 8).
    """
    sim = cluster.sim
    num_nodes = len(cluster.nodes)
    delays = arrivals(num_nodes)
    source_ids = [ObjectID.unique(f"{collective}-src-{i}") for i in range(num_nodes)]
    target_id = ObjectID.unique(f"{collective}-target")

    def _producer(node_id: int) -> Generator:
        if delays[node_id] > 0:
            yield sim.timeout(delays[node_id])
        value = ObjectValue.of_size(nbytes)
        yield from plane.put(cluster.node(node_id), source_ids[node_id], value)

    def _scenario() -> Generator:
        producers = [
            sim.process(_producer(node_id), name=f"{collective}-put-{node_id}")
            for node_id in range(num_nodes)
        ]
        if max(delays) <= 0.0:
            yield sim.all_of(producers)
        epoch = sim.now
        reduce_proc = sim.process(
            plane.reduce(cluster.node(0), target_id, source_ids, ReduceOp.SUM),
            name=f"{collective}-call",
        )
        if collective == "allreduce":
            fetchers = [
                sim.process(
                    plane.get(cluster.node(node_id), target_id), name=f"allreduce-get-{node_id}"
                )
                for node_id in range(num_nodes)
            ]
            yield sim.all_of(fetchers)
        else:
            yield from plane.get(cluster.node(0), target_id)
        yield reduce_proc
        return sim.now - epoch

    return _scenario()


def _allgather_body(cluster: Cluster, plane: CommPlane, nbytes: int, arrivals, failures):
    sim = cluster.sim
    num_nodes = len(cluster.nodes)
    source_ids = [ObjectID.unique(f"allgather-{i}") for i in range(num_nodes)]
    values = [ObjectValue.of_size(nbytes) for _ in range(num_nodes)]

    def _put(node_id: int) -> Generator:
        return plane.put(cluster.node(node_id), source_ids[node_id], values[node_id])

    def _gatherer(node_id: int, epoch: float) -> Generator:
        yield from retry_across_failures(
            cluster, node_id, lambda: plane.allgather(cluster.node(node_id), source_ids)
        )
        return sim.now - epoch

    def _scenario() -> Generator:
        # Reconstructors go in before any Put so a producer that fails right
        # after its own Put (while others are still putting) is still re-Put.
        if failures:
            for node_id in range(num_nodes):
                sim.process(
                    reconstruct_on_recovery(
                        cluster, plane, node_id, [(source_ids[node_id], values[node_id])]
                    ),
                    name=f"allgather-reconstruct-{node_id}",
                )
        producers = [
            sim.process(
                retry_across_failures(cluster, node_id, partial(_put, node_id)),
                name=f"allgather-put-{node_id}",
            )
            for node_id in range(num_nodes)
        ]
        yield sim.all_of(producers)
        epoch = sim.now
        gatherers = [
            sim.process(_gatherer(node_id, epoch), name=f"allgather-node-{node_id}")
            for node_id in range(num_nodes)
        ]
        finish_times = yield sim.all_of(gatherers)
        return max(finish_times)

    return _scenario()


def _alltoall_body(cluster: Cluster, plane: CommPlane, nbytes: int, arrivals, failures):
    sim = cluster.sim
    nodes = range(len(cluster.nodes))
    pair_ids = {
        (src, dst): ObjectID.unique(f"alltoall-{src}-{dst}")
        for src in nodes
        for dst in nodes
        if src != dst
    }

    def _sends(node_id: int) -> list[tuple[ObjectID, ObjectValue]]:
        return [
            (pair_ids[(node_id, dst)], ObjectValue.of_size(nbytes))
            for dst in nodes
            if dst != node_id
        ]

    def _participant(node_id: int, epoch: float) -> Generator:
        recv_ids = [pair_ids[(src, node_id)] for src in nodes if src != node_id]
        yield from retry_across_failures(
            cluster,
            node_id,
            lambda: plane.alltoall(cluster.node(node_id), _sends(node_id), recv_ids),
        )
        return sim.now - epoch

    def _scenario() -> Generator:
        if failures:
            for node_id in nodes:
                sim.process(
                    reconstruct_on_recovery(cluster, plane, node_id, _sends(node_id)),
                    name=f"alltoall-reconstruct-{node_id}",
                )
        epoch = sim.now
        participants = [
            sim.process(_participant(node_id, epoch), name=f"alltoall-node-{node_id}")
            for node_id in nodes
        ]
        finish_times = yield sim.all_of(participants)
        return max(finish_times)

    return _scenario()


_PLANE_BODIES = {
    "broadcast": _broadcast_body,
    "gather": _gather_body,
    "reduce": partial(_reduce_body, "reduce"),
    "allreduce": partial(_reduce_body, "allreduce"),
    "allgather": _allgather_body,
    "alltoall": _alltoall_body,
}


def _measure(
    collective: str,
    system: str,
    num_nodes: int,
    nbytes: int,
    arrival_interval: float = 0.0,
    arrival_delays: Optional[Sequence[float]] = None,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
    failures: Optional[Sequence[FailureEvent]] = None,
    flow_stats: Optional[dict] = None,
) -> float:
    """Run one collective under one system on a fresh cluster; return its latency.

    The six public drivers forward their own arguments (``**locals()``), so
    every parameter here is named as in theirs.
    """
    _check_system(system)
    network = network or NetworkConfig()
    if system == "optimal":
        return OPTIMAL[collective](num_nodes, nbytes, network.bandwidth)
    if num_nodes < 2:
        raise ValueError(f"{collective} needs at least two nodes")
    make_op = STATIC_OPERATIONS.get((system, collective))
    if make_op is None and system in STATIC_SYSTEMS:
        raise UnsupportedScenarioError(f"{system!r} does not implement {collective}")

    def arrivals(count: int) -> list[float]:
        return _resolve_delays(count, arrival_interval, arrival_delays)

    cluster = make_cluster(num_nodes, network)
    if failures:
        schedule(cluster, failures)
    if make_op is None:
        plane = make_plane(system, cluster, options)
        body = _PLANE_BODIES[collective](cluster, plane, nbytes, arrivals, bool(failures))
        scenario = cluster.sim.process(body, name=f"{collective}-scenario")
        cluster.sim.run()
        if not scenario.ok:
            raise RuntimeError(f"{collective} did not complete (unrecovered failure?)")
        latency = scenario.value
    elif collective in _RESTARTED_STATIC:
        latency = _run_static_with_restarts(cluster, lambda: make_op(cluster, nbytes), num_nodes)
    else:
        finishes = _run_static_ranks(cluster, make_op(cluster, nbytes), arrivals(num_nodes))
        # A reduce is timed at its root; the others at the slowest rank.
        latency = finishes[0] if collective == "reduce" else max(finishes)
    if flow_stats is not None:
        flow_stats.update(collect_flow_usage(cluster))
    return latency


# ---------------------------------------------------------------------------
# Public collective drivers (Figures 7, 8, 14, 15; allgather/alltoall for
# the MoE and batch-norm shapes)
# ---------------------------------------------------------------------------


def measure_broadcast(
    system: str,
    num_nodes: int,
    nbytes: int,
    arrival_interval: float = 0.0,
    arrival_delays: Optional[Sequence[float]] = None,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
    flow_stats: Optional[dict] = None,
) -> float:
    """Latency of broadcasting one object from node 0 to all other nodes.

    For the static systems the per-rank ``arrival_delays`` (or the uniform
    ``arrival_interval``) cover all ``num_nodes`` ranks including the root;
    for the object-plane systems they cover the ``num_nodes - 1`` receivers.
    If ``flow_stats`` is given (a dict), it is filled with the run's per-flow
    link utilization report (see :func:`collect_flow_usage`).
    """
    return _measure("broadcast", **locals())


def measure_gather(
    system: str,
    num_nodes: int,
    nbytes: int,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
    flow_stats: Optional[dict] = None,
) -> float:
    """Latency for node 0 to gather one object from every other node."""
    return _measure("gather", **locals())


def measure_reduce(
    system: str,
    num_nodes: int,
    nbytes: int,
    arrival_interval: float = 0.0,
    arrival_delays: Optional[Sequence[float]] = None,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
    flow_stats: Optional[dict] = None,
) -> float:
    """Latency of reducing one object per node into a single result at the caller.

    In the synchronized case (no staggering) every ``Put`` completes before
    the ``Reduce`` is issued, matching Figure 7.  With staggered arrivals the
    ``Reduce`` is issued immediately and objects trickle in, matching
    Figure 8b.  The caller's ``Get`` runs concurrently with the Reduce so the
    result streams to the caller as it is produced (Section 3.3).
    """
    return _measure("reduce", **locals())


def measure_allreduce(
    system: str,
    num_nodes: int,
    nbytes: int,
    arrival_interval: float = 0.0,
    arrival_delays: Optional[Sequence[float]] = None,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
    flow_stats: Optional[dict] = None,
) -> float:
    """Latency for every node to hold the reduction of one object per node.

    Hoplite composes allreduce as reduce followed by broadcast; every
    participant issues its ``Get`` on the reduce target immediately, so the
    result streams out while it is still being produced (Section 3.4.3).
    """
    return _measure("allreduce", **locals())


def measure_allgather(
    system: str,
    num_nodes: int,
    nbytes: int,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
    failures: Optional[Sequence[FailureEvent]] = None,
    flow_stats: Optional[dict] = None,
) -> float:
    """Latency for every node to hold one object from every other node.

    ``nbytes`` is the per-node contribution.  For the object planes every
    ``Put`` completes before the measurement window opens; each participant
    then gathers all ``n`` objects and the slowest participant defines the
    latency.  The pipelined analytical bound is ``S_total / B + L * log n``
    with ``S_total = n * nbytes`` (each downlink must absorb almost the full
    gathered payload; the broadcast trees add a logarithmic latency term).

    If ``flow_stats`` is given (a dict), it is filled with the run's per-flow
    link utilization report (see :func:`collect_flow_usage`).
    """
    return _measure("allgather", **locals())


def measure_alltoall(
    system: str,
    num_nodes: int,
    nbytes: int,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
    failures: Optional[Sequence[FailureEvent]] = None,
    flow_stats: Optional[dict] = None,
) -> float:
    """Latency of a personalized all-to-all exchange (``nbytes`` per pair).

    Every node contributes one object per peer; the measurement covers the
    whole exchange (sends included, matching ``MPI_Alltoall`` semantics) and
    ends when the slowest participant holds its ``n - 1`` incoming blocks.

    If ``flow_stats`` is given (a dict), it is filled with the run's per-flow
    link utilization report (see :func:`collect_flow_usage`).
    """
    return _measure("alltoall", **locals())


#: collective name -> its public driver.
MEASURES = {
    "broadcast": measure_broadcast,
    "gather": measure_gather,
    "reduce": measure_reduce,
    "allreduce": measure_allreduce,
    "allgather": measure_allgather,
    "alltoall": measure_alltoall,
}


# ---------------------------------------------------------------------------
# Driver and control-plane failures (orchestrated collectives)
# ---------------------------------------------------------------------------


def _calibrate(
    fail_at: Optional[float],
    fail_fraction: Optional[float],
    run_baseline: Callable[[], float],
) -> tuple[Optional[float], Optional[float]]:
    """Resolve ``fail_fraction`` into ``(fail_at, baseline)``.

    The failure-free baseline run is exact (the simulation is
    deterministic), so the failure lands at that fraction of the run.
    """
    if fail_fraction is None:
        return fail_at, None
    if fail_at is not None:
        raise ValueError("pass either fail_at or fail_fraction, not both")
    if not 0.0 < fail_fraction < 1.0:
        raise ValueError("fail_fraction must be in (0, 1)")
    baseline = run_baseline()
    return fail_fraction * baseline, baseline


def _invoke(
    cluster: Cluster, orchestrator: CollectiveOrchestrator, spec, budget: float
) -> float:
    """Run one orchestrated collective; return its completion time."""

    def _driver() -> Generator:
        outcome = yield from orchestrator.invoke(spec)
        return outcome.completion_time

    driver = cluster.sim.process(_driver(), name=f"{spec.spec_id}-driver")
    # Bounded: a wedged collective keeps scheduling retry timeouts, so an
    # unbounded run would spin forever instead of reaching the error below.
    cluster.sim.run(until=budget)
    if not driver.ok:
        raise RuntimeError(
            f"collective did not complete within {budget} simulated seconds"
        )
    return driver.value


def _driver_failure_spec(
    collective: str, num_nodes: int, nbytes: int, tag: str
) -> CollectiveSpec:
    """Build the durable spec for one driver-failure measurement."""
    participants = list(range(num_nodes))
    value = lambda: ObjectValue.of_size(nbytes)  # noqa: E731
    if collective == "broadcast":
        return CollectiveSpec.broadcast(
            tag, 0, participants, ObjectID.unique(f"{tag}-obj"), value()
        )
    if collective in ("reduce", "allreduce", "allgather"):
        sources = {i: ObjectID.unique(f"{tag}-src{i}") for i in participants}
        values = {sources[i]: value() for i in participants}
        if collective == "allgather":
            return CollectiveSpec.allgather(tag, participants, sources, values)
        target = ObjectID.unique(f"{tag}-target")
        return CollectiveSpec.reduce(
            tag, 0, participants, sources, target, values, ReduceOp.SUM,
            allreduce=collective == "allreduce",
        )
    if collective == "reduce_scatter":
        matrix = {
            (i, j): ObjectID.unique(f"{tag}-{i}-{j}")
            for i in participants
            for j in participants
        }
        targets = {j: ObjectID.unique(f"{tag}-shard{j}") for j in participants}
        values = {object_id: value() for object_id in matrix.values()}
        return CollectiveSpec.reduce_scatter(tag, participants, matrix, targets, values)
    if collective == "alltoall":
        matrix = {
            (src, dst): ObjectID.unique(f"{tag}-{src}-{dst}")
            for src in participants
            for dst in participants
            if src != dst
        }
        values = {object_id: value() for object_id in matrix.values()}
        return CollectiveSpec.alltoall(tag, participants, matrix, values)
    raise UnsupportedScenarioError(f"unknown collective {collective!r}")


def measure_driver_failure(
    system: str,
    num_nodes: int,
    nbytes: int,
    collective: str = "allreduce",
    fail_at: Optional[float] = None,
    fail_fraction: Optional[float] = None,
    downtime: float = 0.5,
    budget: float = 600.0,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
) -> float:
    """Completion time of one collective whose **caller/root node dies**.

    Node 0 — the root of the rooted collectives and rank 0 of the symmetric
    ones — fails at ``fail_at`` and recovers ``downtime`` seconds later
    (``fail_at=None`` runs failure-free, the baseline).  ``fail_fraction``
    calibrates the failure to land mid-collective: the scenario first runs
    failure-free to learn the system's own duration, then kills the root at
    that fraction of it (the simulation is deterministic, so the calibration
    run is exact).

    The object planes run the collective through the
    :class:`~repro.tasksys.orchestrator.CollectiveOrchestrator`: every share
    is a lineage-recorded driver task, the root share migrates to an alive
    node, and re-executions adopt surviving partials through the directory —
    so recovery costs roughly one failure-detection delay plus the lost
    share's work.  The static systems model the MPI failure semantics: the
    job aborts and the launcher restarts the whole collective from scratch
    once every node is back, so their recovery time is bounded below by the
    downtime plus a full re-run.
    """
    _check_system(system)
    network = network or NetworkConfig()
    if system == "optimal":
        raise UnsupportedScenarioError("driver failure has no analytic optimum")
    if num_nodes < 2:
        raise ValueError("driver-failure scenarios need at least two nodes")
    fail_at, _ = _calibrate(
        fail_at,
        fail_fraction,
        lambda: measure_driver_failure(
            system, num_nodes, nbytes, collective=collective, network=network, options=options
        ),
    )

    cluster = make_cluster(num_nodes, network)
    if fail_at is not None:
        cluster.schedule_failure(0, at=fail_at, recover_at=fail_at + downtime)

    if system in STATIC_SYSTEMS:
        make_op = STATIC_OPERATIONS.get((system, collective))
        if make_op is None:
            raise UnsupportedScenarioError(f"{system!r} does not implement {collective!r}")
        return _run_static_with_restarts(cluster, lambda: make_op(cluster, nbytes), num_nodes)

    plane = make_plane(system, cluster, options)
    orchestrator = CollectiveOrchestrator(TaskSystem(cluster, plane))
    spec = _driver_failure_spec(collective, num_nodes, nbytes, f"drvfail-{system}")
    return _invoke(cluster, orchestrator, spec, budget)


def measure_control_plane_failure(
    num_nodes: int,
    nbytes: int,
    collective: str = "allgather",
    target: str = "directory",
    shard_id: int = 0,
    fail_at: Optional[float] = None,
    fail_fraction: Optional[float] = None,
    budget: float = 600.0,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
    stats: Optional[dict] = None,
) -> float:
    """Completion time of one collective whose **control plane dies** mid-run.

    The collective runs on the Hoplite object plane through the
    :class:`~repro.tasksys.orchestrator.CollectiveOrchestrator`; at
    ``fail_at`` the scenario kills the chosen control-plane component:

    * ``target="directory"`` — one directory shard (``shard_id``) loses its
      volatile record table; clients park on the shard's recovery event
      while the shard replays its WAL (checkpoint + tail).
    * ``target="lineage"`` — the lineage/ownership services are wiped and
      rebuilt by :meth:`~repro.tasksys.orchestrator.CollectiveOrchestrator.
      replay_after_restart`; in-flight specs resume at their last durable
      incarnation.
    * ``target="both"`` — both at once.

    ``fail_fraction`` calibrates the kill to land mid-collective exactly as
    in :func:`measure_driver_failure`.  ``fail_at=None`` runs failure-free
    (the baseline).

    If ``stats`` is given (a dict), it is filled with the run's recovery
    accounting, including ``static_restart`` — the completion time a control
    plane *without* WAL replay would post, where losing the directory or the
    lineage log aborts the job and the launcher reruns the collective from
    scratch after one failure-detection delay: ``fail_at + detection +
    baseline``.  Replay-based recovery beating that number is the scenario's
    headline claim.
    """
    network = network or NetworkConfig()
    if target not in ("directory", "lineage", "both"):
        raise ValueError("target must be 'directory', 'lineage', or 'both'")
    if num_nodes < 2:
        raise ValueError("control-plane scenarios need at least two nodes")
    fail_at, baseline = _calibrate(
        fail_at,
        fail_fraction,
        lambda: measure_control_plane_failure(
            num_nodes,
            nbytes,
            collective=collective,
            target=target,
            shard_id=shard_id,
            network=network,
            options=options,
        ),
    )

    cluster = make_cluster(num_nodes, network)
    sim = cluster.sim
    plane = make_plane("hoplite", cluster, options)
    runtime = plane.runtime
    orchestrator = CollectiveOrchestrator(TaskSystem(cluster, plane))
    spec = _driver_failure_spec(collective, num_nodes, nbytes, "ctlfail-hoplite")

    def _killer() -> Generator:
        yield sim.timeout(fail_at)
        if target in ("directory", "both"):
            runtime.directory.fail_shard(shard_id % len(runtime.directory.shards))
        if target in ("lineage", "both"):
            orchestrator.kill_control_plane()

    if fail_at is not None:
        sim.process(_killer(), name="control-plane-killer")

    completion = _invoke(cluster, orchestrator, spec, budget)
    if stats is not None:
        directory = runtime.directory
        stats["fail_at"] = fail_at
        stats["baseline"] = baseline
        stats["shard_kills"] = directory.shard_kills
        stats["replay_applied"] = [
            shard.last_replay_applied for shard in directory.shards
        ]
        stats["replay_self_check"] = [
            shard.replay_self_check for shard in directory.shards
        ]
        stats["control_plane_kills"] = orchestrator.metrics["control_plane_kills"]
        stats["control_plane_resubmissions"] = orchestrator.metrics[
            "control_plane_resubmissions"
        ]
        if baseline is not None and fail_at is not None:
            stats["static_restart"] = (
                fail_at + cluster.config.failure_detection_delay + baseline
            )
    return completion
