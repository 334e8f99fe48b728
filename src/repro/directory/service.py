"""Sharded object directory with partial/complete locations and inline cache."""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Generator, Iterable, Optional

from repro.net.cluster import Cluster
from repro.net.node import Node
from repro.net.transport import NodeFailedError
from repro.sim import Event
from repro.store.objects import ObjectID, ObjectValue


@dataclass
class LocationInfo:
    """One copy of an object, as the directory sees it."""

    node_id: int
    complete: bool
    #: Node the copy is currently being fetched from (``None`` once complete
    #: or if the copy was created locally by ``Put``).  Used to avoid cyclic
    #: fetch dependencies after a failure (Section 3.5.1).
    upstream: Optional[int] = None


@dataclass
class DirectoryRecord:
    """Directory state for a single object."""

    object_id: ObjectID
    size: Optional[int] = None
    locations: dict[int, LocationInfo] = field(default_factory=dict)
    inline_value: Optional[ObjectValue] = None
    #: Events waiting for *any* location (or inline value) to appear.
    waiters: list[Event] = field(default_factory=list)
    #: Events waiting for a location to be released back / become available.
    availability_waiters: list[Event] = field(default_factory=list)
    #: Sources currently checked out by a receiver (requester_id -> source).
    #: Used to restore a source if the receiver dies before releasing it.
    checked_out: dict[int, LocationInfo] = field(default_factory=dict)
    deleted: bool = False
    #: index of the shard that owns this record (assigned once at creation;
    #: CRC placement is stable, so it never changes).
    shard: int = 0


class DirectoryShard:
    """One hash-shard of the directory: a service task on a host node.

    The shard is the directory's unit of failure: :meth:`ObjectDirectory.
    fail_shard` wipes its volatile state (the records it owns) and spawns a
    recovery task that — after the failure-detection delay — fails the shard
    over to an alive host if needed and replays its write-ahead log
    (checkpoint + tail) to reconstruct exactly the state the kill destroyed.
    Requests to a dead shard park on ``recovery_event`` inside the RPC path,
    so clients see a stall, never an error or a job restart.
    """

    __slots__ = (
        "shard_id",
        "node",
        "alive",
        "incarnation",
        "recovery_event",
        "wal",
        "backlog",
        "failovers",
        "last_replay_applied",
        "replay_self_check",
        "_appends_at_kill",
        "_pre_kill_digest",
    )

    def __init__(self, shard_id: int, node: Node, sim):
        self.shard_id = shard_id
        self.node = node
        self.alive = True
        self.incarnation = 0
        self.recovery_event = Event(sim)
        self.wal: Optional[object] = None  # attached by the directory
        #: requests parked during the current downtime; the replayed shard
        #: answers them serially, one service quantum apart, in parking order.
        self.backlog = 0
        self.failovers = 0
        self.last_replay_applied = 0
        #: outcome of the post-replay state self-check: True/False when the
        #: check ran (no WAL appends landed during the downtime, so replayed
        #: state must equal pre-kill state bit for bit), None when appends
        #: during downtime made the comparison meaningless.
        self.replay_self_check: Optional[bool] = None
        self._appends_at_kill = 0
        self._pre_kill_digest: Optional[str] = None


class ObjectDirectory:
    """The distributed object directory service.

    The directory is logically one key-value table; physically it is sharded
    over ``config.num_directory_shards`` shard servers placed round-robin on
    the cluster's nodes.  All methods that simulate an RPC are generators and
    must be driven from a simulation process (``yield from``).
    """

    def __init__(
        self,
        cluster: Cluster,
        selection_seed: int = 0,
        topology_aware: bool = True,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        #: seed of the deterministic tie-break among equally loaded sources
        #: (see :meth:`_eligible_sources`).
        self.selection_seed = int(selection_seed)
        #: prefer closer sources (same rack, then same zone) on hierarchical
        #: fabrics.  On the flat topology every pair is equidistant, so the
        #: flag cannot change the selection order there.
        self.topology_aware = bool(topology_aware) and not cluster.topology.is_flat
        num_shards = min(self.config.num_directory_shards, len(cluster.nodes))
        #: node that hosts each shard (round-robin placement).
        self.shard_nodes: list[Node] = [
            cluster.nodes[shard % len(cluster.nodes)] for shard in range(num_shards)
        ]
        # Deferred import: repro.tasksys re-exports the orchestrator, whose
        # import chain leads back here through repro.core.runtime; by
        # directory-construction time every module is fully initialized.
        from repro.tasksys.wal import WriteAheadLog

        #: the shard service tasks; each owns a WAL so its death is
        #: recoverable by replay (see :class:`DirectoryShard`).
        self.shards: list[DirectoryShard] = [
            DirectoryShard(shard_id, node, self.sim)
            for shard_id, node in enumerate(self.shard_nodes)
        ]
        for shard in self.shards:
            shard.wal = WriteAheadLog(
                self.sim,
                f"dirshard-{shard.shard_id}",
                snapshot_fn=(
                    lambda shard_id=shard.shard_id: self._snapshot_shard(shard_id)
                ),
                on_append=(
                    lambda record, shard=shard: self._on_wal_append(shard, record)
                ),
                on_checkpoint=(
                    lambda seq, shard=shard: self._on_wal_checkpoint(shard, seq)
                ),
            )
        self.shard_kills = 0
        self.records: dict[ObjectID, DirectoryRecord] = {}
        self.lookup_count = 0
        self.publish_count = 0
        #: wake-fan-out cost counters (deterministic, always on — like the
        #: lookup/publish counts above): every ``_notify_waiters`` call, the
        #: waiter events it actually woke, every ``_eligible_sources`` scan,
        #: and the location candidates those scans walked.  ROADMAP item 3
        #: names the O(waiters x candidates) rescan as the directory's
        #: scaling hazard; these four numbers make the future batched-wake
        #: fix measurable.
        self.notify_calls = 0
        self.waiter_wakes = 0
        self.eligibility_scans = 0
        self.eligibility_candidates = 0
        #: memoized source-selection tie-break hashes ((object key, node) ->
        #: int): the blake2b is a pure function of the key, and at fleet
        #: scale the per-candidate hashing dominated eligibility scans.
        self._tie_cache: dict[tuple[str, int], int] = {}
        for node in cluster.nodes:
            node.on_failure(self._on_node_failure)

    # -- plumbing -------------------------------------------------------------
    def _shard_index(self, object_id: ObjectID) -> int:
        # CRC32 rather than hash() so shard placement is stable across runs
        # (Python's string hash is randomized per process).
        return zlib.crc32(object_id.key.encode("utf-8")) % len(self.shards)

    def _shard_of(self, object_id: ObjectID) -> DirectoryShard:
        return self.shards[self._shard_index(object_id)]

    def _shard_node(self, object_id: ObjectID) -> Node:
        return self._shard_of(object_id).node

    def _rpc(self, requester: Node, object_id: ObjectID) -> Generator:
        """One control RPC from the requester to the object's shard.

        A dead shard does not error the request: the requester parks on the
        shard's recovery event and resumes once the shard's WAL replay
        finishes, so a shard kill is a stall, never a failure the data plane
        can observe.  Only the requester's own liveness aborts the RPC.
        """
        if not requester.alive:
            raise NodeFailedError(f"node {requester.node_id} is down", node=requester)
        shard = self._shard_of(object_id)
        shard_node = shard.node
        if requester.node_id == shard_node.node_id:
            timeout = self.sim.timeout(self.config.rpc_latency / 4.0)
            loc = self.sim.locality
            if loc is not None:
                loc.tag(timeout, requester.node_id)
            yield timeout
        else:
            # Control-plane traffic rides the latency path (it never occupies
            # a bulk link slot) but is visible to the flow accounting.
            requester.uplink_sched.record_control()
            obs = self.cluster.obs
            if obs is not None:
                obs.control_plane["shard_rpcs"].inc()
            timeout = self.sim.timeout(self.config.rpc_latency)
            loc = self.sim.locality
            if loc is not None:
                # A cross-rack control RPC is a zero-lookahead partition
                # interaction: the shard answers at RPC latency, below the
                # cross-rack propagation lookahead a conservative PDES
                # window relies on.
                if self.cluster.topology.same_rack(
                    requester.node_id, shard_node.node_id
                ):
                    loc.tag(timeout, requester.node_id)
                else:
                    loc.tag_sync_rpc(timeout)
            yield timeout
        while not shard.alive:
            # Take a position in the dead shard's backlog: the replayed shard
            # answers parked requests *serially*, one service quantum apart,
            # in parking order.  Without the stagger every parked continuation
            # resumes at the same instant, the resumed chains then march in
            # lockstep (identical hop latencies) and land same-instant link
            # releases whose within-timestep order the coalescing fast paths
            # do not preserve — admission of multi-link reservations would
            # then depend on it.  A serial drain is also what a real replayed
            # service does with its request queue.
            position = shard.backlog
            shard.backlog += 1
            flight = self.cluster.flight
            if flight is not None:
                flight.phase(
                    f"dirshard:{shard.shard_id}",
                    f"rpc_parked/n{requester.node_id}/{object_id}",
                )
            while not shard.alive:
                yield shard.recovery_event
            yield self.sim.timeout(
                (position + 1) * (self.config.rpc_latency / 64.0)
            )
            # Re-killed while draining: loop and take a fresh position.
        if not requester.alive:
            raise NodeFailedError(f"node {requester.node_id} is down", node=requester)

    def _record(self, object_id: ObjectID) -> DirectoryRecord:
        record = self.records.get(object_id)
        if record is None:
            record = DirectoryRecord(
                object_id=object_id, shard=self._shard_index(object_id)
            )
            self.records[object_id] = record
        return record

    # -- write-ahead logging ---------------------------------------------------
    def _on_wal_append(self, shard: DirectoryShard, record) -> None:
        obs = self.cluster.obs
        if obs is not None:
            obs.control_plane["wal_appends"].inc()
        flight = self.cluster.flight
        if flight is not None:
            flight.phase(f"dirshard:{shard.shard_id}", f"wal_append/{record.kind}")

    def _on_wal_checkpoint(self, shard: DirectoryShard, seq: int) -> None:
        obs = self.cluster.obs
        if obs is not None:
            obs.control_plane["checkpoints"].inc()
        flight = self.cluster.flight
        if flight is not None:
            flight.phase(f"dirshard:{shard.shard_id}", f"checkpoint/seq={seq}")

    def _commit(self, record: DirectoryRecord, kind: str, data: tuple):
        """Log one mutation to the owning shard's WAL, then apply it.

        The WAL entry carries the *evaluated* effect (chosen source, restore
        decision, dead set), so replay is a pure function of the log — it
        never re-reads node liveness or re-runs source selection.
        """
        self.shards[record.shard].wal.append(kind, (record.object_id,) + data)
        return self._apply(record, kind, data)

    def _apply(self, record: DirectoryRecord, kind: str, data: tuple):
        """Apply one logged mutation to a record: the live path and WAL
        replay share this function, so replayed state cannot drift."""
        if kind == "publish_partial":
            node_id, size, upstream = data
            record.size = size if record.size is None else record.size
            existing = record.locations.get(node_id)
            if existing is not None and existing.complete:
                return None
            record.locations[node_id] = LocationInfo(
                node_id=node_id, complete=False, upstream=upstream
            )
        elif kind == "publish_complete":
            node_id, size = data
            record.size = size if record.size is None else record.size
            record.locations[node_id] = LocationInfo(
                node_id=node_id, complete=True, upstream=None
            )
        elif kind == "put_inline":
            (value,) = data
            record.size = value.size
            record.inline_value = value
        elif kind == "remove_location":
            (node_id,) = data
            record.locations.pop(node_id, None)
        elif kind == "delete":
            record.locations.clear()
            record.inline_value = None
            record.deleted = True
        elif kind == "acquire":
            requester_id, node_id, complete, upstream = data
            chosen = record.locations.pop(node_id, None)
            if chosen is None:  # replay into reconstructed state
                chosen = LocationInfo(
                    node_id=node_id, complete=complete, upstream=upstream
                )
            record.checked_out[requester_id] = chosen
            existing = record.locations.get(requester_id)
            if existing is None or not existing.complete:
                record.locations[requester_id] = LocationInfo(
                    node_id=requester_id, complete=False, upstream=node_id
                )
            return chosen
        elif kind == "release":
            requester_id, node_id, complete, upstream, restore, succeeded = data
            record.checked_out.pop(requester_id, None)
            if restore:
                existing = record.locations.get(node_id)
                if existing is None or not existing.complete:
                    record.locations[node_id] = LocationInfo(
                        node_id=node_id, complete=complete, upstream=upstream
                    )
            if succeeded:
                record.locations[requester_id] = LocationInfo(
                    node_id=requester_id, complete=True, upstream=None
                )
        elif kind == "purge":
            node_id, dead = data
            record.locations.pop(node_id, None)
            checked_out = record.checked_out.pop(node_id, None)
            if checked_out is not None:
                if (
                    checked_out.node_id not in dead
                    and checked_out.node_id not in record.locations
                ):
                    record.locations[checked_out.node_id] = checked_out
        else:  # pragma: no cover - programming error
            raise ValueError(f"unknown directory WAL op {kind!r}")
        return None

    def _notify_waiters(self, record: DirectoryRecord) -> None:
        self.notify_calls += 1
        wakes = 0
        if record.locations or record.inline_value is not None:
            for event in record.waiters:
                if not event.triggered:
                    event.succeed(record)
                    wakes += 1
            record.waiters = []
        for event in record.availability_waiters:
            if not event.triggered:
                event.succeed(record)
                wakes += 1
        record.availability_waiters = []
        self.waiter_wakes += wakes

    # -- synchronous (zero-cost) inspection helpers, used by tests -------------
    def peek_record(self, object_id: ObjectID) -> Optional[DirectoryRecord]:
        return self.records.get(object_id)

    def locations_of(self, object_id: ObjectID) -> dict[int, LocationInfo]:
        record = self.records.get(object_id)
        return dict(record.locations) if record else {}

    def known_size(self, object_id: ObjectID) -> Optional[int]:
        record = self.records.get(object_id)
        if record is None:
            return None
        if record.size is not None:
            return record.size
        if record.inline_value is not None:
            return record.inline_value.size
        return None

    def is_created(self, object_id: ObjectID) -> bool:
        """True once the object has any location or an inline value."""
        record = self.records.get(object_id)
        if record is None:
            return False
        return bool(record.locations) or record.inline_value is not None

    def creation_event(self, object_id: ObjectID) -> Event:
        """An event that fires as soon as the object exists anywhere."""
        record = self._record(object_id)
        event = Event(self.sim)
        if record.locations or record.inline_value is not None:
            event.succeed(record)
        else:
            record.waiters.append(event)
        return event

    # -- publishing -------------------------------------------------------------
    def publish_partial(
        self,
        requester: Node,
        object_id: ObjectID,
        size: int,
        upstream: Optional[int] = None,
    ) -> Generator:
        """Announce that ``requester`` holds (or is building) a partial copy."""
        yield from self._rpc(requester, object_id)
        self.publish_count += 1
        record = self._record(object_id)
        existing = record.locations.get(requester.node_id)
        already_complete = existing is not None and existing.complete
        self._commit(record, "publish_partial", (requester.node_id, size, upstream))
        if already_complete:
            return
        self._notify_waiters(record)

    def publish_complete(self, requester: Node, object_id: ObjectID, size: int) -> Generator:
        """Announce that ``requester`` now holds a complete copy."""
        yield from self._rpc(requester, object_id)
        self.publish_count += 1
        record = self._record(object_id)
        self._commit(record, "publish_complete", (requester.node_id, size))
        self._notify_waiters(record)

    def put_inline(self, requester: Node, object_id: ObjectID, value: ObjectValue) -> Generator:
        """Cache a small object directly in the directory (fast path)."""
        yield from self._rpc(requester, object_id)
        self.publish_count += 1
        record = self._record(object_id)
        self._commit(record, "put_inline", (value,))
        self._notify_waiters(record)

    def remove_location(self, requester: Node, object_id: ObjectID, node_id: int) -> Generator:
        """Remove a location (e.g. an evicted copy)."""
        yield from self._rpc(requester, object_id)
        record = self.records.get(object_id)
        if record is not None:
            self._commit(record, "remove_location", (node_id,))

    def delete_object(self, requester: Node, object_id: ObjectID) -> Generator:
        """Drop every trace of the object (the ``Delete`` API)."""
        yield from self._rpc(requester, object_id)
        record = self.records.get(object_id)
        if record is not None:
            self._commit(record, "delete", ())

    # -- lookups ---------------------------------------------------------------
    def try_get_inline(self, requester: Node, object_id: ObjectID) -> Generator:
        """Fetch the inline-cached value, if any (one RPC)."""
        yield from self._rpc(requester, object_id)
        self.lookup_count += 1
        record = self.records.get(object_id)
        if record is None:
            return None
        return record.inline_value

    def wait_for_object(self, requester: Node, object_id: ObjectID) -> Generator:
        """Synchronous location query: block until the object exists somewhere."""
        yield from self._rpc(requester, object_id)
        self.lookup_count += 1
        record = self._record(object_id)
        while not record.locations and record.inline_value is None:
            event = Event(self.sim)
            loc = self.sim.locality
            if loc is not None:
                loc.tag(event, requester.node_id)
            record.waiters.append(event)
            yield event
        return record

    # -- broadcast coordination ---------------------------------------------------
    def _location_view(self, record: DirectoryRecord) -> dict[int, LocationInfo]:
        """Locations plus checked-out sources, for dependency-chain walks.

        Checked-out sources are removed from ``locations`` while they serve a
        receiver, but their upstream pointers must stay visible here: a chain
        that silently ends at a checked-out node would let two receivers pick
        each other's partials as sources and deadlock with neither able to
        make progress (each waiting for blocks only the other could produce).
        Built once per eligibility scan — rebuilding it per candidate made
        source selection quadratic at fleet scale.
        """
        view = dict(record.locations)
        for info in record.checked_out.values():
            view.setdefault(info.node_id, info)
        return view

    def _dependency_chain(
        self, record: DirectoryRecord, node_id: int, view: Optional[dict] = None
    ) -> set[int]:
        """Follow the ``upstream`` pointers from ``node_id``."""
        if view is None:
            view = self._location_view(record)
        chain: set[int] = set()
        current: Optional[int] = node_id
        while current is not None and current not in chain:
            chain.add(current)
            info = view.get(current)
            current = info.upstream if info is not None else None
        return chain

    def _is_excluded(self, node_id: int, exclude) -> bool:
        """Whether ``node_id`` is ruled out by the requester's exclusion set.

        ``exclude`` is either a plain iterable of node ids (excluded
        unconditionally) or a mapping ``node_id -> incarnation`` recorded
        when that source failed the requester: the node stays excluded only
        while its incarnation has not advanced, so a source that recovers
        (and re-publishes the object) becomes eligible again even for a
        requester already parked inside :meth:`acquire_transfer_source`.
        """
        if isinstance(exclude, dict):
            incarnation = exclude.get(node_id)
            if incarnation is None:
                return False
            return self.cluster.nodes[node_id].incarnation <= incarnation
        return node_id in set(exclude)

    def _eligible_sources(
        self, record: DirectoryRecord, requester_id: int, exclude
    ) -> list[LocationInfo]:
        self.eligibility_scans += 1
        self.eligibility_candidates += len(record.locations)
        sources = []
        view: Optional[dict] = None
        for info in record.locations.values():
            if info.node_id == requester_id or self._is_excluded(info.node_id, exclude):
                continue
            node = self.cluster.nodes[info.node_id]
            if not node.alive:
                continue
            # Cycle avoidance: never pick a source whose own fetch depends,
            # transitively, on the requester (Section 3.5.1).
            if view is None:
                view = self._location_view(record)
            if requester_id in self._dependency_chain(record, info.node_id, view):
                continue
            sources.append(info)
        # Prefer complete copies over partial ones, then — on a hierarchical
        # fabric — closer copies over farther ones (same rack before same
        # zone before cross-zone: a same-rack pull costs no shared tier
        # slot, so one cross-rack transfer per rack suffices and the rest of
        # the broadcast tree relays inside the rack), then idle uplinks over
        # busy ones: when many objects disseminate concurrently (allgather,
        # alltoall) this spreads the transfers across distinct senders
        # instead of convoying them through the lowest-numbered node.
        topology = self.cluster.topology

        def _distance(info: LocationInfo) -> int:
            if not self.topology_aware:
                return 0
            return topology.distance(requester_id, info.node_id)

        def _load(info: LocationInfo) -> int:
            uplink = self.cluster.nodes[info.node_id].uplink
            return uplink.in_use + uplink.queue_length

        # Under equal load the tie-break is a seeded hash of (seed, object,
        # candidate) rather than the raw node id: still fully deterministic —
        # a seeded run is byte-for-byte reproducible — but without the
        # systematic bias toward low-numbered nodes, and re-seedable so the
        # fault matrix can vary schedules while staying replayable.  blake2b
        # rather than crc32: crc is linear, so same-length object ids would
        # shift every candidate's hash by the same XOR constant and the
        # per-object variation would collapse to one global order.
        tie_cache = self._tie_cache

        def _tie_break(info: LocationInfo) -> int:
            cache_key = (record.object_id.key, info.node_id)
            cached = tie_cache.get(cache_key)
            if cached is None:
                token = f"{self.selection_seed}:{record.object_id.key}:{info.node_id}"
                digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
                cached = int.from_bytes(digest, "big")
                tie_cache[cache_key] = cached
            return cached

        sources.sort(
            key=lambda info: (
                not info.complete,
                _distance(info),
                _load(info),
                _tie_break(info),
                info.node_id,
            )
        )
        return sources

    def _rack_local_copy_pending(
        self, record: DirectoryRecord, requester_id: int, exclude
    ) -> bool:
        """Whether a same-rack copy exists but is currently unavailable.

        A copy checked out to another receiver (or a partial already fully
        claimed) will come back to the location table when that transfer
        finishes; a topology-aware requester whose best *eligible* source is
        cross-rack prefers to wait for the rack-local one rather than burn a
        scarce shared tier slot — this is what keeps a rack-aware broadcast
        at one cross-rack transfer per rack.  Dead, excluded, and
        cycle-dependent copies (a chain through the requester itself) never
        count.  The wait itself is *bounded* by the caller (one failure-
        detection delay): a partial whose producing fetch silently died —
        e.g. its node failed and recovered mid-transfer — would otherwise
        park a whole rack of requesters forever, each seeing the others'
        frozen partials as "pending".
        """
        topology = self.cluster.topology
        view = self._location_view(record)
        for info in view.values():
            if info.node_id == requester_id:
                continue
            if not topology.same_rack(requester_id, info.node_id):
                continue
            if self._is_excluded(info.node_id, exclude):
                continue
            if not self.cluster.nodes[info.node_id].alive:
                continue
            if requester_id in self._dependency_chain(record, info.node_id, view):
                continue
            return True
        return False

    def acquire_transfer_source(
        self,
        requester: Node,
        object_id: ObjectID,
        exclude: Iterable[int] | dict[int, int] = (),
    ) -> Generator:
        """Pick a source to fetch the object from, per the broadcast protocol.

        Blocks until a suitable source exists.  Atomically removes the chosen
        source from the location table (so it serves one receiver at a time)
        and registers the requester as a partial location whose upstream is
        the chosen source.  Returns the chosen :class:`LocationInfo`.

        ``exclude`` may be a ``node_id -> incarnation`` mapping (see
        :meth:`_is_excluded`); eligibility is re-evaluated every time the
        record changes, so exclusions lapse when excluded nodes recover.

        Topology-aware mode additionally parks a requester whose best
        eligible source is in another rack while a same-rack copy is merely
        *busy* (see :meth:`_rack_local_copy_pending`).  That park is bounded
        by one full service of the object (its serialization time, floored
        by ``failure_detection_delay``): a live busy copy returns to the
        table within that budget, after which the requester stops insisting
        on locality and takes the best eligible source wherever it lives —
        so a rack whose local copies are all frozen (producers dead)
        degrades to cross-rack fetches instead of deadlocking on its own
        ghost partials.
        """
        yield from self._rpc(requester, object_id)
        self.lookup_count += 1
        record = self._record(object_id)
        #: absolute time at which this acquire stops insisting on locality;
        #: fixed when the first park begins, so record churn (other
        #: receivers checking copies in and out keeps re-firing the waiter)
        #: cannot restart the window.  The budget covers one full service of
        #: the object — a *live* busy copy returns to the table within its
        #: serialization time, while a ghost partial (producer silently
        #: gone) never does and the requester degrades to cross-rack — with
        #: the failure-detection delay as the floor for small objects.
        locality_deadline: Optional[float] = None
        while True:
            sources = self._eligible_sources(record, requester.node_id, exclude)
            hold_for_rack = bool(
                sources
                and self.topology_aware
                and not self.cluster.topology.same_rack(
                    requester.node_id, sources[0].node_id
                )
                and self._rack_local_copy_pending(record, requester.node_id, exclude)
            )
            if hold_for_rack:
                if locality_deadline is None:
                    # One full service of the object plus the detection
                    # delay as slack: a busy rack-local copy is released at
                    # the end of its current stream, which takes exactly
                    # one serialization time — an expiry equal to it would
                    # race the release and lose by a propagation delay.
                    budget = (
                        self.config.failure_detection_delay
                        + self.config.transmission_time(record.size or 0)
                        + self.config.latency
                    )
                    locality_deadline = self.sim.now + budget
                elif self.sim.now >= locality_deadline:
                    hold_for_rack = False
            if sources and not hold_for_rack:
                chosen = sources[0]
                # The WAL entry carries the evaluated choice: replay must
                # not re-run source selection against replayed state.
                chosen = self._commit(
                    record,
                    "acquire",
                    (
                        requester.node_id,
                        chosen.node_id,
                        chosen.complete,
                        chosen.upstream,
                    ),
                )
                self._notify_waiters(record)
                return chosen
            event = Event(self.sim)
            loc = self.sim.locality
            if loc is not None:
                loc.tag(event, requester.node_id)
            record.availability_waiters.append(event)
            record.waiters.append(event)
            if hold_for_rack:
                # Re-evaluate on any record change, or when the locality
                # deadline expires — whichever comes first.
                yield self.sim.any_of(
                    [event, self.sim.timeout(locality_deadline - self.sim.now)]
                )
            else:
                yield event

    def release_transfer_source(
        self,
        requester: Node,
        object_id: ObjectID,
        source: LocationInfo,
        succeeded: bool,
    ) -> Generator:
        """Give the source back to the directory after a transfer attempt.

        On success the requester is also promoted to a complete location.
        A failed source (dead node) is not re-added.
        """
        yield from self._rpc(requester, object_id)
        record = self._record(object_id)
        restore = self.cluster.nodes[source.node_id].alive
        self._commit(
            record,
            "release",
            (
                requester.node_id,
                source.node_id,
                source.complete,
                source.upstream,
                restore,
                succeeded,
            ),
        )
        self._notify_waiters(record)

    # -- failure handling -----------------------------------------------------------
    def _on_node_failure(self, node: Node) -> None:
        """Purge every location hosted by a failed node.

        A *data-plane* node failure does not take its shard down with it:
        shard death is its own injected fault class (:meth:`fail_shard`),
        so every pre-existing failure scenario keeps its exact schedule.
        The purge is logged to every shard's WAL with the evaluated dead
        set — a purge that lands while a shard is down mutates nothing live
        (the state is already wiped) but replays in order during recovery,
        which is what makes replayed state the real post-downtime truth.
        """
        dead = tuple(
            sorted(n.node_id for n in self.cluster.nodes if not n.alive)
        )
        for shard in self.shards:
            shard.wal.append("purge", (node.node_id, dead))
        for record in self.records.values():
            if not self.shards[record.shard].alive:
                continue
            record.locations.pop(node.node_id, None)
            # If the failed node had checked out a source for an in-flight
            # fetch, put that source back so other receivers can still use it.
            checked_out = record.checked_out.pop(node.node_id, None)
            if checked_out is not None:
                source_node = self.cluster.nodes[checked_out.node_id]
                if source_node.alive and checked_out.node_id not in record.locations:
                    record.locations[checked_out.node_id] = checked_out
            if record.locations or record.inline_value is not None:
                self._notify_waiters(record)

    # -- shard failure: the control-plane fault class ---------------------------
    def _wipe_record(self, record: DirectoryRecord) -> None:
        """Drop a record's volatile state; parked waiters stay attached."""
        record.size = None
        record.locations.clear()
        record.inline_value = None
        record.checked_out.clear()
        record.deleted = False

    def _snapshot_shard(self, shard_id: int) -> tuple:
        """An immutable snapshot of every record the shard owns."""
        snapshot = []
        for object_id, record in self.records.items():
            if record.shard != shard_id:
                continue
            snapshot.append(
                (
                    object_id,
                    record.size,
                    record.inline_value,
                    record.deleted,
                    tuple(
                        (info.node_id, info.complete, info.upstream)
                        for info in record.locations.values()
                    ),
                    tuple(
                        (requester_id, info.node_id, info.complete, info.upstream)
                        for requester_id, info in record.checked_out.items()
                    ),
                )
            )
        return tuple(snapshot)

    def _restore_shard(self, shard_id: int, snapshot) -> None:
        """Load a checkpoint snapshot back into the live record table."""
        for record in self.records.values():
            if record.shard == shard_id:
                self._wipe_record(record)
        for object_id, size, inline_value, deleted, locations, checked_out in (
            snapshot or ()
        ):
            record = self._record(object_id)
            record.size = size
            record.inline_value = inline_value
            record.deleted = deleted
            record.locations = {
                node_id: LocationInfo(
                    node_id=node_id, complete=complete, upstream=upstream
                )
                for node_id, complete, upstream in locations
            }
            record.checked_out = {
                requester_id: LocationInfo(
                    node_id=node_id, complete=complete, upstream=upstream
                )
                for requester_id, node_id, complete, upstream in checked_out
            }

    def _replay_record(self, shard: DirectoryShard, wal_record) -> None:
        """Re-apply one WAL record during shard recovery."""
        if wal_record.kind == "purge":
            node_id, dead = wal_record.data
            for record in self.records.values():
                if record.shard == shard.shard_id:
                    self._apply(record, "purge", (node_id, dead))
            return
        object_id = wal_record.data[0]
        record = self._record(object_id)
        self._apply(record, wal_record.kind, wal_record.data[1:])

    def _shard_digest(self, shard_id: int) -> str:
        """Deterministic digest of a shard's state (replay self-checks)."""
        parts = []
        for object_id, record in self.records.items():
            if record.shard != shard_id:
                continue
            parts.append(
                (
                    object_id.key,
                    record.size,
                    record.deleted,
                    None
                    if record.inline_value is None
                    else record.inline_value.size,
                    tuple(
                        (info.node_id, info.complete, info.upstream)
                        for info in record.locations.values()
                    ),
                    tuple(
                        (requester_id, info.node_id, info.complete, info.upstream)
                        for requester_id, info in record.checked_out.items()
                    ),
                )
            )
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()

    def fail_shard(self, shard_id: int) -> None:
        """Kill one directory shard: its volatile state is lost *now*.

        Every record the shard owns is wiped in place (record identity and
        table order are preserved — clients hold references across yields);
        requests park in :meth:`_rpc` until the spawned recovery task brings
        the shard back by WAL replay.  Auto-checkpointing freezes for the
        downtime so no snapshot of wiped state can be taken.
        """
        shard = self.shards[shard_id]
        if not shard.alive:
            return
        shard.alive = False
        shard.incarnation += 1
        shard.backlog = 0
        shard.recovery_event = Event(self.sim)
        shard.wal.frozen = True
        shard._appends_at_kill = shard.wal.appends
        shard._pre_kill_digest = self._shard_digest(shard_id)
        shard.replay_self_check = None
        self.shard_kills += 1
        flight = self.cluster.flight
        if flight is not None:
            flight.phase(
                f"dirshard:{shard_id}", f"kill/incarnation={shard.incarnation}"
            )
        for record in self.records.values():
            if record.shard == shard_id:
                self._wipe_record(record)
        self.sim.process(
            self._recover_shard(shard), name=f"dirshard-{shard_id}-recovery"
        )

    def _recover_shard(self, shard: DirectoryShard) -> Generator:
        """Detect, fail over if the host died, replay the WAL, come back."""
        yield self.sim.timeout(self.config.failure_detection_delay)
        flight = self.cluster.flight
        if not shard.node.alive:
            alive = self.cluster.alive_nodes()
            if alive:
                num_nodes = len(self.cluster.nodes)
                start = shard.node.node_id
                new_host = min(
                    alive,
                    key=lambda n: ((n.node_id - start) % num_nodes, n.node_id),
                )
                old_id = shard.node.node_id
                shard.node = new_host
                self.shard_nodes[shard.shard_id] = new_host
                shard.failovers += 1
                if flight is not None:
                    flight.phase(
                        f"dirshard:{shard.shard_id}",
                        f"shard_failover/{old_id}->{new_host.node_id}",
                    )
        if flight is not None:
            flight.phase(f"dirshard:{shard.shard_id}", "replay_begin")
        applied = shard.wal.replay(
            lambda snapshot: self._restore_shard(shard.shard_id, snapshot),
            lambda wal_record: self._replay_record(shard, wal_record),
        )
        shard.last_replay_applied = applied
        # Replay cost: one RPC to load the checkpoint plus a quarter-latency
        # per tail record re-applied — deterministic, so recovered runs stay
        # byte-reproducible.
        yield self.sim.timeout(
            self.config.rpc_latency * (1.0 + 0.25 * applied)
        )
        shard.alive = True
        shard.wal.frozen = False
        if shard.wal.appends == shard._appends_at_kill:
            # Nothing happened during the downtime: replayed state must be
            # bit-identical to what the kill destroyed.
            shard.replay_self_check = (
                self._shard_digest(shard.shard_id) == shard._pre_kill_digest
            )
        obs = self.cluster.obs
        if obs is not None:
            obs.control_plane["replays"].inc()
        if flight is not None:
            flight.phase(
                f"dirshard:{shard.shard_id}", f"replay_end/applied={applied}"
            )
        shard.recovery_event.succeed(shard)
        # Deferred waiter notifications drain serially *after* the parked RPC
        # backlog, continuing its slot sequence, so no two recovery-driven
        # continuations resume at the same instant (see the stagger rationale
        # in :meth:`_rpc`).  ``shard.backlog`` is final here: any request that
        # arrives after ``alive`` flipped above never parks.
        pending = [
            record
            for record in self.records.values()
            if record.shard == shard.shard_id
            and (record.locations or record.inline_value is not None)
            and (record.waiters or record.availability_waiters)
        ]
        quantum = self.config.rpc_latency / 64.0
        base = self.sim.now
        slot = shard.backlog + 1
        for record in pending:
            wake = Event(self.sim)
            self.sim.schedule_at(wake, base + slot * quantum)
            yield wake
            slot += 1
            if not shard.alive:
                # Re-killed mid-drain; the new recovery owns the rest.
                return
            self._notify_waiters(record)
