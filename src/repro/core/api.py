"""The Hoplite client API (Table 1): Put, Get, Delete, Reduce (+ AllReduce,
AllGather, ReduceScatter, AllToAll compositions).

Every method is a generator meant to be driven by a simulation process::

    client = runtime.client(node)
    value = yield from client.get(object_id)

The timing of each call (memory copies, directory RPCs, network transfers)
is charged to the simulated clock; the return values carry real payloads when
the objects were created with payloads, so functional correctness can be
asserted in tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.core.alltoall import AllToAllExecution, AllToAllResult
from repro.core.broadcast import fetch_object
from repro.core.gather import (
    AllGatherExecution,
    AllGatherResult,
    ReduceScatterExecution,
    ReduceScatterResult,
)
from repro.core.reduce import ReduceResult, adopt_or_create_reduction
from repro.core.stream import stream_blocks
from repro.net.flowsched import Flow
from repro.net.node import Node
from repro.net.transport import NodeFailedError, local_copy
from repro.store.objects import ObjectID, ObjectValue, ReduceOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import HopliteRuntime


class HopliteClient:
    """The per-node entry point to Hoplite.

    A client is bound to a node; conceptually it is the library linked into
    every task worker running on that node.
    """

    def __init__(self, runtime: "HopliteRuntime", node: Node):
        self.runtime = runtime
        self.node = node
        self.sim = runtime.sim
        self.config = runtime.config

    # ------------------------------------------------------------------ Put --
    def put(self, object_id: ObjectID, value: ObjectValue) -> Generator:
        """Create an object with the given id from the worker's buffer.

        The copy into the local store is pipelined with any downstream
        transfer: the location is published to the directory as soon as the
        Put starts, so receivers can begin fetching blocks before the copy
        finishes (Section 3.3).
        """
        runtime = self.runtime
        store = runtime.store(self.node)
        directory = runtime.directory
        options = runtime.options

        entry = store.create_or_get(object_id, value.size, pin=True)
        entry.metadata.update(value.metadata)

        if runtime.small_object(value.size):
            # Small objects: pay one (tiny) copy, cache inline in the
            # directory, and publish the local complete copy.
            yield from local_copy(self.config, self.node, value.size)
            entry.seal(value.payload)
            yield from directory.put_inline(self.node, object_id, value)
            yield from directory.publish_complete(self.node, object_id, value.size)
            return object_id

        if options.enable_pipelining:
            # Publish the partial location first so receivers can stream.
            yield from directory.publish_partial(
                self.node, object_id, value.size, upstream=None
            )
            # The copy-in streams into the store block by block; runs of
            # blocks coalesce, or form a convoy when several Puts share the
            # memcpy channel (see repro.core.stream).
            yield from stream_blocks(runtime, self.node, self.node, entry)
        else:
            yield from local_copy(self.config, self.node, value.size)
        entry.seal(value.payload)
        yield from directory.publish_complete(self.node, object_id, value.size)
        return object_id

    # ------------------------------------------------------------------ Get --
    def get(
        self,
        object_id: ObjectID,
        read_only: bool = True,
        flow: Optional[Flow] = None,
    ) -> Generator:
        """Fetch an object buffer by id, blocking until it is available.

        ``read_only=True`` returns a pointer into the local store (no copy),
        which is how the paper runs its evaluation; ``read_only=False`` pays
        an extra store-to-worker copy.  ``flow`` tags the fetch's transfers
        for admission priority and per-flow accounting (collectives pass
        their own flow ids; plain gets default to a bulk-class flow).
        """
        runtime = self.runtime
        store = runtime.store(self.node)
        directory = runtime.directory
        manager = runtime.manager(self.node)

        entry = store.try_get_entry(object_id)
        if entry is None or not entry.sealed:
            # Small-object fast path: the value may live inline in the directory.
            known_size = directory.known_size(object_id)
            if runtime.options.enable_small_object_cache and (
                known_size is None or runtime.small_object(known_size)
            ):
                yield from directory.wait_for_object(self.node, object_id)
                size = directory.known_size(object_id) or 0
                if runtime.small_object(size):
                    inline = yield from directory.try_get_inline(self.node, object_id)
                    if inline is not None:
                        yield from local_copy(self.config, self.node, size)
                        return inline if read_only else inline.copy()
            # Full path: share a single in-flight fetch per node per object.
            fetch = manager.inflight_fetches.get(object_id)
            if fetch is None or not fetch.is_alive:
                fetch = self.sim.process(
                    fetch_object(runtime, self.node, object_id, flow=flow),
                    name=f"fetch-{object_id}-n{self.node.node_id}",
                )
                manager.inflight_fetches[object_id] = fetch
            yield fetch
            if manager.inflight_fetches.get(object_id) is fetch:
                manager.inflight_fetches.pop(object_id, None)
            entry = store.try_get_entry(object_id)
            if entry is None or not entry.sealed:
                # The copy vanished between the fetch completing and this
                # read: the node failed in the same instant (store cleared)
                # or the copy was evicted.  Fail like any other transfer on
                # a dead node so retry loops see a TransferError; otherwise
                # simply fetch again.
                if not self.node.alive:
                    raise NodeFailedError(
                        f"node {self.node.node_id} is down", node=self.node
                    )
                result = yield from self.get(object_id, read_only=read_only, flow=flow)
                return result

        # Record the relay copy with the orchestration layer: this node is
        # now an adoptable source for the object (broadcast relays in the
        # ownership table, Section 6).
        runtime.orchestration.record_copy(object_id, self.node.node_id)
        if not read_only:
            yield from local_copy(self.config, self.node, entry.size)
            value = entry.to_value()
            return value.copy()
        return entry.to_value()

    # --------------------------------------------------------------- Delete --
    def delete(self, object_id: ObjectID) -> Generator:
        """Delete all copies of an object (called by the framework)."""
        runtime = self.runtime
        yield from runtime.directory.delete_object(self.node, object_id)
        for store in runtime.stores.values():
            store.delete(object_id)
        return None

    # --------------------------------------------------------------- Reduce --
    def reduce(
        self,
        target_id: ObjectID,
        source_ids: Sequence[ObjectID],
        op: ReduceOp = ReduceOp.SUM,
        num_objects: Optional[int] = None,
    ) -> Generator:
        """Reduce ``num_objects`` of the given sources into ``target_id``.

        Returns a :class:`~repro.core.reduce.ReduceResult`; the reduced object
        itself is obtained with :meth:`get` on ``target_id`` (it lives at the
        reduce tree's root until then).

        The execution's coordination loop runs as a detached driver process
        (obtained through the runtime's orchestration hook), so the reduce
        keeps making progress if the calling task dies; a re-executed caller
        issuing the same Reduce adopts the surviving execution.
        """
        execution = adopt_or_create_reduction(
            self.runtime,
            self.node,
            target_id,
            source_ids,
            op,
            num_objects=num_objects,
        )
        result: ReduceResult = yield from execution.run()
        return result

    # ------------------------------------------------------------- AllReduce --
    def allreduce(
        self,
        target_id: ObjectID,
        source_ids: Sequence[ObjectID],
        op: ReduceOp = ReduceOp.SUM,
        num_objects: Optional[int] = None,
    ) -> Generator:
        """Reduce then fetch the result locally (reduce ∘ broadcast).

        Hoplite has no dedicated allreduce: each participant simply calls
        ``Get`` on the reduce target (Section 3.4.3).  This helper performs
        the caller's share; other participants call :meth:`get` themselves.
        """
        result = yield from self.reduce(target_id, source_ids, op, num_objects)
        value = yield from self.get(target_id)
        return result, value

    # ------------------------------------------------------------- AllGather --
    def allgather(self, source_ids: Sequence[ObjectID]) -> Generator:
        """Fetch every source object locally; each is its own broadcast.

        Performs this participant's share of an allgather (Section 3.4.1 per
        object): the other participants call :meth:`allgather` themselves and
        the per-object broadcast trees grow across all of them.  Returns an
        :class:`~repro.core.gather.AllGatherResult`.
        """
        execution = AllGatherExecution(self.runtime, self.node, source_ids)
        result: AllGatherResult = yield from execution.run()
        return result

    # --------------------------------------------------------- ReduceScatter --
    def reduce_scatter(
        self,
        target_id: ObjectID,
        source_ids: Sequence[ObjectID],
        op: ReduceOp = ReduceOp.SUM,
        num_objects: Optional[int] = None,
    ) -> Generator:
        """Reduce this participant's shard column into ``target_id`` and fetch it.

        ``source_ids`` is the caller's *column* of the logical shard matrix
        (the objects every participant produced for this caller's shard).
        Each participant calls :meth:`reduce_scatter` on its own column, so
        the ``n`` shard reductions run as ``n`` concurrent dynamic trees
        (Section 3.4.2) that repair independently on failure.  Returns a
        :class:`~repro.core.gather.ReduceScatterResult`.
        """
        execution = ReduceScatterExecution(
            self.runtime,
            self.node,
            target_id,
            source_ids,
            op,
            num_objects=num_objects,
        )
        result: ReduceScatterResult = yield from execution.run()
        return result

    # -------------------------------------------------------------- AllToAll --
    def alltoall(
        self,
        sends: Sequence[tuple[ObjectID, ObjectValue]],
        recv_ids: Sequence[ObjectID],
    ) -> Generator:
        """Exchange personalized objects with every peer (MoE-style routing).

        ``sends`` is this participant's row of the exchange matrix and
        ``recv_ids`` its column; sends and receives stream concurrently so
        both NIC directions stay busy (Section 3.3).  Returns an
        :class:`~repro.core.alltoall.AllToAllResult`.
        """
        execution = AllToAllExecution(self.runtime, self.node, sends, recv_ids)
        result: AllToAllResult = yield from execution.run()
        return result
