"""Dynamic tree reduce (Section 3.4.2) with failure repair (Section 3.5.2).

A ``Reduce`` call names a target ObjectID, a list of candidate source
ObjectIDs, a reduce operator, and optionally ``num_objects`` (reduce only the
first ``num_objects`` sources that become ready).  Hoplite:

1. picks a tree degree ``d`` from the analytical model
   ``T(1) = n·L + S/B`` and ``T(d) = L·log_d(n) + d·S/B`` (the implementation
   considers ``d ∈ {1, 2, n}``, like the paper's);
2. lays the first ``n`` *ready* objects onto a ``d``-ary tree whose
   generalized in-order traversal equals the arrival order, so early arrivals
   sit deep in the tree and can start reducing immediately;
3. streams partial results up the tree block by block (fine-grained
   pipelining), so the total time approaches ``S/B`` plus a per-hop latency
   term instead of a per-participant bandwidth term;
4. on a participant failure, replaces the failed slot with the next ready
   source object (possibly the reconstructed one), clears the partial results
   of the failed slot's ancestors — at most ``log_d n`` of them — and resumes.

The final reduced object is published under the target ObjectID at the tree
root's node; callers obtain it with a normal ``Get``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.core.stream import stream_blocks
from repro.net.coalesce import ComputeRun, input_coverage, ready_times_of, run_blocks
from repro.net.flowsched import Flow, FlowClass
from repro.net.node import Node
from repro.net.transport import TransferError, transfer_block
from repro.sim import Event, Interrupt, Process
from repro.store.object_store import StoredObject
from repro.store.objects import ObjectID, ReduceOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import HopliteRuntime


# ---------------------------------------------------------------------------
# Degree selection model
# ---------------------------------------------------------------------------


def reduce_time_model(
    num_objects: int,
    degree: int,
    object_size: float,
    latency: float,
    bandwidth: float,
) -> float:
    """Estimated completion time of a ``degree``-ary reduce tree (Equation 1).

    ``degree == 0`` or ``degree >= num_objects`` means the flat tree where the
    root receives every object directly.
    """
    if num_objects <= 1:
        return latency
    transfer = object_size / bandwidth
    if degree <= 0 or degree >= num_objects:
        return latency + (num_objects - 1) * transfer
    if degree == 1:
        return num_objects * latency + transfer
    height = math.log(num_objects) / math.log(degree)
    return latency * height + degree * transfer


def choose_reduce_degree(
    num_objects: int,
    object_size: float,
    latency: float,
    bandwidth: float,
    candidates: Sequence[int] = (1, 2, 0),
) -> int:
    """Pick the candidate degree minimizing :func:`reduce_time_model`.

    Returns the *effective* degree: ``num_objects`` is substituted for the
    flat-tree candidate ``0``.
    """
    if num_objects <= 1:
        return 1
    best_degree = None
    best_time = float("inf")
    for candidate in candidates:
        effective = num_objects if candidate == 0 else candidate
        estimate = reduce_time_model(num_objects, candidate, object_size, latency, bandwidth)
        if estimate < best_time - 1e-15:
            best_time = estimate
            best_degree = effective
    return best_degree if best_degree is not None else 2


# ---------------------------------------------------------------------------
# Tree shape: generalized in-order placement
# ---------------------------------------------------------------------------


@dataclass
class TreeSlot:
    """A position in the reduce tree, identified by arrival rank."""

    rank: int
    parent: Optional[int] = None
    children: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def build_inorder_tree(num_slots: int, degree: int) -> list[TreeSlot]:
    """Build a ``degree``-ary tree over ranks ``0..num_slots-1``.

    The generalized in-order traversal (first child subtree, the node, then
    the remaining child subtrees) of the returned tree is exactly
    ``0, 1, ..., num_slots - 1`` — so assigning the *i*-th arriving object to
    rank *i* reproduces the paper's placement rule.
    """
    if num_slots <= 0:
        return []
    if degree <= 0:
        degree = num_slots
    slots = [TreeSlot(rank=rank) for rank in range(num_slots)]

    def split(count: int, parts: int) -> list[int]:
        base, extra = divmod(count, parts)
        return [base + (1 if index < extra else 0) for index in range(parts)]

    def build(lo: int, hi: int, parent: Optional[int]) -> Optional[int]:
        count = hi - lo
        if count <= 0:
            return None
        if count == 1:
            root = lo
        elif degree == 1:
            root = hi - 1
            build(lo, hi - 1, root)
        else:
            sizes = split(count - 1, degree)
            first = sizes[0]
            root = lo + first
            build(lo, lo + first, root)
            offset = root + 1
            for size in sizes[1:]:
                if size > 0:
                    build(offset, offset + size, root)
                    offset += size
        slots[root].parent = parent
        if parent is not None:
            slots[parent].children.append(root)
        return root

    build(0, num_slots, None)
    return slots


def inorder_traversal(slots: Sequence[TreeSlot]) -> list[int]:
    """Generalized in-order traversal of the tree (used by tests)."""
    if not slots:
        return []
    roots = [slot.rank for slot in slots if slot.parent is None]
    order: list[int] = []

    def visit(rank: int) -> None:
        slot = slots[rank]
        children = slot.children
        if children:
            visit(children[0])
        order.append(rank)
        for child in children[1:]:
            visit(child)

    for root in roots:
        visit(root)
    return order


def tree_depth(slots: Sequence[TreeSlot]) -> int:
    """Height of the tree in edges."""
    if not slots:
        return 0

    def depth(rank: int) -> int:
        children = slots[rank].children
        if not children:
            return 0
        return 1 + max(depth(child) for child in children)

    roots = [slot.rank for slot in slots if slot.parent is None]
    return max(depth(root) for root in roots)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def adopt_or_create_reduction(
    runtime: "HopliteRuntime",
    caller: Node,
    target_id: ObjectID,
    source_ids: Sequence[ObjectID],
    op: ReduceOp,
    num_objects: Optional[int] = None,
):
    """The execution for ``target_id``: the surviving one, or a fresh one.

    A re-executed caller (Section 6 lineage re-execution) that issues the
    same Reduce again while the previous invocation's detached driver is
    still alive must *adopt* the surviving tree — its partials keep
    streaming — rather than race a duplicate tree over the same target.
    Only an execution with the same sources and operator is adoptable; an
    aborted or mismatched one is replaced.

    On a multi-rack topology with ``HopliteOptions(topology_aware=True)``
    fresh executions are the rack-aware hierarchical composition
    (:class:`~repro.core.hierarchical.HierarchicalReduceExecution`: one
    intra-rack tree per rack feeding one inter-rack tree); everywhere else —
    notably the flat default — they are the plain dynamic tree.
    """
    num = num_objects if num_objects is not None else len(list(source_ids))
    existing = runtime.active_reductions.get(target_id)
    if (
        existing is not None
        and not existing.aborted
        and existing.op is op
        and list(existing.source_ids) == list(source_ids)
        and existing.num_objects == num
    ):
        runtime.reduce_adoptions += 1
        return existing
    topology = runtime.cluster.topology
    if runtime.options.topology_aware and topology.num_racks > 1 and num >= 3:
        from repro.core.hierarchical import HierarchicalReduceExecution

        return HierarchicalReduceExecution(
            runtime, caller, target_id, source_ids, op, num_objects=num_objects
        )
    return ReduceExecution(
        runtime, caller, target_id, source_ids, op, num_objects=num_objects
    )


@dataclass
class ReduceResult:
    """Outcome of a completed Reduce call."""

    target_id: ObjectID
    reduced_ids: list[ObjectID]
    unreduced_ids: list[ObjectID]
    degree: int
    root_node_id: int
    completion_time: float


@dataclass
class ReducePlan:
    """The static description of a reduce: sources, operator, degree, shape."""

    target_id: ObjectID
    source_ids: list[ObjectID]
    op: ReduceOp
    num_objects: int
    degree: int
    slots: list[TreeSlot]


class _SlotState:
    """Runtime state of one tree slot during execution."""

    def __init__(self, slot: TreeSlot):
        self.slot = slot
        self.object_id: Optional[ObjectID] = None
        self.host: Optional[Node] = None
        #: Bumped whenever the slot is (re)assigned or its subtree changes, so
        #: stale partial data is never confused with fresh data.
        self.generation = 0
        self.assigned_events: list[Event] = []
        self.process: Optional[Process] = None
        self.stream_processes: list[Process] = []
        self.output_entry: Optional[StoredObject] = None
        #: set by the repair when this (root) slot's host died: the restarted
        #: slot seeds its target prefix from the best surviving partial copy.
        self.seed_prefix = False

    @property
    def rank(self) -> int:
        return self.slot.rank

    @property
    def assigned(self) -> bool:
        return self.object_id is not None and self.host is not None

    def assignment_event(self, sim) -> Event:
        event = Event(sim)
        if self.assigned:
            event.succeed(self)
        else:
            self.assigned_events.append(event)
        return event

    def notify_assigned(self) -> None:
        waiters, self.assigned_events = self.assigned_events, []
        for event in waiters:
            if not event.triggered:
                event.succeed(self)


class ReduceExecution:
    """Coordinator for one Reduce call.

    Created by :meth:`HopliteClient.reduce`.  The coordination loop — watch
    sources, assign arrivals to tree slots, spawn the per-slot streaming
    reduce processes, repair the tree on node failures — runs as a *detached
    driver process* obtained through the runtime's orchestration hook, so it
    survives the death of the calling task (Section 6: the caller is
    re-executed from lineage, but the collective keeps making progress in
    the meantime).  :meth:`run` merely waits for completion and is
    re-entrant: a re-executed caller that finds this execution still in
    ``runtime.active_reductions`` adopts it by calling :meth:`run` again
    instead of racing a duplicate tree over the same target.
    """

    def __init__(
        self,
        runtime: "HopliteRuntime",
        caller: Node,
        target_id: ObjectID,
        source_ids: Sequence[ObjectID],
        op: ReduceOp,
        num_objects: Optional[int] = None,
    ):
        if not source_ids:
            raise ValueError("Reduce requires at least one source object")
        self.runtime = runtime
        self.sim = runtime.sim
        self.config = runtime.config
        self.caller = caller
        self.target_id = target_id
        self.source_ids = list(source_ids)
        self.op = op
        self.num_objects = num_objects if num_objects is not None else len(self.source_ids)
        if self.num_objects <= 0 or self.num_objects > len(self.source_ids):
            raise ValueError(
                f"num_objects must be in [1, {len(self.source_ids)}], got {num_objects}"
            )
        self.degree: Optional[int] = None
        self.slots: list[_SlotState] = []
        self.tree: list[TreeSlot] = []
        #: object ids that have become ready and await a slot.
        self._ready_queue: list[ObjectID] = []
        self._ready_waiters: list[Event] = []
        #: ids already placed in (or permanently excluded from) the tree.
        self._assigned_ids: set[ObjectID] = set()
        self._watched: set[ObjectID] = set()
        self._finished = Event(self.sim)
        self._failure_hooked = False
        self.plan: Optional[ReducePlan] = None
        self._driver: Optional[Process] = None
        self.aborted = False
        self.abort_reason = ""

    # -- public entry point --------------------------------------------------
    def run(self) -> Generator:
        """Wait for the reduce to complete; starts the driver if needed.

        Re-entrant: every caller — the original one and any re-executed
        caller adopting this execution — gets the same result.
        """
        self._ensure_driver()
        # Wait for the root's output to be sealed and published.
        yield self._finished
        if self.aborted:
            raise TransferError(
                f"reduce toward {self.target_id} was aborted: {self.abort_reason}"
            )
        root = self._root_slot()
        reduced = sorted(
            (state.object_id for state in self.slots if state.object_id is not None),
            key=lambda oid: oid.key,
        )
        unreduced = [oid for oid in self.source_ids if oid not in set(reduced)]
        return ReduceResult(
            target_id=self.target_id,
            reduced_ids=list(reduced),
            unreduced_ids=unreduced,
            degree=self.degree,
            root_node_id=root.host.node_id if root.host is not None else -1,
            completion_time=self.sim.now,
        )

    def _ensure_driver(self) -> None:
        """Start the detached coordination process (once) and register it."""
        if self._driver is not None or self._finished.triggered:
            return
        registry = self.runtime.active_reductions
        registry[self.target_id] = self

        def _deregister(_event) -> None:
            if registry.get(self.target_id) is self:
                del registry[self.target_id]

        self._finished.add_callback(_deregister)
        self._driver = self.runtime.orchestration.spawn(
            self._drive(),
            name=f"reduce-drive-{self.target_id}",
            owner=self.target_id,
        )

    def _drive(self) -> Generator:
        """The detached coordination loop (watch → shape → assign → repair)."""
        try:
            for object_id in self.source_ids:
                self._watch_source(object_id)

            # Learn the object size from the first ready source, then fix the
            # degree and the tree shape.
            first_id = yield from self._next_ready_object()
            size = self.runtime.directory.known_size(first_id) or 0
            self.degree = self._select_degree(size)
            self.tree = build_inorder_tree(self.num_objects, self.degree)
            self.slots = [_SlotState(slot) for slot in self.tree]
            self.plan = ReducePlan(
                target_id=self.target_id,
                source_ids=list(self.source_ids),
                op=self.op,
                num_objects=self.num_objects,
                degree=self.degree,
                slots=self.tree,
            )
            self._hook_failures()

            self._assign(self._next_unassigned_slot(), first_id)
            # Keep assigning ready objects to the remaining slots as they arrive.
            while self._next_unassigned_slot() is not None:
                object_id = yield from self._next_ready_object()
                slot = self._next_unassigned_slot()
                if slot is None:
                    self._ready_queue.insert(0, object_id)
                    break
                self._assign(slot, object_id)
        except Interrupt:
            return
        except Exception as exc:  # noqa: BLE001 - nobody awaits this process
            # The driver is detached: an escaping exception would strand
            # every waiter in run() forever.  Turn it into an abort so
            # waiters observe a TransferError and can retry.
            self.abort(f"driver error: {exc!r}")

    def abort(self, reason: str = "") -> None:
        """Tear the execution down and release everything it holds.

        Called by the task framework when the computation that owns this
        reduce is abandoned (exhausted ``max_restarts``): the driver and all
        slot/stream processes are interrupted — their cleanup handlers drop
        the reference counts they hold on partials — and waiters in
        :meth:`run` observe a :class:`TransferError`.
        """
        if self._finished.triggered:
            return
        self.aborted = True
        self.abort_reason = reason or "aborted"
        if self._driver is not None and self._driver.is_alive:
            self._driver.interrupt("reduce aborted")
        for state in self.slots:
            self._teardown_slot(state)
        self._finished.succeed(None)

    # -- degree / shape --------------------------------------------------------
    def _select_degree(self, size: int) -> int:
        options = self.runtime.options
        if options.reduce_degree is not None:
            degree = options.reduce_degree
            return self.num_objects if degree == 0 else min(degree, max(1, self.num_objects))
        return choose_reduce_degree(
            self.num_objects,
            size,
            self.config.latency,
            self.config.bandwidth,
            options.candidate_reduce_degrees,
        )

    def _root_slot(self) -> _SlotState:
        for state in self.slots:
            if state.slot.parent is None:
                return state
        raise RuntimeError("reduce tree has no root")  # pragma: no cover

    # -- readiness tracking -----------------------------------------------------
    def _watch_source(self, object_id: ObjectID) -> None:
        """Watch for ``object_id`` becoming available (possibly again, after a failure)."""
        if object_id in self._watched:
            return
        self._watched.add(object_id)
        self.sim.process(
            self._watch_process(object_id), name=f"reduce-watch-{object_id}"
        )

    def _watch_process(self, object_id: ObjectID) -> Generator:
        directory = self.runtime.directory
        event = directory.creation_event(object_id)
        yield event
        self._watched.discard(object_id)
        if object_id in self._assigned_ids:
            return
        self._ready_queue.append(object_id)
        waiters, self._ready_waiters = self._ready_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    def _next_ready_object(self) -> Generator:
        """Block until some unassigned source object is ready; return its id."""
        while True:
            while self._ready_queue:
                object_id = self._ready_queue.pop(0)
                if object_id in self._assigned_ids:
                    continue
                host = self._locate(object_id)
                if host is None:
                    # Object existed but its only copy is gone (e.g. the node
                    # failed); watch for it to reappear.
                    self._watch_source(object_id)
                    continue
                return object_id
            waiter = Event(self.sim)
            self._ready_waiters.append(waiter)
            yield waiter

    def _locate(self, object_id: ObjectID) -> Optional[Node]:
        """The node currently holding ``object_id`` (prefer complete copies)."""
        directory = self.runtime.directory
        locations = directory.locations_of(object_id)
        best: Optional[Node] = None
        for info in sorted(locations.values(), key=lambda i: (not i.complete, i.node_id)):
            node = self.runtime.node(info.node_id)
            if node.alive:
                best = node
                break
        return best

    # -- assignment --------------------------------------------------------------
    def _next_unassigned_slot(self) -> Optional[_SlotState]:
        for state in self.slots:
            if not state.assigned:
                return state
        return None

    def _assign(self, state: _SlotState, object_id: ObjectID) -> None:
        if state.assigned:
            # Never overwrite a live assignment; keep the object available for
            # another slot instead.
            if object_id not in self._assigned_ids:
                self._ready_queue.insert(0, object_id)
            return
        host = self._locate(object_id)
        if host is None:
            # Lost between readiness and assignment: put it back on watch.
            self._watch_source(object_id)
            return
        state.object_id = object_id
        state.host = host
        state.generation += 1
        self._assigned_ids.add(object_id)
        size = self.runtime.directory.known_size(object_id) or 0
        if not state.slot.is_leaf or state.slot.parent is None:
            self._create_output_entry(state, size)
        state.notify_assigned()
        if not state.slot.is_leaf or state.slot.parent is None:
            self._spawn_slot_process(state)

    def _output_id(self, state: _SlotState) -> ObjectID:
        if state.slot.parent is None:
            return self.target_id
        return self.target_id.derived(f"partial-r{state.rank}-g{state.generation}")

    def _create_output_entry(self, state: _SlotState, size: int) -> None:
        store = self.runtime.store(state.host)
        output_id = self._output_id(state)
        entry = store.try_get_entry(output_id)
        if entry is None:
            entry = store.create(output_id, size)
        elif entry.sealed:
            # A stale sealed copy of the target id (only possible for the
            # root after a repair): drop and recreate.
            store.delete(output_id)
            entry = store.create(output_id, size)
        state.output_entry = entry
        self.runtime.orchestration.record_partial(
            self.target_id, output_id, state.host.node_id
        )

    # -- slot processes -------------------------------------------------------------
    def _spawn_slot_process(self, state: _SlotState) -> None:
        state.process = self.runtime.orchestration.spawn(
            self._run_slot(state, state.generation),
            name=f"reduce-slot-{self.target_id}-r{state.rank}",
            owner=self.target_id,
        )

    def _run_slot(self, state: _SlotState, generation: int) -> Generator:
        """Streaming reduce at one internal tree slot (or a single-node root)."""
        try:
            runtime = self.runtime
            config = self.config
            node = state.host
            store = runtime.store(node)
            output = state.output_entry
            is_root = state.slot.parent is None

            if is_root:
                yield from runtime.directory.publish_partial(
                    node, self.target_id, output.size, upstream=None
                )
                if state.seed_prefix:
                    state.seed_prefix = False
                    yield from self._seed_root_prefix(state)
                    if not node.alive:
                        return

            own_entry = store.try_get_entry(state.object_id)
            if own_entry is None:
                raise TransferError(
                    f"source {state.object_id} missing on node {node.node_id}", node=node
                )

            # Start one streaming pull per child.
            stagings: list[StoredObject] = []
            child_states = [self.slots[rank] for rank in state.slot.children]
            for child in child_states:
                staging = store.create_or_get(
                    self.target_id.derived(
                        f"stage-r{state.rank}-c{child.rank}-g{generation}"
                    ),
                    output.size,
                )
                stagings.append(staging)
                runtime.orchestration.record_partial(
                    self.target_id, staging.object_id, node.node_id
                )
                proc = runtime.orchestration.spawn(
                    self._stream_child(state, child, staging),
                    name=(
                        f"reduce-stream-{self.target_id}-r{state.rank}-c{child.rank}"
                    ),
                    owner=self.target_id,
                )
                state.stream_processes.append(proc)

            inputs = [own_entry] + stagings
            # Reference the partials this slot is actively producing so a
            # capacity-limited store never evicts them mid-reduce.
            guarded = [output] + stagings
            for entry in guarded:
                entry.ref_count += 1
            try:
                weight = max(1, len(inputs) - 1)
                # Resume where the output already has blocks: zero on every
                # fresh entry, the preserved/seeded prefix after a streaming
                # repair (receivers that kept those blocks never re-pull them).
                block_index = output.blocks_ready
                while block_index < output.num_blocks:
                    # Coalesced fast path: every block whose inputs are
                    # present or arriving on a known schedule combines by
                    # arithmetic (see ComputeRun in net/coalesce); the
                    # output's own schedule lets the parent stream cascade.
                    if not output._no_coalesce:
                        horizon = output.num_blocks
                        for entry in inputs:
                            horizon = input_coverage(entry, horizon)
                        if horizon - block_index >= 2:
                            _sizes, compute_times = run_blocks(
                                config,
                                output.size,
                                block_index,
                                horizon,
                                lambda nb: config.reduce_compute_time(nb) * weight,
                            )
                            # Each block starts once its latest input is present.
                            ready_times = [
                                max(whens)
                                for whens in zip(
                                    *(
                                        ready_times_of(entry, block_index, horizon)
                                        for entry in inputs
                                    )
                                )
                            ]
                            run = ComputeRun(
                                self.sim,
                                node,
                                output,
                                block_index,
                                compute_times,
                                ready_times,
                                [
                                    entry._inflight
                                    for entry in inputs
                                    if entry._inflight is not None
                                ],
                            )
                            block_index += yield from run.run()
                            if run.failure_stop:
                                return
                            continue
                    for entry in inputs:
                        if entry.blocks_ready <= block_index:
                            if entry._inflight is not None:
                                # Parking outside a ComputeRun: per-block
                                # mark ordering required (see repro.core.stream).
                                entry.decoalesce()
                            yield node.race_failure(
                                entry.wait_for_blocks(block_index + 1)
                            )
                            if not node.alive:
                                return
                    nbytes = config.block_bytes(output.size, block_index)
                    compute_time = config.reduce_compute_time(nbytes) * weight
                    if compute_time > 0:
                        yield self.sim.timeout(compute_time)
                    output.mark_block_ready(block_index)
                    block_index += 1

                payloads = [own_entry.payload]
                for child, staging in zip(child_states, stagings):
                    payloads.append(staging.payload)
                output.seal(self.op.combine_many(payloads))
            finally:
                for entry in guarded:
                    entry.ref_count -= 1

            if is_root:
                yield from runtime.directory.publish_complete(
                    node, self.target_id, output.size
                )
                if not self._finished.triggered:
                    self._finished.succeed(output)
        except Interrupt:
            return
        except TransferError:
            # The coordinator's failure hook drives the repair; this process
            # simply stops.
            return

    def _seed_root_prefix(self, state: _SlotState) -> Generator:
        """Seed the re-created root target from the best surviving partial copy.

        Streaming allreduce recovery (carried ROADMAP item): receivers that
        were pulling the target before the root died still hold its prefix in
        their local stores.  Instead of recomputing — and re-broadcasting —
        the whole target, the new root pulls the longest surviving prefix
        back from the most advanced receiver (ties broken by lowest node id,
        deterministically) and resumes the reduce at that block; the
        receivers then resume their own streams where they left off.  Any
        failure mid-seed degrades gracefully to recomputing from wherever
        the seed got to.
        """
        runtime = self.runtime
        config = self.config
        node = state.host
        output = state.output_entry
        best_entry: Optional[StoredObject] = None
        best_node: Optional[Node] = None
        for node_id in sorted(runtime.stores):
            peer = runtime.node(node_id)
            if not peer.alive or node_id == node.node_id:
                continue
            entry = runtime.stores[node_id].try_get_entry(self.target_id)
            if entry is None or entry.blocks_ready <= 0:
                continue
            if best_entry is None or entry.blocks_ready > best_entry.blocks_ready:
                best_entry = entry
                best_node = peer
        if best_entry is None:
            return
        # Snapshot the prefix length now: the donor's own (dead) upstream can
        # deliver nothing more, so only what is present is worth copying.
        prefix = min(best_entry.blocks_ready, output.num_blocks)
        if output.blocks_ready >= prefix:
            return
        flow = Flow(
            f"reduce-seed:{self.target_id}:n{best_node.node_id}->n{node.node_id}",
            FlowClass.REDUCE_PARTIAL,
        )
        donor_store = runtime.store(best_node)
        local_store = runtime.store(node)
        # Reference the donor's copy so a capacity-limited store cannot
        # evict the prefix while it is being pulled back.
        best_entry.ref_count += 1
        try:
            block_index = output.blocks_ready
            while block_index < prefix:
                if not best_node.alive or not node.alive:
                    return
                if best_entry.blocks_ready <= block_index:
                    # The donor lost the prefix mid-seed (eviction/failure);
                    # recompute from wherever the seed got to.
                    return
                nbytes = config.block_bytes(output.size, block_index)
                try:
                    yield from transfer_block(
                        config, best_node, node, nbytes, flow
                    )
                except TransferError:
                    return
                donor_store.account_flow_out(flow, nbytes)
                local_store.account_flow_in(flow, nbytes)
                output.mark_block_ready(block_index)
                block_index += 1
            runtime.root_prefix_seeds += 1
        finally:
            best_entry.ref_count -= 1

    def _stream_child(
        self, parent_state: _SlotState, child_state: _SlotState, staging: StoredObject
    ) -> Generator:
        """Pull the child's (partial) output into the parent's staging entry."""
        try:
            runtime = self.runtime
            if not child_state.assigned:
                yield child_state.assignment_event(self.sim)
            child_node = child_state.host
            child_store = runtime.store(child_node)
            if child_state.slot.is_leaf:
                child_output_id = child_state.object_id
            else:
                child_output_id = self._output_id(child_state)
            child_entry = child_store.try_get_entry(child_output_id)
            if child_entry is None:
                raise TransferError(
                    f"child output {child_output_id} missing on node {child_node.node_id}",
                    node=child_node,
                )
            parent_node = parent_state.host
            # Reduce partials ride the REDUCE_PARTIAL flow class: they cut
            # ahead of bulk broadcast traffic in the link admission queues,
            # since one late partial stalls the whole subtree above it.
            flow = Flow(
                f"reduce:{self.target_id}:n{child_node.node_id}->n{parent_node.node_id}",
                FlowClass.REDUCE_PARTIAL,
            )

            def seal_staging() -> Generator:
                yield child_node.race_failure(child_entry.wait_sealed(), parent_node)
                if child_entry.sealed:
                    staging.seal(child_entry.payload)

            # Reference the child's output while streaming from it so a
            # capacity-limited child store cannot evict it mid-stream.
            child_entry.ref_count += 1
            try:
                yield from stream_blocks(
                    runtime,
                    child_node,
                    parent_node,
                    staging,
                    child_entry,
                    flow,
                    watch_dst=True,
                    after=seal_staging,
                )
            finally:
                child_entry.ref_count -= 1
        except Interrupt:
            return
        except TransferError:
            return

    # -- failure repair -------------------------------------------------------------
    def _hook_failures(self) -> None:
        if self._failure_hooked:
            return
        self._failure_hooked = True
        for node in self.runtime.cluster.nodes:
            node.on_failure(self._on_node_failure)
        # Once finished the hook is a no-op; withdraw it so finished
        # executions do not pile up on every node's listener list.
        self._finished.add_callback(self._unhook_failures)

    def _unhook_failures(self, _event: Event) -> None:
        for node in self.runtime.cluster.nodes:
            node.remove_failure_listener(self._on_node_failure)

    def _on_node_failure(self, node: Node) -> None:
        if self._finished.triggered:
            return
        affected = [
            state
            for state in self.slots
            if state.host is not None and state.host.node_id == node.node_id
        ]
        if not affected:
            return
        self.sim.process(
            self._repair(affected), name=f"reduce-repair-{self.target_id}-n{node.node_id}"
        )

    def _repair(self, failed_states: list[_SlotState]) -> Generator:
        """Replace failed slots and restart their ancestors (Section 3.5.2)."""
        # Give in-flight transfers one scheduling round to observe the failure.
        yield self.sim.timeout(0)
        if self._finished.triggered:
            # Finished or aborted while this repair was queued; re-spawning
            # slots now would leak processes and reference counts.
            return
        to_restart: set[int] = set()
        for state in failed_states:
            if state.object_id is not None:
                # The object may be reconstructed later; watch for it again.
                self._assigned_ids.discard(state.object_id)
                self._watch_source(state.object_id)
            self._teardown_slot(state)
            state.object_id = None
            state.host = None
            state.output_entry = None
            if state.slot.parent is None:
                # The root's target entry died with its host; the restarted
                # root seeds its prefix from a surviving receiver copy.
                state.seed_prefix = True
            # Every ancestor must clear its partial result.
            parent_rank = state.slot.parent
            while parent_rank is not None:
                to_restart.add(parent_rank)
                parent_rank = self.tree[parent_rank].parent

        for rank in sorted(to_restart, key=lambda r: -self._depth_of(r)):
            ancestor = self.slots[rank]
            if ancestor.host is None or not ancestor.host.alive:
                continue
            self._teardown_slot(ancestor, keep_assignment=True)
            ancestor.generation += 1
            size = self.runtime.directory.known_size(ancestor.object_id) or 0
            self._create_output_entry(ancestor, size)
            ancestor.notify_assigned()
            self._spawn_slot_process(ancestor)

        # Reassign the failed slots to the next ready objects.  The main
        # coordinator loop may be filling slots concurrently, so re-check the
        # slot after every blocking wait and never overwrite an assignment.
        for state in failed_states:
            while not state.assigned:
                object_id = yield from self._next_ready_object()
                if self._finished.triggered:
                    return
                if state.assigned:
                    self._ready_queue.insert(0, object_id)
                    break
                self._assign(state, object_id)

    def _depth_of(self, rank: int) -> int:
        depth = 0
        parent = self.tree[rank].parent
        while parent is not None:
            depth += 1
            parent = self.tree[parent].parent
        return depth

    def _teardown_slot(self, state: _SlotState, keep_assignment: bool = False) -> None:
        if state.process is not None and state.process.is_alive:
            state.process.interrupt("reduce repair")
        state.process = None
        for proc in state.stream_processes:
            if proc.is_alive:
                proc.interrupt("reduce repair")
        state.stream_processes = []
        if keep_assignment and state.output_entry is not None:
            host = state.host
            if host is not None and host.alive and not state.output_entry.sealed:
                if (
                    state.slot.parent is None
                    and self.num_objects == len(self.source_ids)
                ):
                    # Streaming recovery (carried ROADMAP item): with no
                    # spare sources every failed contributor is reconstructed
                    # from lineage with identical data, so the root's
                    # already-reduced prefix stays valid.  Keep it — the
                    # restarted root resumes at ``blocks_ready`` and the
                    # receivers that kept those blocks stream the repaired
                    # target incrementally instead of paying a full
                    # re-broadcast.  (With spare sources the replacement may
                    # be a *different* object, so the prefix must go.)
                    state.output_entry.freeze_progress()
                    self.runtime.root_progress_preserved += 1
                else:
                    state.output_entry.reset_progress()
