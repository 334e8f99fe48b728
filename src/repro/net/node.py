"""A simulated cluster node: NIC, memory-copy channel, and liveness."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.net.flowsched import LinkScheduler
from repro.sim import AnyOf, Event, Resource, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.cluster import Cluster


class Node:
    """A physical node in the simulated cluster.

    Each node has:

    * an uplink and a downlink, each modelled as a serializing bandwidth pipe
      (a capacity-1 :class:`~repro.sim.Resource`) — concurrent transfers in
      the same direction interleave at block granularity, which approximates
      fair sharing and reproduces sender/receiver bottlenecks;
    * a :class:`~repro.net.flowsched.LinkScheduler` per NIC direction that
      admits flow-scheduled reservations on that link and accumulates
      per-flow utilization accounting;
    * a memory-copy channel used for worker-to-store and store-to-worker
      copies inside the node;
    * a liveness flag plus an incarnation counter used by failure injection.

    Listener contract: ``failure_listeners`` and ``recovery_listeners`` are
    insertion-ordered dicts keyed by the callback (values unused).
    :meth:`fail` and :meth:`recover` call a snapshot of them in registration
    order, so a listener may withdraw itself or others while they run.
    Withdrawal is O(1) and idempotent.  Registering a callback that is
    already registered keeps its first position.  Long-lived subscribers
    (runtime, store, directory, task system) register once per node.  A
    short-lived waiter must withdraw its listener once its wait is over, or
    every node it ever waited on keeps it, and whatever it references,
    alive.  :meth:`failure_event`, :meth:`recovery_event` and
    :meth:`race_failure` do that for their callers.
    """

    def __init__(self, sim: Simulator, node_id: int, cluster: Optional["Cluster"] = None):
        self.sim = sim
        self.node_id = node_id
        self.cluster = cluster
        self.uplink = Resource(sim, capacity=1)
        self.downlink = Resource(sim, capacity=1)
        self.uplink_sched = LinkScheduler(sim, self.uplink, "up")
        self.downlink_sched = LinkScheduler(sim, self.downlink, "down")
        self.memcpy_channel = Resource(sim, capacity=1)
        self.alive = True
        #: Incremented every time the node recovers from a failure.  Stale
        #: transfers and stale store contents compare incarnations to detect
        #: that they belong to a previous life of the node.
        self.incarnation = 0
        #: Callbacks invoked with this node when it fails (keys; see above).
        self.failure_listeners: dict[Callable[["Node"], None], None] = {}
        #: Callbacks invoked with this node when it recovers (keys).
        self.recovery_listeners: dict[Callable[["Node"], None], None] = {}
        #: Arbitrary per-node services (object store, directory shard, ...).
        self.services: dict[str, Any] = {}

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Node {self.node_id} {state}>"

    def __hash__(self) -> int:
        return hash(("node", self.node_id))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.node_id == self.node_id

    # -- failure handling ---------------------------------------------------
    def fail(self) -> None:
        """Mark the node as failed and notify listeners.

        Listeners are responsible for tearing down transfers, dropping store
        contents, and killing tasks that ran on the node.
        """
        if not self.alive:
            return
        self.alive = False
        for listener in list(self.failure_listeners):
            listener(self)

    def recover(self) -> None:
        """Bring the node back with a fresh incarnation."""
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        for listener in list(self.recovery_listeners):
            listener(self)

    def on_failure(self, callback: Callable[["Node"], None]) -> None:
        self.failure_listeners[callback] = None

    def remove_failure_listener(self, callback: Callable[["Node"], None]) -> None:
        """Deregister a failure listener (no-op if it is not registered)."""
        self.failure_listeners.pop(callback, None)

    def on_recovery(self, callback: Callable[["Node"], None]) -> None:
        self.recovery_listeners[callback] = None

    def remove_recovery_listener(self, callback: Callable[["Node"], None]) -> None:
        """Deregister a recovery listener (no-op if it is not registered)."""
        self.recovery_listeners.pop(callback, None)

    def failure_event(self) -> Event:
        """An event that fires when (or if) this node fails.

        Its listener withdraws itself when it fires.  To wait for something
        else *or* a failure, use :meth:`race_failure`, which also withdraws
        when the other event wins.
        """
        event = Event(self.sim)
        if not self.alive:
            event.succeed(self)
        else:
            _Notifier(event, [self.failure_listeners])
        return event

    def recovery_event(self) -> Event:
        """An event that fires when (or if) this node recovers.

        Its listener withdraws itself when it fires.
        """
        event = Event(self.sim)
        if self.alive:
            event.succeed(self)
        else:
            _Notifier(event, [self.recovery_listeners])
        return event

    def race_failure(self, event: Event, *others: "Node") -> AnyOf:
        """Wait for ``event``, or for this node or any of ``others`` to fail.

        Returns an :class:`~repro.sim.AnyOf` over ``event`` and one failure
        event shared by every listed node; it fires at once if one of them
        is already dead, with the first dead node in argument order as the
        failure's value.  Otherwise one notifier is registered on every
        listed node, and it is withdrawn as soon as the race resolves,
        whichever side wins.  (A race abandoned unresolved, by an interrupted
        waiter, keeps its notifier until the race resolves.)  This is the
        per-block wait of every pipelined stream: a receiver waiting for its
        sender's next block, an admission queued on a link.  So it must
        leave nothing behind.
        """
        sim = self.sim
        nodes = (self,) + others
        failed = Event(sim)
        for node in nodes:
            if not node.alive:
                failed.succeed(node)
                return AnyOf(sim, [event, failed])
        notifier = _Notifier(failed, [node.failure_listeners for node in nodes])
        race = AnyOf(sim, [event, failed])
        race.add_callback(notifier.withdraw)
        return race


class _Notifier:
    """A node listener that succeeds ``event`` with the first node to fire.

    It is registered in every listener dict of ``registries`` and withdraws
    itself from all of them when it fires, or when :meth:`withdraw` runs as
    a race's callback.  A race and its notifier reference each other only
    until the race pops (its callbacks are then dropped), so once withdrawn
    the notifier, its event and the race are freed by reference counting.
    """

    __slots__ = ("event", "registries")

    def __init__(self, event: Event, registries: list[dict]):
        self.event = event
        self.registries = registries
        for registry in registries:
            registry[self] = None

    def __call__(self, node: Node) -> None:
        self.withdraw()
        self.event.succeed(node)

    def withdraw(self, _event: Optional[Event] = None) -> None:
        for registry in self.registries:
            registry.pop(self, None)
