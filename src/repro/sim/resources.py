"""Shared resources for simulation processes.

Four primitives cover everything the higher layers need:

* :class:`Resource` — a counted resource (e.g. a worker pool slot, a NIC
  transmit slot).  Requests queue FIFO and are granted as capacity frees up.
* :class:`MultiRequest` — a cancellable claim on *several* resources at once,
  granted atomically only when every resource has capacity simultaneously.
  Unlike single requests, a pending multi-request never blocks the requests
  behind it: the grant scan skips it until its whole claim set is free.  This
  is the admission primitive behind the flow-scheduled transport
  (:mod:`repro.net.flowsched`) — it removes the hold-one-wait-for-the-other
  head-of-line blocking of sequential acquisition, and it cannot deadlock
  because it never holds a partial claim.
* :class:`Container` — a continuous quantity (e.g. bytes of store memory)
  with blocking ``get``/``put``.
* :class:`Store` — a FIFO queue of Python objects with blocking ``get`` and
  optional filtering, used for message channels between processes.

Admission is *incremental*: a release wakes only the queue of the released
resource (never a global rescan), the priority queue is maintained by
``bisect.insort`` on a ``(priority, sequence)`` key instead of a linear
scan, and the grant scan stops as soon as the resource is saturated — with
capacity-1 NIC slots that turns the former O(waiters) rescan per release
into O(grants).  :class:`Store` settles only newly eligible getter×item
pairs: a new item is offered to the waiting getters once, a new getter scans
the present items once, and the stable remainder is never rescanned.

Resources also support *virtual holds* (:meth:`Resource.add_virtual_hold`):
an occupancy schedule evaluated arithmetically instead of via scheduled
events.  The coalesced-transfer fast path uses them to keep a link's
``in_use`` exactly what an equivalent per-block chain of grants and releases
would show at any instant, without paying one event pair per block.  The
moment anyone *enqueues* on the resource, every virtual hold is told to
materialize (``on_contest``) before the new request is queued, so admission
decisions only ever see real holds.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from typing import Any, Callable, Optional, Sequence

from repro.sim.core import Event, SimulationError, Simulator

#: process-global arrival stamper for queue ordering.  Only *differences*
#: matter (FIFO within a priority class), so sharing it across simulators
#: cannot leak state between runs.
_arrival_stamp = itertools.count()


def _queue_key(request: "Event") -> tuple[int, int]:
    return request.sort_key


class _Request(Event):
    """A pending claim on a resource; usable as a context manager.

    A grant succeeds the request with itself as the value; the release drops
    that self-reference so a finished request is freed by reference counting.
    """

    __slots__ = ("resource", "amount", "priority", "sort_key", "granted")

    is_multi = False

    def __init__(self, resource: "Resource", amount: int = 1, priority: int = 0):
        Event.__init__(self, resource.sim)
        self.resource = resource
        self.amount = amount
        self.priority = priority
        self.sort_key = (priority, next(_arrival_stamp))
        #: True from the grant until the release.
        self.granted = False

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource._cancel(self)


class MultiRequest(Event):
    """A cancellable claim on several resources, granted atomically.

    ``claims`` is a sequence of ``(resource, amount)`` pairs.  The request
    enqueues on every claimed resource (ordered by ``priority``, FIFO within
    equal priorities) and is granted only at an instant when *all* claims fit
    — it never holds one resource while waiting for another, so a set of
    multi-requests cannot deadlock, and a busy partner resource never parks
    the claimed capacity idle.

    Usable as a context manager like a single request; ``release`` frees a
    granted claim (dropping its self-valued grant, as a single request's
    release does) or withdraws a pending one.
    """

    __slots__ = (
        "claims",
        "priority",
        "sort_key",
        "granted_at",
        "_released",
        "_blocked_on",
        "_blocked_amount",
        "_silent",
    )

    is_multi = True

    def __init__(
        self,
        sim: Simulator,
        claims: Sequence[tuple["Resource", int]],
        priority: int = 0,
    ):
        Event.__init__(self, sim)
        if not claims:
            raise SimulationError("a multi-request needs at least one claim")
        seen: set[int] = set()
        for resource, amount in claims:
            if amount <= 0 or amount > resource.capacity:
                raise SimulationError(
                    f"cannot claim {amount} units of a capacity-{resource.capacity} resource"
                )
            if id(resource) in seen:
                raise SimulationError("a multi-request cannot claim a resource twice")
            seen.add(id(resource))
        self.claims = list(claims)
        self.priority = priority
        self.sort_key = (priority, next(_arrival_stamp))
        #: simulated time of the grant (``None`` while pending).
        self.granted_at: Optional[float] = None
        self._released = False
        #: the first resource whose capacity check failed on the last grant
        #: attempt, plus the units claimed on it.  While that resource still
        #: cannot fit the claim, re-checking the other claims is pointless —
        #: the whole set cannot be granted — so grant scans skip this
        #: request with one comparison instead of an O(claims) rescan: the
        #: incremental matching that replaces the O(waiters) rescan per
        #: release.
        self._blocked_on: Optional["Resource"] = None
        self._blocked_amount = 0
        #: granted at construction with no possible waiter: the trigger is
        #: recorded but not queued (the queue pop would be dead weight); the
        #: first add_callback schedules it (see below).
        self._silent = False
        for resource, _amount in self.claims:
            resource._enqueue(self)
        self._try_grant(initial=True)

    def add_callback(self, callback) -> None:
        if self._silent:
            self._silent = False
            self.sim._schedule(self, 0)  # URGENT, as succeed() would have
        Event.add_callback(self, callback)

    @property
    def granted(self) -> bool:
        return self.granted_at is not None

    def __enter__(self) -> "MultiRequest":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.release()

    def _try_grant(self, initial: bool = False) -> bool:
        """Grant the whole claim set if every resource has capacity now."""
        if self._ok is not None or self._released:
            return False
        for resource, amount in self.claims:
            # Claimed resources can hold no virtual occupancy here: this
            # request's _enqueue materialized them, so _in_use is exact.
            if resource._in_use + amount > resource.capacity:
                self._blocked_on = resource
                self._blocked_amount = amount
                return False
        self._blocked_on = None
        for resource, amount in self.claims:
            resource._in_use += amount
            resource._cancel(self)
        self.granted_at = self.sim.now
        if initial:
            # Nobody can hold a reference yet, so no callback can exist:
            # trigger without queueing (add_callback schedules on demand).
            self._ok = True
            self._value = self
            self._silent = True
        else:
            self.succeed(self)
        return True

    def release(self) -> None:
        """Free a granted claim, or withdraw it if still pending."""
        if self._released:
            return
        self._released = True
        if self.granted:
            self._value = None
            for resource, amount in self.claims:
                resource._in_use -= amount
            for resource, _amount in self.claims:
                resource._grant()
        else:
            for resource, _amount in self.claims:
                resource._cancel(self)

    def cancel(self) -> None:
        """Withdraw the claim (alias of :meth:`release` for pending requests)."""
        self.release()


class Resource:
    """A counted resource with priority-then-FIFO granting.

    Plain :meth:`request` calls all share priority 0, so the default behaviour
    is pure FIFO.  A waiting single request that does not fit blocks every
    request behind it (strict serialization); a waiting :class:`MultiRequest`
    whose partner resources are busy is skipped so later requests keep the
    resource busy (work conservation).
    """

    __slots__ = (
        "sim",
        "capacity",
        "_in_use",
        "_waiting",
        "_virtual",
        "_streams",
        "_handles",
        "_joined_at",
        "_cooldown",
    )

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting: list[Event] = []
        #: active virtual holds (coalesced transfers); ``None`` when unused.
        self._virtual: Optional[list] = None
        #: multi-block transfer streams currently using this resource.  A
        #: coalesced run requires exclusive streams (== 1, itself): two
        #: per-block streams sharing a link interleave in an order set by
        #: event-queue history, which arithmetic cannot reproduce.
        self._streams = 0
        #: convoy-capable stream handles registered here (see net/convoy).
        #: ``len(_handles) < _streams`` means an opaque per-block stream is
        #: also using the link, which bars convoy formation on it.
        self._handles: list = []
        #: simulated time of the last stream registration — the convoy
        #: quiet-gate: a link whose membership changed recently is churning.
        self._joined_at = -1.0
        #: no convoy formation attempt on this link before this time.
        self._cooldown = 0.0

    @property
    def in_use(self) -> int:
        """Units held right now — real grants plus virtual-hold occupancy."""
        virtual = self._virtual
        if not virtual:
            return self._in_use
        now = self.sim._now
        return self._in_use + sum(hold.occupied(now) for hold in virtual)

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting right now — real queue entries plus virtual ones.

        A convoy member whose planned admission for the current block has not
        been granted yet occupies a *virtual* queue slot (``hold.queued``),
        exactly as its per-block reservation would sit in ``_waiting``.
        """
        virtual = self._virtual
        if not virtual:
            return len(self._waiting)
        now = self.sim._now
        total = len(self._waiting)
        for hold in virtual:
            queued = getattr(hold, "queued", None)
            if queued is not None:
                total += queued(now)
        return total

    # -- virtual holds ------------------------------------------------------
    def add_virtual_hold(self, hold: Any) -> None:
        """Attach an arithmetic occupancy schedule (see module docstring).

        ``hold`` must expose ``occupied(at) -> int`` and ``on_contest()``;
        the latter is invoked *synchronously, before queue insertion*, the
        first time any request enqueues here, and must convert the schedule
        into real holds (or drop it) and detach itself.
        """
        if self._virtual is None:
            self._virtual = [hold]
        else:
            self._virtual.append(hold)

    def remove_virtual_hold(self, hold: Any) -> None:
        virtual = self._virtual
        if virtual is not None:
            try:
                virtual.remove(hold)
            except ValueError:
                pass

    def _materialize_virtual(self) -> None:
        while self._virtual:
            hold = self._virtual[0]
            hold.on_contest()
            # on_contest must detach the hold; guard against a no-op
            # implementation wedging the loop.
            if self._virtual and self._virtual[0] is hold:  # pragma: no cover
                self._virtual.pop(0)

    # -- queueing -----------------------------------------------------------
    def _enqueue(self, request: Event) -> None:
        """Insert by priority (low first), FIFO within equal priorities."""
        if self._virtual:
            self._materialize_virtual()
        insort(self._waiting, request, key=_queue_key)

    def request(self, amount: int = 1) -> _Request:
        if amount <= 0 or amount > self.capacity:
            raise SimulationError(
                f"cannot request {amount} units of a capacity-{self.capacity} resource"
            )
        req = _Request(self, amount)
        self._enqueue(req)
        self._grant()
        return req

    def release(self, request: _Request) -> None:
        """Free a granted request, or withdraw a pending one; idempotent."""
        if request.granted:
            request.granted = False
            request._value = None
            self._in_use -= request.amount
            self._grant()
        else:
            self._cancel(request)

    def _cancel(self, request: Event) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant(self) -> None:
        waiting = self._waiting
        capacity = self.capacity
        index = 0
        while index < len(waiting):
            if self._in_use >= capacity:
                # Saturated: nothing below can be granted (a multi-request's
                # _try_grant would fail on this resource too).  Triggered
                # leftovers, if any, are purged by later scans.
                break
            req = waiting[index]
            if req._ok is not None:
                del waiting[index]
                continue
            if req.is_multi:
                # A successful grant removes the request from this queue (do
                # not advance); a failed match is skipped rather than blocking
                # the queue — the matching-based admission discipline.  A
                # request whose recorded blocker still cannot fit its claim
                # is skipped with one comparison (the blocker's state is the
                # only thing that could have unblocked it).
                blocked_on = req._blocked_on
                if (
                    blocked_on is not None
                    and blocked_on._in_use + req._blocked_amount > blocked_on.capacity
                ):
                    index += 1
                elif not req._try_grant():
                    index += 1
                continue
            if self._in_use + req.amount > capacity:
                # Strict FIFO for single requests: nothing behind a blocked
                # single request is granted (MultiRequests included — they
                # will be retried by their other resources' grant scans, and
                # by this one once the blocked head is granted).
                break
            del waiting[index]
            self._in_use += req.amount
            req.granted = True
            req.succeed(req)


class PriorityResource(Resource):
    """A resource whose queue is ordered by a numeric priority (low first)."""

    __slots__ = ()

    def request(self, amount: int = 1, priority: int = 0) -> _Request:
        if amount <= 0 or amount > self.capacity:
            raise SimulationError(
                f"cannot request {amount} units of a capacity-{self.capacity} resource"
            )
        req = _Request(self, amount, priority)
        self._enqueue(req)
        self._grant()
        return req


class Container:
    """A continuous quantity with blocking ``get``/``put``."""

    __slots__ = ("sim", "capacity", "level", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: float = float("inf"), init: float = 0.0):
        if init < 0 or init > capacity:
            raise SimulationError("initial level must be within [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self.level = float(init)
        self._getters: deque[tuple[Event, float]] = deque()
        self._putters: deque[tuple[Event, float]] = deque()

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError("cannot put a negative amount")
        event = Event(self.sim)
        self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError("cannot get a negative amount")
        event = Event(self.sim)
        self._getters.append((event, amount))
        self._settle()
        return event

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                event, amount = self._putters[0]
                if self.level + amount <= self.capacity:
                    self._putters.popleft()
                    self.level += amount
                    event.succeed()
                    progress = True
            if self._getters:
                event, amount = self._getters[0]
                if self.level >= amount:
                    self._getters.popleft()
                    self.level -= amount
                    event.succeed(amount)
                    progress = True


class Store:
    """A FIFO store of items with blocking ``get``.

    ``get`` optionally takes a filter predicate; the first matching item is
    returned.  This is the message-channel primitive used throughout the
    network and control-plane code.

    Between calls the store is *stable*: no waiting getter matches any
    present item.  Each mutation therefore only has to settle the pairs it
    newly created — a fresh item against the waiting getters (FIFO), a fresh
    getter against the present items (FIFO), and any putters admitted by
    freed capacity — instead of rescanning every getter against every item.
    """

    __slots__ = ("sim", "capacity", "items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[tuple[Event, Optional[Callable[[Any], bool]]]] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        event = Event(self.sim)
        self._putters.append((event, item))
        self._drain_putters()
        return event

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        event = Event(self.sim)
        items = self.items
        if predicate is None:
            if items:
                event.succeed(items.popleft())
                self._drain_putters()
            else:
                self._getters.append((event, None))
            return event
        for index, item in enumerate(items):
            if predicate(item):
                del items[index]
                event.succeed(item)
                self._drain_putters()
                return event
        self._getters.append((event, predicate))
        return event

    def _drain_putters(self) -> None:
        """Admit queued puts while capacity allows; offer each new item once."""
        while self._putters and len(self.items) < self.capacity:
            event, item = self._putters.popleft()
            event.succeed()
            if not self._offer(item):
                self.items.append(item)

    def _offer(self, item: Any) -> bool:
        """Hand a newly admitted item to the first waiting getter it matches."""
        for index, (event, predicate) in enumerate(self._getters):
            if predicate is None or predicate(item):
                del self._getters[index]
                event.succeed(item)
                return True
        return False
