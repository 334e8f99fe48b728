"""Core event loop, events, and processes for the simulation kernel.

The design follows the classic discrete-event pattern:

* A :class:`Simulator` owns a priority queue of scheduled events keyed by
  ``(time, priority, sequence)``.
* An :class:`Event` is a one-shot signal.  It can *succeed* with a value or
  *fail* with an exception.  Callbacks attached to the event run when the
  simulator pops it off the queue.
* A :class:`Process` wraps a generator.  Every value the generator yields
  must be an :class:`Event`; the process is resumed (``send``/``throw``) when
  that event fires.  A process is itself an event that fires when the
  generator terminates, so processes can wait on one another.

The module is intentionally small and has no external dependencies so that
unit tests of the higher layers never depend on wall-clock time.

Performance notes (the kernel is the hot loop of every benchmark):

* every class here carries ``__slots__`` — a simulation allocates millions
  of events and the per-instance ``__dict__`` was a third of the kernel's
  footprint and a measurable share of its time;
* an event's callback list is allocated lazily on the first
  :meth:`Event.add_callback`; most events (timeouts with a single waiting
  process, fire-and-forget grants) carry zero or one callback, so the
  eager empty list was pure churn.  ``callbacks`` keeps its public
  contract: falsy while empty, a list while waiters exist, and the
  ``_PROCESSED`` sentinel (an empty tuple — also falsy) once the event has
  left the queue;
* :meth:`Simulator.schedule_at` places an event at an *absolute* timestamp,
  which the coalesced-transfer fast path uses to land wake-ups on exactly
  the accumulated float boundary a per-block chain of timeouts would have
  produced (``now + (t - now)`` does not round-trip in floating point);
* no kernel object may outlive its event in a reference cycle.  A pipelined
  stream makes a race, a request and often a process per block; left in
  cycles, they pile up for the cyclic garbage collector, whose full passes
  rescan the whole live heap.  Reference counting frees them at once if
  each class breaks its cycles as soon as its work is done:

  - an event's ``callbacks`` becomes ``_PROCESSED`` when it pops, which
    drops the waiter references;
  - a :class:`_Condition` empties ``events`` once it triggers, so the
    components that never fire no longer form a cycle with it;
  - a :class:`Process` drops ``_resume_bound`` (a bound method of itself)
    when its generator ends;
  - a resource request, granted with itself as its value, drops that value
    on release (:mod:`repro.sim.resources`);
  - a node's failure listener for a wait is withdrawn once the wait
    resolves (``Node.race_failure``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries an arbitrary payload describing why the
    interrupt happened (for example, a node-failure record).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessFailure(Exception):
    """Wraps an exception that escaped a process nobody was waiting on."""


# Priorities used to order events that fire at the same timestamp.  Urgent
# events (process resumptions) run before normal events so that chains of
# zero-delay causality settle deterministically.
URGENT = 0
NORMAL = 1

#: Sentinel marking an event whose callbacks have already run.  An empty
#: tuple: falsy (so ``bool(event.callbacks)`` still means "has waiters"),
#: immutable, and identity-comparable.
_PROCESSED: tuple = ()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current simulation
    time.  Once triggered its value is immutable.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_exception",
        "_ok",
        "defused",
        # Owning-node tag written by locality-analyzer sites and read only
        # by the analyzer's pop hook; left unset when analysis is off (the
        # slot descriptor costs one pointer per event, no init-time work).
        "_loc_owner",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: ``None`` until the first callback registers; a list while waiters
        #: exist; the ``_PROCESSED`` sentinel once callbacks have run.
        self.callbacks: Any = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._ok: Optional[bool] = None
        #: Set once a failure has been delivered to at least one waiter (or
        #: explicitly acknowledged).  Unhandled failures are surfaced when the
        #: simulation ends so errors never pass silently.
        self.defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event left the queue)."""
        return self.callbacks is _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event value read before it was triggered")
        if self._exception is not None:
            return self._exception
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, URGENT)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._ok is not None:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._exception = exception
        self.sim._schedule(self, URGENT)
        return self

    def trigger(self, other: "Event") -> None:
        """Mirror the outcome of ``other`` onto this event."""
        if other._ok:
            self.succeed(other._value)
        else:
            self.fail(other._exception)  # type: ignore[arg-type]

    # -- composition ------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks is _PROCESSED:
            # Already processed: run immediately at the current time.
            callback(self)
        elif callbacks is None:
            self.callbacks = [callback]
        else:
            callbacks.append(callback)

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        Event.__init__(self, sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, NORMAL, delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("a Timeout is triggered automatically")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("a Timeout is triggered automatically")


class _Condition(Event):
    """Base class for AllOf / AnyOf composition events.

    ``events`` lists the components until the condition triggers; it is then
    emptied, because every component that has not fired yet still holds this
    condition in its callbacks, and the list pointing back would make each
    such pair a reference cycle (see the module's performance notes).
    """

    __slots__ = ("events", "_matched")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        Event.__init__(self, sim)
        self.events = list(events)
        self._matched: list[Event] = []
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
            event.add_callback(self._check)

    def _satisfied(self) -> bool:  # pragma: no cover - abstract hook
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            if not event.ok:
                event.defused = True
            return
        if not event.ok:
            event.defused = True
            self.events = self._matched = []
            self.fail(event._exception)  # type: ignore[arg-type]
            return
        self._matched.append(event)
        if self._satisfied():
            values = [e.value for e in self._matched]
            self.events = self._matched = []
            self.succeed(values)


class AllOf(_Condition):
    """Fires when every component event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._matched) == len(self.events)


class AnyOf(_Condition):
    """Fires when the first component event succeeds."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._matched) >= 1


class Process(Event):
    """A generator-based coroutine running on the simulator.

    The wrapped generator yields :class:`Event` objects.  When a yielded
    event succeeds, the event's value is sent into the generator; when it
    fails, the exception is thrown into the generator.  The process itself
    is an event that succeeds with the generator's return value.
    """

    __slots__ = ("generator", "name", "_target", "_resume_bound")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        Event.__init__(self, sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # One bound method reused for every resumption: creating a fresh
        # bound method per yield was measurable at millions of yields.
        self._resume_bound = self._resume
        # Kick-start the process at the current simulation time.
        bootstrap = Event(sim)
        bootstrap.succeed()
        bootstrap.callbacks = [self._resume_bound]

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        Interrupting a finished process is a no-op, which keeps failure
        injection code simple (a node may already have died for another
        reason).
        """
        if self.triggered:
            return
        if self._target is not None and type(self._target.callbacks) is list:
            try:
                self._target.callbacks.remove(self._resume_bound)
            except ValueError:
                pass
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._exception = Interrupt(cause)
        interrupt_event.defused = True
        self.sim._schedule(interrupt_event, URGENT)
        interrupt_event.add_callback(self._resume_bound)

    def _resume(self, event: Event) -> None:
        if self._ok is not None:
            return
        self._target = None
        try:
            if event._ok:
                next_event = self.generator.send(event._value)
            else:
                event.defused = True
                next_event = self.generator.throw(event._exception)
        except StopIteration as stop:
            self._resume_bound = None
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self._resume_bound = None
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            error = SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
            try:
                self.generator.throw(error)
            except StopIteration as stop:
                self._resume_bound = None
                self.succeed(stop.value)
            except BaseException as exc:  # noqa: BLE001
                self._resume_bound = None
                self.fail(exc)
            return
        self._target = next_event
        next_event.add_callback(self._resume_bound)


class Simulator:
    """The discrete-event scheduler.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert proc.value == "done"
    """

    __slots__ = (
        "_now",
        "_queue",
        "_sequence",
        "events_processed",
        "unhandled_failures",
        "on_step",
        "on_pop",
        "locality",
    )

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        #: Events processed by :meth:`step` so far.
        self.events_processed = 0
        #: Failed events whose exception was never consumed by a waiter.
        self.unhandled_failures: list[Event] = []
        #: Optional per-event observability hook, called as ``on_step(when)``
        #: after the clock advances and before callbacks run.  ``None`` (the
        #: default) costs one branch per event; installed by
        #: :class:`repro.obs.Observability` for event-loop counters.  The
        #: hook must be purely observational — it runs inside the kernel's
        #: dispatch frame.
        self.on_step: Optional[Callable[[float], None]] = None
        #: Optional per-pop flight-recorder hook, called as
        #: ``on_pop(when, seq, event)`` with the popped entry's queue
        #: sequence number.  Same discipline as ``on_step`` (one branch per
        #: event when unset, purely observational); installed by
        #: :class:`repro.obs.flight.FlightRecorder` via
        #: ``Cluster.enable_flight_recorder``.
        self.on_pop: Optional[Callable[[float, int, Event], None]] = None
        #: Optional :class:`repro.obs.locality.LocalityAnalyzer` whose
        #: tagging sites stamp events with their owning node (one branch
        #: per site when unset).  Its pop hook rides ``on_pop``.  Installed
        #: by ``Cluster.enable_locality_analyzer``.
        self.locality: Optional[Any] = None

    # -- time -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (self._now + delay, priority, seq, event))

    def reserve_sequence(self) -> int:
        """Claim one queue sequence number now, for an event pushed later.

        An event scheduled later with the claimed number (``schedule_at(...,
        seq=)``) breaks same-instant ties as if it had been scheduled at the
        moment of the claim.  Claiming schedules nothing.
        """
        seq = self._sequence
        self._sequence = seq + 1
        return seq

    def schedule_at(
        self, event: Event, at: float, priority: int = NORMAL, seq: Optional[int] = None
    ) -> None:
        """Place ``event`` in the queue at the *absolute* time ``at``.

        Used by fast paths that must land a wake-up on exactly the float
        timestamp an equivalent chain of relative timeouts would have
        reached (relative scheduling would re-round through ``now + delay``).
        ``at`` must not lie in the past.
        """
        if at < self._now:
            raise SimulationError(f"schedule_at({at}) is in the past (now={self._now})")
        if seq is None:
            seq = self._sequence
            self._sequence = seq + 1
        heapq.heappush(self._queue, (at, priority, seq, event))

    def wake_at(self, at: float, value: Any = None, seq: Optional[int] = None) -> Event:
        """An already-succeeded event that pops at the absolute time ``at``.

        Behaves like a :class:`Timeout` aimed at an exact timestamp: yield
        it from a process to sleep until then, or attach callbacks to run
        work at that instant.
        """
        event = Event(self)
        event._ok = True
        event._value = value
        self.schedule_at(event, at, seq=seq)
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process a single event."""
        if not self._queue:
            raise SimulationError("step() called on an empty event queue")
        when, _priority, seq, event = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        if self.on_step is not None:
            self.on_step(when)
        if self.on_pop is not None:
            self.on_pop(when, seq, event)
        callbacks = event.callbacks
        event.callbacks = _PROCESSED
        if callbacks is not None:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event.defused:
            self.unhandled_failures.append(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time), or an :class:`Event` (run until it
        fires, returning its value or raising its exception).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"run(until={stop_time}) is in the past (now={self._now})"
                )

        queue = self._queue
        step = self.step
        while queue:
            if stop_event is not None and stop_event.callbacks is _PROCESSED:
                break
            if queue[0][0] > stop_time:
                self._now = stop_time
                break
            step()

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired"
                )
            if not stop_event.ok:
                stop_event.defused = True
                raise stop_event._exception  # type: ignore[misc]
            return stop_event.value
        if stop_time != float("inf") and self._now < stop_time:
            self._now = stop_time
        return None
