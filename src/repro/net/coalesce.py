"""Coalesced block transfers: many blocks of one flow, O(1) timeline events.

The per-block transfer chain (reserve -> transmit -> release -> propagate,
then again for the next block) is what the simulated protocols *mean*, but
driving it one event per step makes large objects cost hundreds of kernel
round-trips per hop.  On an **uncontended** reservation the whole chain is
deterministic arithmetic: block ``j`` of the run transmits over
``[s_j, e_j)`` and lands at ``arr_j = e_j + L``, with ``s_{j+1} = arr_j``.
A :class:`CoalescedRun` precomputes exactly those boundaries (with the same
left-to-right float additions the per-block chain performs), sleeps once
until the end, and retrofits every side effect — link-scheduler accounting,
store byte accounting, destination block marks — that the per-block chain
would have produced.

Exactness is the design constraint; three mechanisms preserve it:

* **virtual holds** (:meth:`~repro.sim.resources.Resource.add_virtual_hold`)
  make each claimed link's ``in_use`` read ``1`` during transmission windows
  and ``0`` during propagation gaps — what per-block grants/releases would
  show — so load probes (e.g. directory source selection) see identical
  state at every instant;
* **re-splitting**: the moment anything disturbs the run — a competing
  request enqueues on a claimed link, or an endpoint fails — the run
  *materializes*: it truncates at the current block boundary, converts the
  current transmission window (if any) into a real hold released exactly at
  the boundary, and hands control back to the per-block loop, which from
  then on behaves block by block (per-block interleaving, fair-share timing
  and failure surfacing preserved);
* **arithmetic progress** (:class:`InflightSchedule` on the destination
  entry): readers of ``blocks_ready`` and ``wait_for_blocks`` during the
  run are answered from the boundary arrays — the same values, at the same
  times, a per-block mark sequence would have produced.

Runs move blocks over a NIC path (pulls, reduce partial streams,
whole-object sends) or over a node's memcpy channel (``src is dst``, zero
latency: local copies, same-node partial streams, and the pipelined Put
copy-in).  The copy-in's destination entry carries an
:class:`InflightSchedule`, so receivers streaming from the partial Put
cascade off it.  The copy-in starts at block 1: block 0 goes per-block,
because a second Put or a consumer needing per-block marks usually arrives
during it and would re-split a run at once.

Eligibility (:func:`coalesce_eligible`) is deliberately conservative: every
claimed link must be idle with an empty queue and no other virtual hold,
both endpoints alive, and at least two blocks available to move.  Anything
else falls back to the per-block path, whose behaviour is the definition of
correct.

Bookkeeping a run retrofits costs one call per run, not per block: link
accounting (:meth:`~repro.net.flowsched.LinkScheduler.account_blocks`),
store byte accounting, and destination marks
(:meth:`~repro.store.object_store.StoredObject.mark_blocks_ready`).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import sub
from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

from repro.net.errors import NodeFailedError
from repro.net.fastpath import stats_for
from repro.sim.core import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.flowsched import Flow, LinkScheduler
    from repro.net.node import Node
    from repro.sim.resources import Resource
    from repro.store.object_store import StoredObject

#: run states
_VIRTUAL, _MATERIALIZED, _DONE = range(3)


class InflightSchedule:
    """Arithmetic block-arrival schedule attached to a destination entry.

    While attached, ``entry.blocks_ready`` is computed from the arrival
    boundaries instead of stored marks, and ``wait_for_blocks`` thresholds
    inside the window are answered by events scheduled at the exact arrival
    timestamps.  ``limit`` truncates the schedule when the run re-splits;
    arrivals at or beyond it are delivered (or not) by whoever continues
    the transfer, through ordinary marks.
    """

    __slots__ = ("entry", "base", "arrivals", "limit", "firings", "run", "dependents")

    def __init__(
        self, entry: "StoredObject", base: int, arrivals: Sequence[float], run: "CoalescedRun"
    ):
        self.entry = entry
        self.base = base
        self.arrivals = arrivals
        self.limit = len(arrivals)
        #: the producing run (so a consumer can force a re-split).
        self.run = run
        #: downstream coalesced runs whose schedules were built from these
        #: arrival times (relay cascade); truncation re-splits them too.
        self.dependents: list["CoalescedRun"] = []
        #: scheduled waiter firings: mutable ``[threshold, event, active]``.
        self.firings: list[list] = []

    def ready_now(self, now: float) -> int:
        arrived = bisect_right(self.arrivals, now)
        if arrived > self.limit:
            arrived = self.limit
        return self.base + arrived

    def schedule_waiter(self, threshold: int, event: Event) -> None:
        """Arrange for ``event`` to fire at the threshold block's arrival."""
        firing = [threshold, event, True]
        self.firings.append(firing)
        sim = self.entry.sim
        trigger = sim.wake_at(self.arrivals[threshold - self.base - 1])
        trigger.callbacks = [lambda _ev, firing=firing: self._fire(firing)]

    def _fire(self, firing: list) -> None:
        if not firing[2]:
            return
        firing[2] = False
        threshold, event = firing[0], firing[1]
        entry = self.entry
        ready = entry.blocks_ready
        if event._ok is not None:  # pragma: no cover - defensive
            return
        if ready >= threshold:
            event.succeed(ready)
        else:
            # The run was truncated before this block; whoever resumed the
            # transfer will mark it eventually and fire the waiter then.
            entry._progress_waiters.append((threshold, event))

    def truncate(self, limit: int) -> None:
        """Arrivals at or beyond ``limit`` are no longer guaranteed.

        Dependent runs built their own boundaries from those arrivals, so
        they re-split at their current block (whose source block provably
        arrived already — a dependent block cannot start before its source
        block landed).
        """
        if limit < self.limit:
            self.limit = limit
        while self.dependents:
            self.dependents.pop()._materialize()

    def close(self) -> None:
        """Detach; pending scheduled waiters go back to ordinary marks."""
        for firing in self.firings:
            if firing[2]:
                firing[2] = False
                if firing[1]._ok is None:
                    self.entry._progress_waiters.append((firing[0], firing[1]))
        self.firings.clear()
        if self.entry._inflight is self:
            self.entry._inflight = None


class CoalescedRun:
    """Drive ``n`` consecutive blocks of one flow as a single timeline event.

    Built by :func:`coalesced_transfer` / the pull fast path after
    :func:`coalesce_eligible` held.  The run is its own virtual hold object
    (``occupied`` / ``on_contest``) for every claimed link.
    """

    __slots__ = (
        "sim",
        "src",
        "dst",
        "flow",
        "sizes",
        "tx",
        "latency",
        "links",
        "entry",
        "base",
        "account_out",
        "account_in",
        "n",
        "s",
        "e",
        "arr",
        "state",
        "cur",
        "in_tx",
        "post_arrival",
        "schedule",
        "src_schedule",
        "_wake",
        "_accounted",
        "_synthetic",
        "_listening",
        "preattached",
        "_seq0",
        "_obs_span",
        "_flight",
        "_flight_key",
        "_flight_flow",
    )

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        flow: Optional["Flow"],
        sizes: Sequence[int],
        tx: Sequence[float],
        latency: float,
        links: Sequence[tuple["Resource", Optional["LinkScheduler"]]],
        entry: Optional["StoredObject"] = None,
        base: int = 0,
        account_out: Optional[Callable[[int], None]] = None,
        account_in: Optional[Callable[[int], None]] = None,
        ready_times: Optional[Sequence[float]] = None,
        src_schedule: Optional[InflightSchedule] = None,
        boundaries: Optional[tuple[Sequence[float], Sequence[float], Sequence[float]]] = None,
    ):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.flow = flow
        self.sizes = list(sizes)
        self.tx = list(tx)
        self.latency = latency
        self.links = list(links)
        self.entry = entry
        self.base = base
        self.account_out = account_out
        self.account_in = account_in
        self.n = len(self.sizes)
        if boundaries is not None:
            # Injected boundaries (convoy members): the planner already
            # replayed the admission algorithm and produced the exact
            # grant/end/arrival instants of every block.
            s, e, arr = boundaries
            s, e, arr = list(s), list(e), list(arr)
        elif ready_times is None:
            # Boundary arrays built with the exact float recurrence of the
            # per-block chain, s_{j+1} = (s_j + tx_j) + L, left-associated:
            # one running sum over tx_0, L, tx_1, L, ... performs the same
            # additions in the same order.
            n = len(self.tx)
            steps = [latency] * (2 * n)
            steps[0::2] = self.tx
            acc = list(accumulate(steps, initial=sim._now))
            s = acc[0 : 2 * n : 2]
            e = acc[1::2]
            arr = acc[2::2]
        else:
            # As above, with s_{j+1} = max(arr_j, source arrival): absolute
            # ``ready_times`` gate blocks the source has not produced yet —
            # the relay cascade.
            s = []
            e = []
            arr = []
            t = sim._now
            for j, tx_j in enumerate(self.tx):
                ready = ready_times[j]
                if ready > t:
                    t = ready
                s.append(t)
                t = t + tx_j
                e.append(t)
                t = t + latency
                arr.append(t)
        self.s = s
        self.e = e
        self.arr = arr
        self.state = _VIRTUAL
        self.cur = 0
        self.in_tx = False
        self.post_arrival = False
        self.schedule: Optional[InflightSchedule] = None
        self.src_schedule = src_schedule
        self._wake: Optional[Event] = None
        self._accounted = 0  # blocks fully link-accounted so far
        self._synthetic = False
        self._listening = False
        self._obs_span = None
        self._flight = None
        self._flight_key = ""
        self._flight_flow = ""
        #: True when an owning domain attached holds/schedule synchronously
        #: at formation time (so ``run`` must not attach again).
        self.preattached = False
        #: queue sequence number claimed when block 0 started (see ``run``).
        self._seq0: Optional[int] = None

    # -- virtual-hold protocol (shared by every claimed resource) ----------
    def occupied(self, at: float) -> int:
        if self.state != _VIRTUAL:  # pragma: no cover - detached before then
            return 0
        i = bisect_right(self.s, at) - 1
        if i < 0 or i >= self.n:
            return 0
        return 1 if at < self.e[i] else 0

    def on_contest(self) -> None:
        self._materialize()

    def _on_peer_failure(self, _node: "Node") -> None:
        # In the materialized state the boundary continuation re-checks
        # liveness itself, exactly like the per-block chain does.
        if self.state == _VIRTUAL:
            self._materialize()

    def _materialize(self) -> None:
        """Truncate at the current block boundary and go real.

        Synchronous and side-effect-free w.r.t. simulated behaviour: it only
        converts the arithmetic occupancy into real holds (when inside a
        transmission window) and wakes the driver, which then walks the
        remaining boundary exactly as the per-block chain would have.

        Convoy members override this to materialize their whole domain (one
        member's plan is only valid while every member's is), then fall back
        here per member via :meth:`_materialize_self`.
        """
        self._materialize_self()

    def _on_unwind(self) -> None:
        """Hook: the owning process unwound mid-run.

        Convoy members override it to materialize their whole domain before
        the teardown accounting below runs (their plan dies with them).
        """

    def _materialize_self(self) -> None:
        if self.state != _VIRTUAL:
            return
        stats_for(self.src).bump("resplits")
        if self._flight is not None:
            self._flight.phase(self._flight_key, "resplit")
        now = self.sim._now
        i = bisect_right(self.s, now) - 1
        if i < 0:
            # Disturbed before the first block even started (a cascaded run
            # still waiting for its first source block): nothing happened
            # yet — hand everything back to the per-block loop.
            i = 0
            self.in_tx = False
            self.post_arrival = False
            self.cur = -1
        else:
            if i >= self.n:  # pragma: no cover - defensive
                i = self.n - 1
            self.cur = i
            self.in_tx = now < self.e[i]
            self.post_arrival = (not self.in_tx) and now >= self.arr[i]
        self.state = _MATERIALIZED
        for resource, _sched in self.links:
            resource.remove_virtual_hold(self)
        if self.in_tx:
            # The current block keeps transmitting: hold every link for real
            # until the boundary, as the per-block grant would.
            for resource, _sched in self.links:
                resource._in_use += 1
            self._synthetic = True
        if self.schedule is not None:
            # Arrivals after ``now`` (beyond the current block's, which the
            # driver delivers) are no longer scheduled; dependent cascaded
            # runs re-split with us.  (A convoy lead member's schedule starts
            # one block before the run, hence the base offset.)
            self.schedule.truncate(
                bisect_right(self.arr, now) + (self.base - self.schedule.base)
            )
        wake = self._wake
        if wake is not None and wake._ok is None:
            wake.succeed()

    # -- plumbing ----------------------------------------------------------
    def _sleep(self, target: float, seq: Optional[int] = None) -> Event:
        wake = Event(self.sim)
        self._wake = wake
        trigger = self.sim.wake_at(target, seq=seq)
        trigger.callbacks = [lambda _ev, wake=wake: self._fire(wake)]
        loc = self.sim.locality
        if loc is not None:
            # Boundary wake-ups belong to the destination's partition: the
            # run's remaining state lives with the receiving entry.
            loc.tag(trigger, self.dst.node_id)
            loc.tag(wake, self.dst.node_id)
        return wake

    def _fire(self, wake: Event) -> None:
        if wake is self._wake and wake._ok is None:
            wake.succeed()

    def _attach(self) -> None:
        stats_for(self.src).bump("coalesced_runs")
        cluster = self.src.cluster
        if cluster is not None:
            if cluster.obs is not None:
                cluster.obs.record_run_start(self)
            if cluster.flight is not None and self.src is not self.dst:
                # Local copies (src is dst) move through the memcpy channel
                # on the per-block path and record nothing there; mirroring
                # that keeps on/off recordings semantically identical.
                self._flight = cluster.flight
                self._flight_key = f"n{self.src.node_id}>n{self.dst.node_id}"
                self._flight_flow = (
                    self.flow.flow_id if self.flow is not None else "untagged"
                )
                self._flight.phase(
                    self._flight_key, f"coalesce_start/{type(self).__name__}/{self.n}"
                )
        for resource, _sched in self.links:
            resource.add_virtual_hold(self)
        self.src.on_failure(self._on_peer_failure)
        if self.dst is not self.src:
            self.dst.on_failure(self._on_peer_failure)
        self._listening = True
        if self.entry is not None:
            self.schedule = InflightSchedule(self.entry, self.base, self.arr, self)
            self.entry._begin_inflight(self.schedule)
        if self.src_schedule is not None:
            self.src_schedule.dependents.append(self)

    def _detach(self) -> None:
        if self.src_schedule is not None:
            try:
                self.src_schedule.dependents.remove(self)
            except ValueError:
                pass
            self.src_schedule = None
        # Unconditional: a materialized run already removed its holds (the
        # removal is idempotent), but an *undisturbed* run reaches here in
        # the _DONE state with its holds still attached — leaving them would
        # wedge `coalesce_eligible` (non-empty ``_virtual``) for every later
        # run on these links.
        for resource, _sched in self.links:
            resource.remove_virtual_hold(self)
        if self._synthetic:
            self._release_synthetic()
        if self._listening:
            self._listening = False
            self.src.remove_failure_listener(self._on_peer_failure)
            if self.dst is not self.src:
                self.dst.remove_failure_listener(self._on_peer_failure)
        if self.schedule is not None:
            self.schedule.close()
            self.schedule = None
        self._wake = None
        if self._obs_span is not None:
            self._obs_span.finish(
                "resplit" if self.state == _MATERIALIZED else "ok"
            )
            self._obs_span = None

    def _release_synthetic(self) -> None:
        self._synthetic = False
        for resource, _sched in self.links:
            resource._in_use -= 1
        for resource, _sched in self.links:
            resource._grant()

    def _account_full(self, count: int) -> None:
        """Link-account blocks ``[_accounted, count)`` at their full hold."""
        lo = self._accounted
        if count <= lo:
            return
        scheds = [sched for _resource, sched in self.links if sched is not None]
        if scheds:
            # A per-block reservation holds its links from grant to release,
            # so its accounted hold is ``e_j - s_j`` (not always ``tx_j``
            # once rounded).
            sizes = self.sizes[lo:count]
            holds = list(map(sub, self.e[lo:count], self.s[lo:count]))
            for sched in scheds:
                sched.account_blocks(self.flow, sizes, holds)
        flight = self._flight
        if flight is not None:
            for j in range(lo, count):
                detail = f"{self._flight_flow}/{self.sizes[j]}"
                flight.record(self.s[j], "grant", self._flight_key, detail)
                flight.record(self.e[j], "release", self._flight_key, detail)
        self._accounted = count

    def _account_partial(self, j: int, hold: float) -> None:
        """One block released mid-transmission (interrupt semantics)."""
        for _resource, sched in self.links:
            if sched is not None:
                sched.account_blocks(self.flow, self.sizes[j : j + 1], [hold])
        flight = self._flight
        if flight is not None:
            detail = f"{self._flight_flow}/{self.sizes[j]}"
            flight.record(self.s[j], "grant", self._flight_key, detail)
            flight.record(self.s[j] + hold, "release", self._flight_key, detail)
        self._accounted = max(self._accounted, j + 1)

    def _deliver(self, count: int) -> None:
        """Store accounting + destination marks for the first ``count`` blocks.

        Must run after the inflight schedule is closed so the marks write
        through to the stored counter (and fire any re-registered waiters).
        """
        loc = self.sim.locality
        if loc is not None:
            loc.arrival(self.src.node_id, self.dst.node_id, count)
        if self.schedule is not None:
            self.schedule.close()
            self.schedule = None
        if count <= 0:
            return
        # Byte counts are integers: one call with the total credits exactly
        # what ``count`` per-block calls would.
        if self.account_out is not None or self.account_in is not None:
            nbytes = sum(self.sizes[:count])
            if self.account_out is not None:
                self.account_out(nbytes)
            if self.account_in is not None:
                self.account_in(nbytes)
        if self.entry is not None:
            self.entry.mark_blocks_ready(self.base, self.base + count)
        flight = self._flight
        if flight is not None:
            for j in range(count):
                flight.record(
                    self.arr[j],
                    "arrive",
                    self._flight_key,
                    f"{self._flight_flow}/{self.sizes[j]}",
                )

    # -- the driver --------------------------------------------------------
    def run(self) -> Generator:
        """Generator driven from the owning process; returns blocks completed.

        Raises :class:`NodeFailedError` at exactly the simulated time the
        per-block chain would have surfaced a peer failure.  On a contest it
        returns after the current block's boundary; the caller's per-block
        loop takes over from there.
        """
        sim = self.sim
        if not self.preattached:
            self._attach()
            if self.s[0] == sim._now:
                # The per-block chain would schedule block 0's transmission
                # end right now.  Claim that queue position, so a re-split
                # inside block 0 releases the links in the same tie order
                # against other transfers ending at the same instant.
                self._seq0 = sim.reserve_sequence()
        try:
            end = self.arr[-1]
            while self.state == _VIRTUAL and sim._now < end:
                yield self._sleep(end)
                self._wake = None
            if self.state == _VIRTUAL:
                # Undisturbed: everything happened as precomputed.
                self.state = _DONE
                self._account_full(self.n)
                self._deliver(self.n)
                return self.n

            # Re-split at block ``i``.  Walk its remaining boundary exactly
            # like the per-block chain: transmit to e_i (holding the links),
            # release, propagate to arr_i, then hand back to the caller.
            i = self.cur
            if i < 0:
                # Disturbed while still waiting for the first source block:
                # nothing moved, nothing to account.
                self.state = _DONE
                self._deliver(0)
                return 0
            if self.in_tx:
                # Block 0 releases at the queue position claimed at its
                # start; later blocks' grants never happened as events, so
                # their boundary wakes queue at the re-split instant.
                seq = self._seq0 if i == 0 else None
                while sim._now < self.e[i]:
                    yield self._sleep(self.e[i], seq)
                    seq = None
                    self._wake = None
                self._account_full(i + 1)
                self._release_synthetic()
                if not self.src.alive or not self.dst.alive:
                    self.state = _DONE
                    self._deliver(i)
                    dead = self.src if not self.src.alive else self.dst
                    raise NodeFailedError(f"node {dead.node_id} is down", node=dead)
            while sim._now < self.arr[i]:
                yield self._sleep(self.arr[i])
                self._wake = None
            self._account_full(i + 1)
            self.state = _DONE
            if not self.post_arrival and not self.dst.alive:
                # The per-block chain's final liveness check at arr_i.  (If
                # the disturbance came after arr_i — a cascaded run parked
                # waiting for its next source block — that check already
                # passed back then, so a later dst death surfaces through
                # the per-block loop, not here.)
                self._deliver(i)
                raise NodeFailedError(f"node {self.dst.node_id} is down", node=self.dst)
            self._deliver(i + 1)
            return i + 1
        finally:
            if self.state != _DONE:
                # Unwound mid-run (the owning process was interrupted or the
                # generator closed while asleep): replicate the accounting a
                # per-block chain torn down at this instant would show —
                # completed blocks in full, a current transmission window
                # released early at a partial hold, marks only for blocks
                # that actually arrived.
                self._on_unwind()
                now = sim._now
                cap = self.cur if self.state == _MATERIALIZED else self.n - 1
                i = bisect_right(self.s, now) - 1
                if i > cap:  # pragma: no cover - defensive
                    i = cap
                if i >= 0:
                    if now < self.e[i]:
                        self._account_full(i)
                        if self._accounted <= i:
                            self._account_partial(i, now - self.s[i])
                    else:
                        self._account_full(i + 1)
                arrived = bisect_right(self.arr, now)
                if arrived > cap:
                    arrived = cap
                if arrived < 0:
                    arrived = 0
                self.state = _DONE
                if self.schedule is not None:
                    self.schedule.truncate(
                        arrived + (self.base - self.schedule.base)
                    )
                self._deliver(arrived)
            self._detach()


#: module-level kill switch (tests use it to A/B the fast path against the
#: per-block reference on identical scenarios).
ENABLED = True


def register_stream(
    links: Sequence[tuple["Resource", object]], handle: object = None
) -> None:
    """Announce a multi-block transfer stream on its claim set.

    Every multi-block loop (pulls, whole-object sends, reduce partial
    streams, segmented static chains, local copies, pipelined Put copy-ins)
    brackets itself with ``register_stream`` / ``unregister_stream``.  Two
    purposes:

    * a coalesced run starts only on links it has to itself
      (:func:`coalesce_eligible` checks ``_streams == 1``) — per-block
      streams sharing a link interleave block-by-block in an order set by
      event-queue history, which a coalesced schedule cannot reproduce;
    * a *new* stream materializes any standing coalesced run on its links
      before taking its first action, so the run re-splits to per-block
      granularity before the interleaving begins (e.g. a second Put on a
      node re-splits the first Put's copy-in run on the memcpy channel).

    A *convoy-capable* stream (see :mod:`repro.net.convoy`) passes its
    :class:`~repro.net.convoy.StreamHandle`, which lets convoy formation
    enumerate and conscript the streams sharing a contended link.  Opaque
    streams (no handle) bar convoy formation on their links but behave
    identically otherwise.  Registration also stamps the link's quiet
    clock: a link whose stream set changed recently is churning, and a
    convoy over it would re-split immediately.
    """
    for resource, _sched in links:
        resource._streams += 1
        resource._joined_at = resource.sim._now
        if handle is not None:
            resource._handles.append(handle)
        if resource._virtual:
            resource._materialize_virtual()


def unregister_stream(
    links: Sequence[tuple["Resource", object]], handle: object = None
) -> None:
    # Departure is never a disturbance: a leaving stream has no pending
    # requests (its last release already triggered the grant scans), so no
    # standing run's plan can be invalidated by it.
    for resource, _sched in links:
        resource._streams -= 1
        if handle is not None:
            try:
                resource._handles.remove(handle)
            except ValueError:  # pragma: no cover - defensive
                pass


class ComputeRun:
    """A streaming compute loop (reduce slot) as one timeline event.

    The reduce slot's inner loop — wait for every input to reach block ``k``,
    pay the combine time, mark the output block — holds no resources at all:
    its entire timeline is arithmetic once each input's availability times
    are known (``ready_times``: already-present blocks at 0.0, future blocks
    at their scheduled arrival).  Mark time recurrence, identical to the
    per-block loop's float sequence::

        t_k = max(t_{k-1}, ready_k) + compute_k

    The output entry carries an :class:`InflightSchedule` over the ``t_k``,
    so downstream consumers (the parent's partial stream) read and cascade
    on it exactly as they do on a transfer run.  Disturbances:

    * an *input* schedule truncates -> finish the block in flight (its input
      provably arrived) and hand back to the per-block loop;
    * the *slot's own node* fails -> the per-block loop only notices at its
      next wait-with-nothing-to-wait-for, so the run continues marking until
      the first genuine wait after the failure, then stops there with
      ``failure_stop`` set (the caller returns, as the per-block loop does);
    * an interrupt -> marks whose times have passed stand, the rest are
      dropped.
    """

    __slots__ = (
        "sim",
        "node",
        "entry",
        "base",
        "n",
        "t",
        "s",
        "schedule",
        "input_schedules",
        "state",
        "cur",
        "end_at",
        "mark_limit",
        "failure_stop",
        "_wake",
        "_listening",
    )

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        entry: "StoredObject",
        base: int,
        compute_times: Sequence[float],
        ready_times: Sequence[float],
        input_schedules: Sequence[InflightSchedule],
    ):
        self.sim = sim
        self.node = node
        self.entry = entry
        self.base = base
        self.n = len(compute_times)
        s: list[float] = []
        t: list[float] = []
        prev = sim._now
        for k in range(self.n):
            ready = ready_times[k]
            start = ready if ready > prev else prev
            s.append(start)
            prev = start + compute_times[k]
            t.append(prev)
        self.s = s
        self.t = t
        self.schedule: Optional[InflightSchedule] = None
        self.input_schedules = list(input_schedules)
        self.state = _VIRTUAL
        self.cur = 0
        self.end_at = t[-1]
        self.mark_limit = self.n
        self.failure_stop = False
        self._wake: Optional[Event] = None
        self._listening = False

    # -- disturbance handling ---------------------------------------------
    def _materialize(self) -> None:
        """An input schedule truncated: stop after the block in flight."""
        if self.state != _VIRTUAL:
            return
        now = self.sim._now
        done = bisect_right(self.t, now)
        if done >= self.n:  # pragma: no cover - end already reached
            return
        self.state = _MATERIALIZED
        if now < self.s[done]:
            # Waiting for input ``done`` — its scheduled arrival is now
            # uncertain, so nothing more happens in this run.
            self.cur = done
            self.end_at = now
        else:
            # Mid-compute: the inputs of block ``done`` arrived for real;
            # finish it at its boundary, then hand back.
            self.cur = done + 1
            self.end_at = self.t[done]
        self.mark_limit = self.cur
        if self.schedule is not None:
            self.schedule.truncate(done)
        wake = self._wake
        if wake is not None and wake._ok is None:
            wake.succeed()

    def _on_node_failure(self, _node: "Node") -> None:
        """The slot's node died: run on until the first genuine wait."""
        if self.state != _VIRTUAL:
            return
        now = self.sim._now
        done = bisect_right(self.t, now)
        if done >= self.n:  # pragma: no cover - end already reached
            return
        if now < self.s[done]:
            # Inside a wait: the per-block race fires right now.
            stop = done
            end = now
        else:
            # Inside (or exactly at the end of) a compute: keep going until
            # the next block whose inputs are not yet there.
            stop = None
            for k in range(done + 1, self.n):
                if self.s[k] > self.t[k - 1]:
                    stop = k
                    end = self.t[k - 1]
                    break
            if stop is None:
                return  # no further waits: the run completes as scheduled
        self.state = _MATERIALIZED
        self.failure_stop = True
        self.cur = stop
        self.end_at = end
        self.mark_limit = stop
        if self.schedule is not None:
            self.schedule.truncate(stop)
        wake = self._wake
        if wake is not None and wake._ok is None:
            wake.succeed()

    # -- plumbing ----------------------------------------------------------
    def _sleep(self, target: float) -> Event:
        wake = Event(self.sim)
        self._wake = wake
        trigger = self.sim.wake_at(target)
        trigger.callbacks = [lambda _ev, wake=wake: self._fire(wake)]
        loc = self.sim.locality
        if loc is not None:
            # Compute-slot wake-ups never leave the owning node.
            loc.tag(trigger, self.node.node_id)
            loc.tag(wake, self.node.node_id)
        return wake

    def _fire(self, wake: Event) -> None:
        if wake is self._wake and wake._ok is None:
            wake.succeed()

    def _deliver(self, count: int) -> None:
        if self.schedule is not None:
            if count < self.n:
                self.schedule.truncate(count)
            self.schedule.close()
            self.schedule = None
        if self.entry is not None:
            self.entry.mark_blocks_ready(self.base, self.base + count)

    def run(self) -> Generator:
        sim = self.sim
        cluster = self.node.cluster
        obs = cluster.obs if cluster is not None else None
        span = obs.record_compute_run(self) if obs is not None else None
        self.schedule = InflightSchedule(self.entry, self.base, self.t, self)
        self.entry._begin_inflight(self.schedule)
        for input_schedule in self.input_schedules:
            input_schedule.dependents.append(self)
        self.node.on_failure(self._on_node_failure)
        self._listening = True
        delivered = None
        try:
            while sim._now < self.end_at:
                yield self._sleep(self.end_at)
                self._wake = None
            delivered = self.mark_limit if self.state != _VIRTUAL else self.n
            self.state = _DONE
            self._deliver(delivered)
            return delivered
        finally:
            if delivered is None:
                # Interrupted while asleep: past marks stand, rest dropped.
                self.state = _DONE
                self._deliver(bisect_right(self.t, sim._now))
            if self._listening:
                self._listening = False
                self.node.remove_failure_listener(self._on_node_failure)
            for input_schedule in self.input_schedules:
                try:
                    input_schedule.dependents.remove(self)
                except ValueError:
                    pass
            if self.schedule is not None:  # pragma: no cover - defensive
                self.schedule.close()
                self.schedule = None
            if span is not None:
                span.finish("ok" if self.mark_limit >= self.n else "resplit")


def input_coverage(entry: "StoredObject", upto: int) -> int:
    """How many blocks of ``entry`` have known present-or-scheduled times.

    Counts from the start of the object: present blocks, plus — while a
    coalesced/compute run streams into the entry — blocks with scheduled
    arrival times.  Capped at ``upto``.
    """
    if entry.sealed:
        return upto
    ready = entry.blocks_ready
    inflight = entry._inflight
    if inflight is not None and not entry._no_coalesce:
        scheduled = inflight.base + inflight.limit
        if scheduled > ready:
            ready = scheduled
    return ready if ready < upto else upto


def ready_time_of(entry: "StoredObject", block: int) -> float:
    """Absolute time block ``block`` of ``entry`` is (or will be) present."""
    if entry.sealed or entry.blocks_ready > block:
        return 0.0
    inflight = entry._inflight
    return inflight.arrivals[block - inflight.base]


def ready_times_of(entry: "StoredObject", lo: int, hi: int) -> list[float]:
    """``[ready_time_of(entry, j) for j in range(lo, hi)]``, as list slices.

    Present blocks read 0.0; the rest are a slice of the in-flight
    schedule's arrivals.
    """
    ready = entry.blocks_ready
    if ready >= hi:
        return [0.0] * (hi - lo)
    start = ready if ready > lo else lo
    inflight = entry._inflight
    base = inflight.base
    return [0.0] * (start - lo) + inflight.arrivals[start - base : hi - base]


def run_blocks(
    config, nbytes: int, lo: int, hi: int, time_of: Callable[[int], float]
) -> tuple[list[int], list[float]]:
    """Sizes and per-block times of blocks ``[lo, hi)`` of an ``nbytes`` object.

    Every block but the object's last has the same size, so ``time_of`` is
    called once per distinct size — at most twice — instead of per block.
    """
    sizes = config.block_sizes(nbytes, lo, hi)
    if not sizes:
        return sizes, []
    times = [time_of(sizes[0])] * len(sizes)
    if sizes[-1] != sizes[0]:
        times[-1] = time_of(sizes[-1])
    return sizes, times


def coalesce_eligible(
    links: Sequence[tuple["Resource", object]], src: "Node", dst: "Node"
) -> bool:
    """Whether a run can start right now: exclusive, idle, live endpoints."""
    if not ENABLED:
        return False
    if not (src.alive and dst.alive):
        return False
    for resource, _sched in links:
        if (
            resource._streams > 1
            or resource._waiting
            or resource._virtual
            or resource._in_use >= resource.capacity
        ):
            return False
    return True


def build_pull_run(
    config,
    src: "Node",
    dst: "Node",
    flow: Optional["Flow"],
    links: Sequence[tuple["Resource", Optional["LinkScheduler"]]],
    source_entry: Optional["StoredObject"],
    entry: "StoredObject",
    block_index: int,
    horizon: int,
    local_copy: bool = False,
    account_out: Optional[Callable[[int], None]] = None,
    account_in: Optional[Callable[[int], None]] = None,
) -> CoalescedRun:
    """The coalesced run for blocks ``[block_index, horizon)`` of one stream.

    Built by the block-stream loop (:mod:`repro.core.stream`): derives the
    relay cascade (``ready_times`` from the source's in-flight schedule for
    blocks it has not produced yet; a Put copy-in has no ``source_entry``),
    the per-block sizes/times (NIC path or local memcpy), and wires the
    destination entry for arithmetic marks.  The caller has already checked
    :func:`coalesce_eligible`, ``entry._no_coalesce``, and that
    ``horizon - block_index >= 2``.
    """
    from repro.net.flowsched import path_latency, path_transmission_time

    src_schedule = None
    ready_times = None
    if source_entry is not None and horizon > source_entry.blocks_ready:
        src_schedule = source_entry._inflight
        ready_times = ready_times_of(source_entry, block_index, horizon)
    if local_copy:
        sizes, tx = run_blocks(config, entry.size, block_index, horizon, config.memcpy_time)
        latency = 0.0
    else:
        sizes, tx = run_blocks(
            config,
            entry.size,
            block_index,
            horizon,
            lambda nb: path_transmission_time(config, src, dst, nb),
        )
        latency = path_latency(config, src, dst)
    run = CoalescedRun(
        dst.sim,
        src,
        dst,
        flow,
        sizes,
        tx,
        latency,
        links,
        entry=entry,
        base=block_index,
        account_out=account_out,
        account_in=account_in,
        ready_times=ready_times,
        src_schedule=src_schedule,
    )
    return run


def nic_path_links(
    src: "Node", dst: "Node"
) -> list[tuple["Resource", Optional["LinkScheduler"]]]:
    """The claim set of one ``src -> dst`` block, with accounting scheds."""
    links: list[tuple["Resource", Optional["LinkScheduler"]]] = [
        (src.uplink, src.uplink_sched),
        (dst.downlink, dst.downlink_sched),
    ]
    fabric = src.cluster.fabric if src.cluster is not None else None
    if fabric is not None:
        for link in fabric.path_links(src.node_id, dst.node_id):
            links.append((link.resource, link.sched))
    return links
