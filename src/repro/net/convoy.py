"""Convoy coalescing: arithmetic simulation of saturated contended links.

PR 5's :mod:`repro.net.coalesce` made *stream-exclusive* links O(1): a lone
flow's block schedule on an idle path is a closed-form recurrence, so one
event replaces thousands.  This module extends the same idea to *saturated
contended* links: a lockstep group of flows sharing one bottleneck link (a
reduce tree's fan-in on the parent downlink, several pulls draining one
source uplink, Puts queued on one memcpy channel) has deterministic,
periodic queue state — so the whole group can be advanced arithmetically
as one *convoy*.

Model
-----

A :class:`ConvoyDomain` owns a *closed* group of streams sharing exactly one
contended, capacity-1 bottleneck link ``B``; every member's other claimed
links must be member-exclusive.  Under that shape the kernel's admission
algorithm degenerates to strict head-of-queue FIFO on ``B`` (the head's
partner links are always free at grant instants), so a mini discrete-event
planner (:func:`_plan`) can replay it exactly — release-triggered grants,
priority-then-FIFO queue order, per-block gate times from source schedules,
the same left-associated float arithmetic — over every member's remaining
blocks.  Each member then runs as a :class:`ConvoyRun` (a
:class:`~repro.net.coalesce.CoalescedRun` with injected boundaries): O(1)
kernel events, virtual holds *and virtual queue slots* for exact occupancy
probes, an :class:`~repro.net.coalesce.InflightSchedule` on its destination
entry, and per-block-exact link accounting.

The plan is valid precisely until the first *unplanned* action touches the
domain: a new stream enqueues on a domain link, a member endpoint fails, a
consumer opts out of arithmetic marks (``decoalesce``), or a schedule
feeding a member gate is truncated.  Any of these *materializes the whole
domain* at the current boundary — every member re-splits to per-block
granularity, and members whose planned admission was already issued are
re-inserted into the real queues (ahead of the disturbing request, exactly
where their per-block reservations would have been) — so per-block
behaviour is reproduced bit-for-bit from that instant.

Formation is *gated and tie-refusing*: a domain only forms when every
stream on the bottleneck is convoy-capable, the link has been quiet for a
couple of block times, and the planned event sequence contains no
same-instant collisions outside the canonical release-then-grant frame
(same-timestamp collisions resolve by event-queue history, which arithmetic
must not guess at).  Any refusal is safe — the per-block path is the
definition of correct — and sets a cooldown so the attempt itself stays
cheap.  Workloads whose membership churns faster than blocks complete
(e.g. a windowed allgather) never form domains; an alltoall, whose flows
contend on *two* links at once (uplink and downlink), is refused by the
single-bottleneck test in O(links) per attempt.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import count
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.net.coalesce import (
    CoalescedRun,
    InflightSchedule,
    _VIRTUAL,
    ready_time_of,
)
from repro.net.fastpath import stats_for
from repro.net.flowsched import (
    PHASE_ADMIT,
    PHASE_GATE,
    PHASE_LAT,
    PHASE_RUN,
    PHASE_TOP,
    PHASE_TX,
    Reservation,
    path_latency,
    path_transmission_time,
)
from repro.sim.resources import _Request, _arrival_stamp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.config import NetworkConfig
    from repro.net.flowsched import Flow, LinkScheduler
    from repro.net.node import Node
    from repro.sim.core import Event, Simulator
    from repro.sim.resources import Resource
    from repro.store.object_store import StoredObject

#: Global kill switch (mirrors ``coalesce.ENABLED``): when False, domains
#: never form and every transfer takes the per-block path.  The differential
#: fuzz harness (repro/bench/fuzz.py) flips this to prove bit-exactness.
ENABLED = True

#: Stream phases stamped on a :class:`StreamHandle` by its transfer loop
#: (canonical values live in :mod:`repro.net.flowsched`, below this module
#: in the import graph).  Formation reads them to reconstruct each member's
#: exact kernel state.
TOP = PHASE_TOP  #: at the top of its block loop
GATE = PHASE_GATE  #: parked on the source entry's ``wait_for_blocks``
ADMIT = PHASE_ADMIT  #: reservation/request queued, not granted
TX = PHASE_TX  #: holding its links until ``tx_end``
LAT = PHASE_LAT  #: links released, block arrives at ``arr_at``
RUN = PHASE_RUN  #: driving a coalesced/convoy run

# Observability counters live per cluster (``cluster.fastpath_stats``,
# :class:`repro.net.fastpath.FastpathStats`) — surfaced by the
# observability plane; :func:`repro.net.fastpath.stats_for` is the only
# access path (a module-global dict would leak across scenarios in one
# process).


#: quiet gate: the bottleneck's stream set must be unchanged for this many
#: next-block transmission times before a convoy may form over it.
_QUIET_TX = 2.0
#: cooldown stamped on every domain link after a refused plan or a
#: materialization, in next-block transmission times.
_COOLDOWN_TX = 4.0
#: minimum total planned blocks for a plan to be worth the formation cost.
_MIN_PLANNED = 6


class StreamHandle:
    """Identity card of one convoy-capable block-transfer stream.

    Created by the block-stream loop (:func:`repro.core.stream.stream_blocks`,
    behind broadcast pulls, reduce partial streams and pipelined Put
    copy-ins) and passed to
    :func:`~repro.net.coalesce.register_stream`, which exposes it on every
    claimed link.  The loop keeps ``phase`` (and the matching timestamps)
    current at every parking point, so convoy formation can read the exact
    kernel state of every stream sharing a contended link without walking
    the event queue.
    """

    __slots__ = (
        "kind",
        "config",
        "src",
        "dst",
        "flow",
        "links",
        "entry",
        "source_entry",
        "account_out",
        "account_in",
        "phase",
        "reservation",
        "request",
        "gate_event",
        "tx_end",
        "arr_at",
        "adopted_run",
        "preplaced",
        "poked",
    )

    def __init__(
        self,
        kind: str,
        config: "NetworkConfig",
        src: "Node",
        dst: "Node",
        flow: Optional["Flow"],
        links: Sequence[tuple["Resource", Optional["LinkScheduler"]]],
        entry: "StoredObject",
        source_entry: Optional["StoredObject"] = None,
        account_out: Optional[Callable[[int], None]] = None,
        account_in: Optional[Callable[[int], None]] = None,
    ):
        #: ``"nic"`` (reservation over a NIC path) or ``"copy"`` (a single
        #: capacity-1 memcpy channel, zero latency, same-frame reissue).
        self.kind = kind
        self.config = config
        self.src = src
        self.dst = dst
        self.flow = flow
        self.links = list(links)
        self.entry = entry
        self.source_entry = source_entry
        self.account_out = account_out
        self.account_in = account_in
        self.phase = TOP
        self.reservation: Optional[Reservation] = None
        self.request: Optional[_Request] = None
        self.gate_event: Optional["Event"] = None
        self.tx_end = 0.0
        self.arr_at = 0.0
        #: run handed to this stream by a formation it did not initiate; the
        #: loop drives it at its next top-of-loop.
        self.adopted_run: Optional["ConvoyRun"] = None
        #: reservation/request re-inserted into the real queues for this
        #: stream by a domain materialization; consumed by the next
        #: ``transfer_block`` / ``local_copy_block`` instead of a fresh one.
        self.preplaced = None
        #: set when formation withdrew this stream's parked gate/admission;
        #: the loop clears it and re-enters its top to adopt the run.
        self.poked = False

    # -- planning inputs ---------------------------------------------------
    def next_block(self) -> int:
        return self.entry.blocks_ready

    def num_blocks(self) -> int:
        return self.entry.num_blocks

    def block_size(self, index: int) -> int:
        return self.config.block_bytes(self.entry.size, index)

    def block_tx(self, nbytes: int) -> float:
        if self.kind == "copy":
            return self.config.memcpy_time(nbytes)
        return path_transmission_time(self.config, self.src, self.dst, nbytes)

    def latency(self) -> float:
        if self.kind == "copy":
            return 0.0
        return path_latency(self.config, self.src, self.dst)


class ConvoyRun(CoalescedRun):
    """One member's share of a convoy plan.

    A :class:`~repro.net.coalesce.CoalescedRun` whose boundaries were
    injected by the domain planner instead of derived from an exclusive
    recurrence.  Two extensions: a virtual *queue* slot (``queued``) so
    ``Resource.queue_length`` sees the member's planned-but-ungranted
    admission exactly as its per-block reservation would appear in
    ``_waiting``, and domain-routed disturbance handling — one member's plan
    is only valid while every member's is, so any contest or unwind
    materializes the whole domain.
    """

    __slots__ = ("domain", "handle", "q", "q0_at_formation")

    def __init__(self, *args, **kwargs):
        CoalescedRun.__init__(self, *args, **kwargs)
        self.domain: Optional["ConvoyDomain"] = None
        self.handle: Optional[StreamHandle] = None
        #: planned issue instant of each block's admission request.
        self.q: list[float] = []
        #: whether block 0's request was already real at formation time (an
        #: admitted-and-queued member, or the initiator joining a busy
        #: queue) — those re-enter the queue ahead of a same-instant
        #: disturber at materialization, later issues do not.
        self.q0_at_formation = False

    def queued(self, at: float) -> int:
        if self.state != _VIRTUAL:
            return 0
        i = bisect_right(self.q, at) - 1
        if i < 0 or i >= self.n:
            return 0
        return 1 if at < self.s[i] else 0

    def _materialize(self) -> None:
        domain = self.domain
        if domain is not None:
            domain.materialize_all()
        else:  # pragma: no cover - defensive (a run always has its domain)
            self._materialize_self()

    def _on_unwind(self) -> None:
        # The owning process was interrupted mid-plan: every other member's
        # plan assumed this stream's future issues, so the whole domain goes
        # per-block.  No preplacement for the dying stream — its per-block
        # teardown would never re-issue.
        domain = self.domain
        if domain is not None:
            domain.materialize_all(skip_preplace=self)


class _Member:
    """Planner-internal view of one stream: inputs, mode, and outputs."""

    __slots__ = (
        "handle",
        "start",
        "sizes",
        "tx",
        "gates",
        "latency",
        "copy",
        "mode",
        "key",
        "lead_release",
        "lead_arr",
        "first_issue",
        "src_schedule",
        "s",
        "e",
        "arr",
        "q",
        "n",
        "run",
    )

    def __init__(self, handle: StreamHandle):
        self.handle = handle
        self.start = 0
        self.sizes: list[int] = []
        self.tx: list[float] = []
        self.gates: list[float] = []
        self.latency = 0.0
        self.copy = handle.kind == "copy"
        #: "queue" (admitted, waiting), "issue" (first request at a known
        #: future instant), "lead_tx"/"lead_lat" (a real block in flight,
        #: plan covers the blocks after it), "passive" (no planned blocks).
        self.mode = "passive"
        self.key: tuple = ()
        self.lead_release = 0.0
        self.lead_arr = 0.0
        self.first_issue = 0.0
        self.src_schedule: Optional[InflightSchedule] = None
        self.s: list[float] = []
        self.e: list[float] = []
        self.arr: list[float] = []
        self.q: list[float] = []
        self.n = 0
        self.run: Optional[ConvoyRun] = None


def _plan(t0: float, members: list["_Member"]) -> bool:
    """Replay FIFO admission on the bottleneck over every planned block.

    Fills each member's ``s``/``e``/``arr``/``q`` arrays with the exact
    grant/release/arrival/issue instants its per-block chain would produce.
    Returns False — *refuse formation* — on any same-instant event collision
    outside the canonical release frame: equal-time events resolve by
    event-queue history, which the plan must not guess at.
    """
    import heapq

    heap: list[tuple[float, int, int, _Member]] = []  # (time, seq, kind, m)
    seq = 0
    _RELEASE, _ISSUE = 0, 1
    busy = False
    # Admission queue: (priority, order, member).  Initial admitted members
    # keep the relative order of their real sort keys; every later issue
    # draws a larger order, exactly like the global arrival stamp.
    initial = sorted((m for m in members if m.mode == "queue"), key=lambda m: m.key)
    order = count(len(initial))
    queue: list[tuple[int, int, _Member]] = [
        (m.key[0], rank, m) for rank, m in enumerate(initial)
    ]
    for m in initial:
        m.q.append(t0)

    for m in members:
        if m.mode == "issue":
            heapq.heappush(heap, (m.first_issue, seq, _ISSUE, m))
            seq += 1
        elif m.mode in ("lead_tx", "passive"):
            if m.mode == "lead_tx" or m.lead_release > 0.0:
                busy = True
                heapq.heappush(heap, (m.lead_release, seq, _RELEASE, m))
                seq += 1
        elif m.mode == "lead_lat":
            heapq.heappush(heap, (m.first_issue, seq, _ISSUE, m))
            seq += 1

    def grant(m: _Member, t: float) -> None:
        nonlocal busy, seq
        j = len(m.s)
        m.s.append(t)
        end = t + m.tx[j]
        m.e.append(end)
        m.arr.append(end if m.copy else end + m.latency)
        busy = True
        heapq.heappush(heap, (end, seq, _RELEASE, m))
        seq += 1

    def issue(m: _Member, t: float) -> None:
        m.q.append(t)
        if busy:
            insort(queue, (m.key[0] if m.key else _priority(m.handle), next(order), m))
        else:
            grant(m, t)

    while heap:
        t, _, kind, m = heapq.heappop(heap)
        if heap and heap[0][0] == t:
            return False  # tie: ordering would be event-queue history
        if kind == _ISSUE:
            issue(m, t)
            continue
        # RELEASE frame, replayed atomically in kernel order: the release's
        # grant scan admits the queue head first; a zero-latency (memcpy)
        # member then re-issues in the same frame, joining the queue back.
        busy = False
        if queue:
            _, _, head = queue.pop(0)
            grant(head, t)
        granted = len(m.s)
        issued = len(m.q)
        if m.mode == "lead_tx" and granted == 0 and issued == 0:
            # The real in-flight block just released; the plan's first block
            # issues at its arrival (or the gate, if later).
            if m.n:
                nxt = m.gates[0]
                if nxt <= m.lead_arr:
                    nxt = m.lead_arr
                heapq.heappush(heap, (nxt, seq, _ISSUE, m))
                seq += 1
            continue
        if m.mode == "passive":
            continue
        if issued < m.n:
            gate = m.gates[issued]
            if m.copy:
                if gate <= t:
                    issue(m, t)
                else:
                    heapq.heappush(heap, (gate, seq, _ISSUE, m))
                    seq += 1
            else:
                arr_prev = m.arr[granted - 1]
                nxt = arr_prev if gate <= arr_prev else gate
                heapq.heappush(heap, (nxt, seq, _ISSUE, m))
                seq += 1

    if queue:  # pragma: no cover - defensive: every release grants a head
        return False
    for m in members:
        if m.mode != "passive" and (len(m.s) != m.n or len(m.q) != m.n):
            return False  # pragma: no cover - defensive
    return True


def _priority(handle: StreamHandle) -> int:
    if handle.kind == "copy":
        return 0
    flow = handle.flow
    return int(flow.flow_class) if flow is not None else 0


class ConvoyDomain:
    """The shared fate of one convoy: members, links, and materialization."""

    __slots__ = (
        "sim",
        "bottleneck",
        "links",
        "runs",
        "formed_at",
        "cooldown",
        "dead",
        "stamp_fence",
    )

    def __init__(self, sim: "Simulator", bottleneck: "Resource", cooldown: float):
        self.sim = sim
        self.bottleneck = bottleneck
        #: every resource any member claims (deduplicated), for cooldowns.
        self.links: list["Resource"] = []
        self.runs: list[ConvoyRun] = []
        self.formed_at = sim._now
        self.cooldown = cooldown
        self.dead = False
        #: arrival stamp drawn at formation: every request issued after the
        #: domain formed (any future disturber included) carries a larger
        #: stamp, so preplaced members synthesize keys below this fence.
        self.stamp_fence = next(_arrival_stamp)

    def _attach_member(self, run: ConvoyRun, lead_arr: Optional[float]) -> None:
        """Everything ``CoalescedRun._attach`` does, plus the lead window.

        A member with a real block still in flight at formation time gets an
        arrival schedule that *starts one block early* (``base - 1`` with the
        real block's arrival prepended), so consumers reading
        ``blocks_ready`` / ``wait_for_blocks`` during the lead window see
        exact values; the run itself still owns only the planned blocks.
        """
        cluster = run.src.cluster
        if cluster is not None:
            if cluster.obs is not None:
                cluster.obs.record_run_start(run)
            if cluster.flight is not None and run.src is not run.dst:
                run._flight = cluster.flight
                run._flight_key = f"n{run.src.node_id}>n{run.dst.node_id}"
                run._flight_flow = (
                    run.flow.flow_id if run.flow is not None else "untagged"
                )
        for resource, _sched in run.links:
            resource.add_virtual_hold(run)
        run.src.on_failure(run._on_peer_failure)
        if run.dst is not run.src:
            run.dst.on_failure(run._on_peer_failure)
        run._listening = True
        if run.entry is not None:
            if lead_arr is None:
                schedule = InflightSchedule(run.entry, run.base, run.arr, run)
            else:
                schedule = InflightSchedule(
                    run.entry, run.base - 1, [lead_arr] + run.arr, run
                )
            run.schedule = schedule
            run.entry._begin_inflight(schedule)
        if run.src_schedule is not None:
            run.src_schedule.dependents.append(run)
        run.preattached = True

    def materialize_all(self, skip_preplace: Optional[ConvoyRun] = None) -> None:
        """Re-split every member at the current boundary, exactly.

        Three-stage, all synchronous (it runs *inside* the disturbing frame,
        before e.g. a new request's queue insertion):

        1. every member run re-splits (virtual holds -> synthetic real holds
           for the member mid-transmission, schedules truncate, sleepers
           wake) — after this the links' ``_in_use`` is real and exact;
        2. members whose planned admission was already issued but not yet
           granted re-enter the real queues *now*, in plan order, with
           synthesized sort keys that sort before any later-stamped request
           (in particular before the disturbing one, whose stamp was drawn
           before this materialization ran) — exactly where their per-block
           reservations would have been sitting;
        3. every domain link gets a formation cooldown, so the freed
           per-block streams do not re-plan block by block.
        """
        if self.dead:
            return
        self.dead = True
        if self.runs:
            lead = self.runs[0]
            stats_for(lead.src).bump("materializations")
            cluster = lead.src.cluster
            if cluster is not None and cluster.flight is not None:
                cluster.flight.phase(
                    f"n{lead.src.node_id}>n{lead.dst.node_id}",
                    f"convoy_materialize/{len(self.runs)}",
                )
        now = self.sim._now
        runs = self.runs
        for run in runs:
            run._materialize_self()
        pending: list[tuple[float, int, ConvoyRun]] = []
        for run in runs:
            if run is skip_preplace or run.handle is None:
                continue
            q = run.q
            i = bisect_right(q, now) - 1
            if i < 0 or i >= len(run.s) or now >= run.s[i]:
                continue
            if q[i] == now and not (i == 0 and run.q0_at_formation):
                # A planned issue exactly at the disturbance instant has not
                # happened yet in the per-block world; the member re-issues
                # after the disturber, through its ordinary loop.
                continue
            pending.append((run.s[i], i, run))
        if pending:
            pending.sort(key=lambda item: item[0])
            fence = self.stamp_fence - 1
            denom = len(pending) + 1
            for rank, (_, i, run) in enumerate(pending):
                handle = run.handle
                nbytes = handle.block_size(run.base + i)
                synth = fence + (rank + 1) / denom
                if handle.kind == "copy":
                    req = _Request(self.bottleneck, 1, 0)
                    req.sort_key = (0, synth)
                    self.bottleneck._enqueue(req)
                    handle.preplaced = req
                else:
                    reservation = Reservation(
                        handle.src, handle.dst, nbytes, handle.flow
                    )
                    reservation.request.sort_key = (
                        reservation.request.priority,
                        synth,
                    )
                    handle.preplaced = reservation
        for resource in self.links:
            stamp = now + self.cooldown
            if stamp > resource._cooldown:
                resource._cooldown = stamp


def maybe_form(handle: StreamHandle, block_index: int) -> Optional[ConvoyRun]:
    """Try to form a convoy over ``handle``'s one contended link.

    Called by a stream at the top of its block loop after the exclusive
    fast path (:func:`~repro.net.coalesce.coalesce_eligible`) declined.
    Returns the initiator's :class:`ConvoyRun` to drive, or ``None``.  The
    cheap refusals (no single bottleneck, cooldown, churn) cost O(links);
    only a plausible lockstep group pays for validation and planning, and a
    refused plan stamps a cooldown so per-block retries short-circuit.
    """
    if not ENABLED:
        return None
    sim = handle.src.sim
    now = sim._now
    bottleneck = None
    bneck_sched = None
    for resource, sched in handle.links:
        if resource._streams > 1:
            if bottleneck is not None:
                return None  # two contended links (alltoall shape): refuse
            bottleneck = resource
            bneck_sched = sched
    if bottleneck is None or bottleneck.capacity != 1:
        return None
    if bottleneck._cooldown > now:
        return None
    if bneck_sched is not None:
        handles = bneck_sched.lockstep_candidates()
        if handles is None:
            return None  # an opaque (handle-less) stream shares the link
    else:  # memcpy channels have no LinkScheduler
        handles = bottleneck._handles
        if len(handles) != bottleneck._streams or len(handles) < 2:
            return None
    if handle.entry._no_coalesce or handle.entry._inflight is not None:
        return None
    sizes0 = handle.block_size(block_index)
    tx0 = handle.block_tx(sizes0)
    if now - bottleneck._joined_at < _QUIET_TX * tx0:
        return None  # membership still churning
    cooldown = _COOLDOWN_TX * tx0

    plan = _build_members(handle, handles, bottleneck, now)
    if plan is None:
        stats_for(handle.src).bump("refusals")
        bottleneck._cooldown = now + cooldown
        return None
    members, total_blocks = plan
    if total_blocks < _MIN_PLANNED:
        stats_for(handle.src).bump("refusals")
        bottleneck._cooldown = now + cooldown
        return None
    if not _plan(now, members):
        stats_for(handle.src).bump("refusals")
        bottleneck._cooldown = now + cooldown
        return None

    domain = ConvoyDomain(sim, bottleneck, cooldown)
    seen: set[int] = set()
    for m in members:
        for resource, _sched in m.handle.links:
            if id(resource) not in seen:
                seen.add(id(resource))
                domain.links.append(resource)

    initiator_run: Optional[ConvoyRun] = None
    actives = [m for m in members if m.mode != "passive"]
    for m in actives:
        h = m.handle
        run = ConvoyRun(
            sim,
            h.src,
            h.dst,
            h.flow,
            m.sizes,
            m.tx,
            m.latency,
            h.links,
            entry=h.entry,
            base=m.start,
            account_out=h.account_out,
            account_in=h.account_in,
            boundaries=(m.s, m.e, m.arr),
            src_schedule=m.src_schedule,
        )
        run.domain = domain
        run.handle = h
        run.q = m.q
        run.q0_at_formation = m.mode == "queue" or (
            h is handle and m.q and m.q[0] == now and m.s[0] > now
        )
        m.run = run
        domain.runs.append(run)
    # Cancel the admitted members' real requests before attaching anything:
    # the virtual queue slots replace them one-for-one.
    admitted = sorted(
        (m for m in actives if m.mode == "queue"), key=lambda m: m.key
    )
    for m in admitted:
        h = m.handle
        if h.kind == "copy":
            h.request.cancel()
        else:
            h.reservation.request.release()
    for m in actives:
        lead_arr = m.lead_arr if m.mode in ("lead_tx", "lead_lat") else None
        domain._attach_member(m.run, lead_arr)
        if m.handle is not handle:
            m.handle.adopted_run = m.run
        else:
            initiator_run = m.run
    # Wake the parked members (queue order first, then gates); each resumes,
    # sees ``poked``, and re-enters its loop top to adopt its run.
    for m in admitted:
        h = m.handle
        h.poked = True
        if h.kind == "copy":
            h.request.succeed(h.request)
        else:
            h.reservation.request.succeed(h.reservation.request)
    for m in actives:
        h = m.handle
        if m.mode == "issue" and h.phase == GATE:
            h.poked = True
            if h.gate_event is not None and not h.gate_event.triggered:
                h.gate_event.succeed(None)
    stats = stats_for(handle.src)
    stats.bump("domains_formed")
    stats.bump("members_enrolled", len(actives))
    stats.bump("blocks_planned", total_blocks)
    cluster = handle.src.cluster
    if cluster is not None and cluster.flight is not None:
        cluster.flight.phase(
            f"n{handle.src.node_id}>n{handle.dst.node_id}",
            f"convoy_form/{len(actives)}/{total_blocks}",
        )
    return initiator_run


def _build_members(
    initiator: StreamHandle,
    handles: list,
    bottleneck: "Resource",
    now: float,
) -> Optional[tuple[list[_Member], int]]:
    """Validate the lockstep group and derive every member's plan inputs.

    Returns ``None`` — refuse — whenever any stream's state is not one of
    the exactly-reconstructible parking shapes, any non-bottleneck link is
    not member-exclusive, or any queue/hold on the bottleneck cannot be
    identity-matched to a member.
    """
    members: list[_Member] = []
    tx_holders = 0
    admitted_requests: list = []
    entries: set[int] = set()
    for h in handles:
        if not isinstance(h, StreamHandle):
            return None
    entry_ids = {id(h.entry) for h in handles}
    for h in handles:
        if not (h.src.alive and h.dst.alive):
            return None
        entry = h.entry
        if entry._no_coalesce or entry._inflight is not None:
            return None
        if id(entry) in entries:
            return None  # pragma: no cover - one producer per entry
        entries.add(id(entry))
        m = _Member(h)
        phase = h.phase
        b0 = entry.blocks_ready
        total = entry.num_blocks
        src_entry = h.source_entry
        if phase == TOP and h is not initiator:
            if b0 >= total:
                members.append(m)  # complete: about to unregister, passive
                continue
            return None  # mid-frame between parking points: unreadable
        if phase == RUN:
            return None
        if phase == TX or phase == LAT:
            if phase == TX:
                if h.tx_end <= now:
                    return None  # release frame pending at this instant
                m.lead_release = h.tx_end
                m.lead_arr = h.tx_end if m.copy else h.tx_end + h.latency()
                m.mode = "lead_tx"
                tx_holders += 1
            else:
                if m.copy or h.arr_at <= now:
                    return None
                m.lead_arr = h.arr_at
                m.mode = "lead_lat"
            start = b0 + 1
        elif phase == GATE:
            if h.gate_event is None or h.gate_event.triggered:
                return None
            start = b0
            m.mode = "issue"
        elif phase == ADMIT:
            if h.kind == "copy":
                req = h.request
            else:
                req = h.reservation.request if h.reservation is not None else None
            if req is None or req.triggered or getattr(req, "granted", False):
                return None
            m.mode = "queue"
            m.key = req.sort_key
            admitted_requests.append(req)
            start = b0
        elif phase == TOP:  # the initiator
            start = b0
            m.mode = "issue"
        else:  # pragma: no cover - defensive
            return None

        # Member-exclusive partner links: idle (except the member's own
        # in-flight hold), no foreign queue entries, no standing runs.
        own_req = None
        if m.mode == "queue":
            own_req = admitted_requests[-1]
        holds = 1 if m.mode == "lead_tx" else 0
        for resource, _sched in h.links:
            if resource._virtual:
                return None
            if resource is bottleneck:
                continue
            if resource._streams != 1 or resource._in_use != holds:
                return None
            for waiter in resource._waiting:
                if waiter is not own_req:
                    return None

        if total <= start:
            if m.mode in ("issue", "queue"):
                return None  # parked with nothing left: unreachable shape
            # A lead on its final block: the real chain finishes it and the
            # stream leaves.  Keep the slot seed (lead_release), plan no
            # blocks for it.
            m.mode = "passive"
            members.append(m)
            continue

        # Plannable horizon: blocks whose source-ready instants are known.
        if src_entry is None:
            horizon = total
        else:
            from repro.net.coalesce import input_coverage

            if id(src_entry) in entry_ids:
                return None  # intra-domain relay: gates depend on the plan
            horizon = input_coverage(src_entry, total)
        if horizon <= start:
            if m.mode in ("lead_tx", "lead_lat"):
                # The real block completes, then the stream parks on an
                # unknown gate; it re-splits the domain when it next acts.
                m.mode = "passive"
                members.append(m)
                continue
            return None
        m.start = start
        m.latency = h.latency()
        gates: list[float] = []
        for j in range(start, horizon):
            nbytes = h.block_size(j)
            m.sizes.append(nbytes)
            m.tx.append(h.block_tx(nbytes))
            gates.append(0.0 if src_entry is None else ready_time_of(src_entry, j))
        m.gates = gates
        m.n = len(m.sizes)
        if src_entry is not None and horizon > src_entry.blocks_ready:
            m.src_schedule = src_entry._inflight
            if m.src_schedule is None:  # pragma: no cover - defensive
                return None
        if m.mode == "lead_lat":
            # Links already released; the first planned issue follows the
            # in-flight block's arrival (or its gate, whichever is later).
            g0 = gates[0]
            m.first_issue = m.lead_arr if g0 <= m.lead_arr else g0
        if m.mode == "issue":
            gate0 = gates[0]
            if h is initiator:
                if gate0 > now:
                    m.first_issue = gate0
                else:
                    m.first_issue = now
            else:
                if gate0 <= now:
                    return None  # gate arrival this very frame: ambiguous
                m.first_issue = gate0
        members.append(m)

    # A convoy needs at least two flows actually rotating: with one active
    # member the arithmetic plan saves nothing over the exclusive coalesced
    # path, and its wake events land at per-block instants with *different*
    # queue sequence numbers — enough to flip a later same-timestamp tie
    # between unrelated transfers (observed in the 64-node matching cell).
    if sum(1 for m in members if m.mode != "passive") < 2:
        return None

    # The bottleneck's real state must be exactly the members' state.
    if bottleneck._in_use != tx_holders:
        return None
    waiting = bottleneck._waiting
    if len(waiting) != len(admitted_requests):
        return None
    admitted_ids = {id(req) for req in admitted_requests}
    for waiter in waiting:
        if id(waiter) not in admitted_ids:
            return None
    total_blocks = sum(m.n for m in members)
    return members, total_blocks
