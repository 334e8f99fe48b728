"""Per-layer host-clock tracing, installed from outside the program.

:func:`install` replaces the public functions of each layer with timing
wrappers: class methods on their defining class, module-level functions at
every module that imported them by name (``collectives/base.py``,
``mpi.py``, ``core/reduce.py`` and ``core/broadcast.py`` hold their own
``transfer_block`` reference).  It must run before the traced passes build
any cluster.  Nothing under ``src/`` is edited, and the wrappers schedule
no events, so the simulated results stay bit-identical; the benchmark
checks that.

Every wrapped function belongs to a *bucket* named ``<layer>.<part>``.
Host time is *self* time: a frame's duration minus the time of the wrapped
frames it called.  Generator functions get a proxy (:class:`_TracedGen`)
that times every resume and forwards ``send``/``throw``/``close``, so an
``Interrupt`` thrown into a process still reaches the inner generator.  A
generator span also records the simulated time between its first and last
resume, which is how the ``*_sim_s`` wait metrics are measured.

Spans (name, bucket, host start/end, self time, simulated start/end,
parent span, cluster instance) are kept in memory while
``Tracer.recording`` is on and written out by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("sim", "net", "directory", "store", "core", "collectives", "tasksys")


def _wal_bucket(kind):
    """WAL work belongs to the service that owns the log.

    Every directory shard keeps a WAL too; its appends are directory work,
    so only the orchestrator's ``control-plane`` log counts as ``tasksys``.
    """

    def bucket(wal):
        owner = "tasksys" if wal.name == "control-plane" else "directory"
        return f"{owner}.{kind}"

    return bucket


# (module, "Class.method" or "function", bucket).  A bucket may be a callable
# of the bound instance (WAL ownership).
TARGETS = [
    # sim: kernel dispatch and admission.
    ("repro.sim.core", "Simulator.step", "sim.dispatch"),
    ("repro.sim.resources", "Resource.request", "sim.admission"),
    ("repro.sim.resources", "Resource.release", "sim.admission"),
    ("repro.sim.resources", "PriorityResource.request", "sim.admission"),
    ("repro.sim.resources", "MultiRequest.__init__", "sim.admission"),
    ("repro.sim.resources", "MultiRequest.release", "sim.admission"),
    # net: transport, flowsched, coalesce, convoy, topology, failure.
    ("repro.net.transport", "transfer_block", "net.transfer_entry"),
    ("repro.net.flowsched", "FlowTransport.transfer_block", "net.transfer"),
    ("repro.net.flowsched", "FlowTransport.transfer_bytes", "net.transport"),
    ("repro.net.flowsched", "FlowTransport.reserve", "net.transport"),
    ("repro.net.transport", "transfer_bytes", "net.transport"),
    ("repro.net.transport", "local_copy_block", "net.transport"),
    ("repro.net.transport", "local_copy", "net.transport"),
    ("repro.net.transport", "control_rpc", "net.transport"),
    ("repro.net.flowsched", "Reservation.__init__", "net.flowsched"),
    ("repro.net.flowsched", "Reservation.release", "net.flowsched"),
    ("repro.net.flowsched", "LinkScheduler.account", "net.flowsched"),
    ("repro.net.flowsched", "LinkScheduler.record_control", "net.flowsched"),
    ("repro.net.flowsched", "LinkScheduler.lockstep_candidates", "net.flowsched"),
    ("repro.net.flowsched", "path_transmission_time", "net.flowsched"),
    ("repro.net.flowsched", "path_latency", "net.flowsched"),
    ("repro.net.convoy", "ConvoyRun.run", "net.convoy"),
    ("repro.net.convoy", "ConvoyRun.queued", "net.convoy"),
    ("repro.net.convoy", "ConvoyDomain.materialize_all", "net.convoy"),
    ("repro.net.convoy", "maybe_form", "net.convoy"),
    ("repro.net.coalesce", "CoalescedRun.run", "net.coalesce"),
    ("repro.net.coalesce", "CoalescedRun.on_contest", "net.coalesce"),
    ("repro.net.coalesce", "ComputeRun.run", "net.coalesce"),
    ("repro.net.coalesce", "InflightSchedule.ready_now", "net.coalesce"),
    ("repro.net.coalesce", "InflightSchedule.schedule_waiter", "net.coalesce"),
    ("repro.net.coalesce", "InflightSchedule.truncate", "net.coalesce"),
    ("repro.net.coalesce", "InflightSchedule.close", "net.coalesce"),
    ("repro.net.coalesce", "register_stream", "net.coalesce"),
    ("repro.net.coalesce", "unregister_stream", "net.coalesce"),
    ("repro.net.coalesce", "coalesce_eligible", "net.coalesce"),
    ("repro.net.coalesce", "build_pull_run", "net.coalesce"),
    ("repro.net.coalesce", "input_coverage", "net.coalesce"),
    ("repro.net.coalesce", "ready_time_of", "net.coalesce"),
    ("repro.net.coalesce", "nic_path_links", "net.coalesce"),
    ("repro.net.topology", "Fabric.path_links", "net.topology"),
    ("repro.net.topology", "Fabric.transmission_time", "net.topology"),
    ("repro.net.topology", "Fabric.latency", "net.topology"),
    ("repro.net.topology", "Fabric.tier_links", "net.topology"),
    ("repro.net.node", "Node.fail", "net.failure"),
    ("repro.net.node", "Node.recover", "net.failure"),
    ("repro.net.node", "Node.failure_event", "net.failure"),
    ("repro.net.node", "Node.recovery_event", "net.failure"),
    ("repro.net.cluster", "Cluster.schedule_failure", "net.failure"),
    ("repro.net.failure", "schedule", "net.failure"),
    # directory
    ("repro.directory.service", "ObjectDirectory.wait_for_object", "directory.wait"),
    ("repro.directory.service", "ObjectDirectory.acquire_transfer_source", "directory.wait"),
    ("repro.directory.service", "ObjectDirectory.release_transfer_source", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.publish_partial", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.publish_complete", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.put_inline", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.remove_location", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.delete_object", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.try_get_inline", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.fail_shard", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.peek_record", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.locations_of", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.known_size", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.is_created", "directory.rpc"),
    ("repro.directory.service", "ObjectDirectory.creation_event", "directory.rpc"),
    ("repro.tasksys.wal", "WriteAheadLog.append", _wal_bucket("wal")),
    ("repro.tasksys.wal", "WriteAheadLog.checkpoint", _wal_bucket("wal_checkpoint")),
    ("repro.tasksys.wal", "WriteAheadLog.replay", _wal_bucket("replay")),
    # store
    ("repro.store.object_store", "LocalObjectStore.create", "store.create"),
    ("repro.store.object_store", "LocalObjectStore.create_or_get", "store.op"),
    ("repro.store.object_store", "LocalObjectStore.contains_complete", "store.op"),
    ("repro.store.object_store", "LocalObjectStore.get_entry", "store.op"),
    ("repro.store.object_store", "LocalObjectStore.try_get_entry", "store.op"),
    ("repro.store.object_store", "LocalObjectStore.put_complete", "store.op"),
    ("repro.store.object_store", "LocalObjectStore.delete", "store.op"),
    ("repro.store.object_store", "LocalObjectStore.pin", "store.op"),
    ("repro.store.object_store", "LocalObjectStore.unpin", "store.op"),
    ("repro.store.object_store", "LocalObjectStore.account_flow_in", "store.op"),
    ("repro.store.object_store", "LocalObjectStore.account_flow_out", "store.op"),
    ("repro.store.object_store", "StoredObject.mark_block_ready", "store.op"),
    ("repro.store.object_store", "StoredObject.reset_progress", "store.op"),
    ("repro.store.object_store", "StoredObject.freeze_progress", "store.op"),
    ("repro.store.object_store", "StoredObject.seal", "store.op"),
    ("repro.store.object_store", "StoredObject.decoalesce", "store.op"),
    ("repro.store.object_store", "StoredObject.wait_for_blocks", "store.op"),
    ("repro.store.object_store", "StoredObject.wait_sealed", "store.op"),
    ("repro.store.object_store", "StoredObject.to_value", "store.op"),
    # core: the Hoplite protocol.
    ("repro.core.api", "HopliteClient.get", "core.get"),
    ("repro.core.api", "HopliteClient.put", "core.op"),
    ("repro.core.api", "HopliteClient.delete", "core.op"),
    ("repro.core.api", "HopliteClient.reduce", "core.op"),
    ("repro.core.api", "HopliteClient.allreduce", "core.op"),
    ("repro.core.api", "HopliteClient.allgather", "core.op"),
    ("repro.core.api", "HopliteClient.reduce_scatter", "core.op"),
    ("repro.core.api", "HopliteClient.alltoall", "core.op"),
    ("repro.core.broadcast", "fetch_object", "core.exec"),
    ("repro.core.reduce", "adopt_or_create_reduction", "core.exec"),
    ("repro.core.reduce", "ReduceExecution.run", "core.exec"),
    ("repro.core.reduce", "ReduceExecution.abort", "core.exec"),
    ("repro.core.gather", "AllGatherExecution.run", "core.exec"),
    ("repro.core.gather", "ReduceScatterExecution.run", "core.exec"),
    ("repro.core.alltoall", "AllToAllExecution.run", "core.exec"),
    ("repro.core.hierarchical", "HierarchicalReduceExecution.run", "core.exec"),
    # collectives: the MPI/Gloo baselines.
    ("repro.collectives.base", "StaticOperation.participate", "collectives.op"),
    ("repro.collectives.mpi", "MPICollectives.send", "collectives.op"),
    ("repro.collectives.base", "StaticOperation.send_whole", "collectives.send"),
    ("repro.collectives.base", "StaticOperation.send_segmented", "collectives.send"),
    # tasksys: task system, orchestrator, lineage and WAL.
    ("repro.tasksys.system", "TaskSystem.__init__", "tasksys.task"),
    ("repro.tasksys.system", "TaskSystem.submit", "tasksys.submit"),
    ("repro.tasksys.system", "TaskSystem._execute", "tasksys.task"),
    ("repro.tasksys.system", "TaskSystem.fetch", "tasksys.task"),
    ("repro.tasksys.system", "TaskSystem.get", "tasksys.task"),
    ("repro.tasksys.system", "TaskSystem.wait", "tasksys.task"),
    ("repro.tasksys.system", "TaskSystem.put", "tasksys.task"),
    ("repro.tasksys.system", "TaskSystem._resubmit_after_delay", "tasksys.retry"),
    ("repro.tasksys.orchestrator", "CollectiveOrchestrator.__init__", "tasksys.orch"),
    ("repro.tasksys.orchestrator", "CollectiveOrchestrator.register", "tasksys.orch"),
    ("repro.tasksys.orchestrator", "CollectiveOrchestrator.submit", "tasksys.orch"),
    ("repro.tasksys.orchestrator", "CollectiveOrchestrator.invoke", "tasksys.orch"),
    ("repro.tasksys.orchestrator", "CollectiveOrchestrator.fetch", "tasksys.orch"),
    ("repro.tasksys.orchestrator", "CollectiveOrchestrator.lookup_spec", "tasksys.orch"),
    ("repro.tasksys.orchestrator", "CollectiveOrchestrator.kill_control_plane", "tasksys.orch"),
    ("repro.tasksys.orchestrator", "CollectiveOrchestrator.replay_after_restart", "tasksys.replay"),
    (
        "repro.tasksys.orchestrator",
        "CollectiveOrchestrator._recover_control_plane",
        "tasksys.recovery",
    ),
    ("repro.tasksys.lineage", "LineageLog.record", "tasksys.lineage"),
    ("repro.tasksys.lineage", "LineageLog.spec", "tasksys.lineage"),
    ("repro.tasksys.lineage", "LineageLog.note_submission", "tasksys.lineage"),
    ("repro.tasksys.lineage", "OwnershipTable.register", "tasksys.lineage"),
    ("repro.tasksys.lineage", "OwnershipTable.register_spec", "tasksys.lineage"),
    ("repro.tasksys.lineage", "OwnershipTable.owner_of", "tasksys.lineage"),
    ("repro.tasksys.lineage", "OwnershipTable.record_partial", "tasksys.lineage"),
    ("repro.tasksys.lineage", "OwnershipTable.record_copy", "tasksys.lineage"),
    ("repro.tasksys.lineage", "OwnershipTable.drop_node", "tasksys.lineage"),
]

#: spans kept per recorded pass; later spans are counted, not stored.
SPAN_CAP = 100_000


class Tracer:
    """Accumulates per-bucket self time, calls and simulated durations."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.sim_s: dict[str, float] = defaultdict(float)
        #: host time covered by outermost spans (any layer).
        self.covered_s = 0.0
        #: simulated seconds blocks waited for link admission (granted
        #: slow-path reservations only).
        self.grant_wait_sim_s = 0.0
        #: the simulator being stepped (set by the dispatch wrapper).
        self.sim = None
        #: id(simulator) -> cluster instance index within the pass.
        self.instances: dict[int, int] = {}
        #: TaskSystem / CollectiveOrchestrator instances built this pass.
        self.task_systems: list = []
        self.orchestrators: list = []
        self.recording = False
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._next_span = 0
        self._origin = 0.0

    def reset(self, recording: bool = False) -> None:
        """Zero the per-pass accumulators (call between passes)."""
        self.self_s.clear()
        self.calls.clear()
        self.sim_s.clear()
        self.covered_s = 0.0
        self.grant_wait_sim_s = 0.0
        self.instances.clear()
        self.task_systems.clear()
        self.orchestrators.clear()
        self.recording = recording
        self._origin = perf_counter()

    def _now_sim(self) -> float:
        sim = self.sim
        return sim._now if sim is not None else 0.0

    def _span_id(self):
        if not self.recording:
            return None
        span_id = self._next_span
        self._next_span += 1
        if len(self.spans) >= SPAN_CAP:
            self.spans_dropped += 1
            return None
        return span_id

    def _record(self, span_id, name, bucket, parent, t0, t1, self_s, s0, s1) -> None:
        self.spans.append(
            (
                span_id,
                name,
                bucket,
                parent,
                round(t0 - self._origin, 9),
                round(t1 - self._origin, 9),
                round(self_s, 9),
                s0,
                s1,
                self.instances.get(id(self.sim)),
            )
        )

    def write_spans(self, path) -> None:
        fields = (
            "id", "name", "bucket", "parent", "host_start_s", "host_end_s",
            "self_s", "sim_start_s", "sim_end_s", "instance",
        )
        with open(path, "w") as handle:
            handle.write(json.dumps({"fields": fields, "dropped": self.spans_dropped}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Frame:
    """One live wrapped call on the host stack."""

    __slots__ = ("child", "span_id")

    def __init__(self, span_id):
        self.child = 0.0
        self.span_id = span_id


def _wrap_call(tracer: Tracer, fn, bucket_of, name: str, before=None):
    fixed = None if callable(bucket_of) else bucket_of

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bucket = fixed or bucket_of(args[0])
        if before is not None:
            before(args)
        stack = tracer.stack
        parent = stack[-1].span_id if stack else None
        frame = _Frame(tracer._span_id())
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            dt = t1 - t0
            stack.pop()
            tracer.self_s[bucket] += dt - frame.child
            tracer.calls[bucket] += 1
            if stack:
                stack[-1].child += dt
            else:
                tracer.covered_s += dt
            if frame.span_id is not None:
                sim_t = tracer._now_sim()
                tracer._record(
                    frame.span_id, name, bucket, parent, t0, t1,
                    dt - frame.child, sim_t, sim_t,
                )

    return wrapper


class _TracedGen:
    """Generator proxy that charges each resume to its bucket."""

    __slots__ = (
        "_inner", "_bucket", "_tracer", "_name", "_span_id", "_parent",
        "_host0", "_self", "_sim0", "__name__",
    )

    def __init__(self, tracer: Tracer, inner, bucket: str, name: str):
        self._inner = inner
        self._bucket = bucket
        self._tracer = tracer
        self._name = name
        self.__name__ = getattr(inner, "__name__", name)
        self._span_id = None
        self._parent = None
        self._host0 = None
        self._self = 0.0
        self._sim0 = None

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._inner.send, None)

    def send(self, value):
        return self._resume(self._inner.send, value)

    def throw(self, *args):
        return self._resume(self._inner.throw, *args)

    def close(self):
        return self._inner.close()

    def _resume(self, method, *args):
        tracer = self._tracer
        stack = tracer.stack
        if self._host0 is None:
            self._sim0 = tracer._now_sim()
            self._parent = stack[-1].span_id if stack else None
            self._span_id = tracer._span_id()
        frame = _Frame(self._span_id)
        stack.append(frame)
        t0 = perf_counter()
        if self._host0 is None:
            self._host0 = t0
        done = True
        try:
            result = method(*args)
            done = False
            return result
        finally:
            t1 = perf_counter()
            dt = t1 - t0
            stack.pop()
            own = dt - frame.child
            bucket = self._bucket
            tracer.self_s[bucket] += own
            self._self += own
            if stack:
                stack[-1].child += dt
            else:
                tracer.covered_s += dt
            if done:
                # StopIteration or an exception: the call is over.
                tracer.calls[bucket] += 1
                sim1 = tracer._now_sim()
                tracer.sim_s[bucket] += sim1 - self._sim0
                if self._span_id is not None:
                    tracer._record(
                        self._span_id, self._name, bucket, self._parent,
                        self._host0, t1, self._self, self._sim0, sim1,
                    )


def _wrap_gen(tracer: Tracer, fn, bucket_of, name: str):
    fixed = None if callable(bucket_of) else bucket_of

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bucket = fixed or bucket_of(args[0])
        return _TracedGen(tracer, fn(*args, **kwargs), bucket, name)

    return wrapper


def _wrap_step(tracer: Tracer, fn):
    @functools.wraps(fn)
    def step(self):
        tracer.sim = self
        stack = tracer.stack
        parent = stack[-1].span_id if stack else None
        frame = _Frame(tracer._span_id())
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(self)
        finally:
            t1 = perf_counter()
            dt = t1 - t0
            stack.pop()
            tracer.self_s["sim.dispatch"] += dt - frame.child
            tracer.calls["sim.dispatch"] += 1
            if stack:
                stack[-1].child += dt
            else:
                tracer.covered_s += dt
            if frame.span_id is not None:
                tracer._record(
                    frame.span_id, "Simulator.step", "sim.dispatch", parent,
                    t0, t1, dt - frame.child, self._now, self._now,
                )

    return step


def _grant_wait_probe(tracer: Tracer):
    """Before ``Reservation.release``: add the granted claim's admission wait."""

    def before(args):
        reservation = args[0]
        if not reservation._closed and reservation.request.granted:
            tracer.grant_wait_sim_s += (
                reservation.request.granted_at - reservation.created_at
            )

    return before


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`TARGETS` (once per process)."""
    # Resolve every original first, so a subclass entry (ConvoyRun.run)
    # wraps the inherited original rather than the parent's wrapper.
    resolved = []
    for module_name, path, bucket in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = getattr(owner, attr)
        else:
            owner, attr = None, path
            original = getattr(module, path)
        resolved.append((module, owner, attr, path, original, bucket))

    before_hooks = {
        "Reservation.release": _grant_wait_probe(tracer),
        "TaskSystem.__init__": lambda args: tracer.task_systems.append(args[0]),
        "CollectiveOrchestrator.__init__": lambda args: tracer.orchestrators.append(args[0]),
    }
    for module, owner, attr, path, original, bucket in resolved:
        if path == "Simulator.step":
            wrapped = _wrap_step(tracer, original)
        elif inspect.isgeneratorfunction(original):
            wrapped = _wrap_gen(tracer, original, bucket, path)
        else:
            wrapped = _wrap_call(tracer, original, bucket, path, before_hooks.get(path))
        if owner is not None:
            setattr(owner, attr, wrapped)
            continue
        # A module-level function: rebind it at every by-name import site.
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)

