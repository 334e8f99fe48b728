"""The simulated-time observability plane.

One :class:`Observability` instance per :class:`~repro.net.cluster.Cluster`
(installed via ``cluster.enable_observability()``) bundles:

* a :class:`~repro.obs.metrics.MetricsRegistry` recording counters, gauges,
  and exact histograms against the cluster's **simulated** clock;
* a :class:`~repro.obs.trace.Tracer` recording span trees for collectives
  (driver-task spans linked through orchestrator lineage, optional
  transfer/reservation child spans);
* the instrumentation glue: it installs the kernel's per-event hook, the
  per-link-scheduler byte/queue/control children, the fast-path counter
  mirror, and the grant-wait recorder the transport calls.

Everything is opt-in and zero-overhead when off: with no plane installed,
every call site pays exactly one ``is not None`` branch (``cluster.obs``,
``sched._obs_bytes``, ``sim.on_step``), and the differential digests prove
that enabling the plane changes no simulated result.

Label taxonomy (documented in ROADMAP perf notes):

``tenant`` / ``job`` / ``op`` / ``size``
    fleet-scenario identity: who issued the collective, which app kind,
    which primitive, which size bucket (``evaluate_slos`` keys on these);
``link`` / ``tier``
    link identity (``n3/up``, ``rack0/up``) and its fabric tier (``nic``,
    ``rack_up``, ``rack_down``, ``zone_up``, ``zone_down``);
``cls``
    flow class (``control`` / ``reduce_partial`` / ``bulk``);
``kind``
    fast-path event kind (:data:`repro.net.fastpath.COUNTER_KEYS`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.fastpath import COUNTER_KEYS
from repro.net.flowsched import FlowClass, path_latency
from repro.obs.export import (
    SLORow,
    SLOTarget,
    evaluate_slos,
    format_slo_table,
    to_json,
    to_prometheus,
)
from repro.obs.chrometrace import dump_chrome_trace, to_chrome_trace
from repro.obs.locality import LocalityAnalyzer, format_locality_report
from repro.obs.metrics import MetricsRegistry, nearest_rank
from repro.obs.trace import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.cluster import Cluster

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "SLOTarget",
    "SLORow",
    "evaluate_slos",
    "format_slo_table",
    "to_prometheus",
    "to_json",
    "nearest_rank",
    "LocalityAnalyzer",
    "format_locality_report",
    "to_chrome_trace",
    "dump_chrome_trace",
]


class Observability:
    """Metrics + tracing for one cluster, wired into every subsystem."""

    def __init__(
        self,
        cluster: "Cluster",
        window: float = 0.1,
        trace_transfers: bool = False,
    ):
        if cluster.obs is not None:
            raise ValueError("cluster already has an observability plane")
        self.cluster = cluster
        sim = cluster.sim
        self.registry = MetricsRegistry(sim, window=window)
        self.tracer = Tracer(sim)
        #: when True, every reservation and coalesced/convoy run records a
        #: child span (linked to its collective through the moved object).
        self.trace_transfers = trace_transfers
        #: ``(time, node_id, "down"|"up")`` membership transitions, in
        #: order — the critical-path profiler turns these into detection
        #: windows (``config.failure_detection_delay`` after each "down").
        self.node_events: list[tuple[float, int, str]] = []

        # -- pre-built children for the hot instrumentation sites ----------
        self._events = self.registry.counter(
            "sim_events", "kernel events processed"
        ).labels()
        self._grant_wait = {
            cls: self.registry.histogram(
                "link_grant_wait_seconds",
                "admission wait from reservation submission to grant",
                ("cls",),
            ).labels(cls=cls.name.lower())
            for cls in FlowClass
        }
        self._fastpath = {
            key: self.registry.counter(
                "fastpath_events", "fast-path planner events", ("kind",)
            ).labels(kind=key)
            for key in COUNTER_KEYS
        }
        bytes_family = self.registry.counter(
            "link_bytes", "bytes granted on a link direction", ("link", "tier", "cls")
        )
        queue_family = self.registry.gauge(
            "link_queue_depth",
            "admission queue length, sampled at reservation release",
            ("link", "tier"),
        )
        control_family = self.registry.counter(
            "control_messages", "control-plane RPCs sent", ("link", "tier")
        )
        control_plane_family = self.registry.counter(
            "control_plane_ops",
            "durability-layer operations: WAL appends, checkpoints, "
            "replays, cross-shard directory RPCs",
            ("op",),
        )
        #: pre-built children for the control-plane durability hot paths.
        self.control_plane = {
            op: control_plane_family.labels(op=op)
            for op in ("wal_appends", "checkpoints", "replays", "shard_rpcs")
        }

        # -- install ------------------------------------------------------
        for node in cluster.nodes:
            self._install_sched(
                node.uplink_sched,
                f"n{node.node_id}/up",
                "nic",
                bytes_family,
                queue_family,
                control_family,
            )
            self._install_sched(
                node.downlink_sched,
                f"n{node.node_id}/down",
                "nic",
                bytes_family,
                queue_family,
                control_family,
            )
        for link in cluster.fabric.iter_links():
            self._install_sched(
                link.sched,
                link.name,
                link.tier,
                bytes_family,
                queue_family,
                control_family,
            )
        for node in cluster.nodes:
            node.on_failure(self._on_node_down)
            node.on_recovery(self._on_node_up)
        cluster.fastpath_stats.on_event = self._on_fastpath
        sim.on_step = self._on_step
        cluster.obs = self

    @staticmethod
    def _install_sched(sched, name, tier, bytes_family, queue_family, control_family):
        sched._obs_bytes = {
            cls: bytes_family.labels(link=name, tier=tier, cls=cls.name.lower())
            for cls in FlowClass
        }
        sched._obs_queue = queue_family.labels(link=name, tier=tier)
        sched._obs_control = control_family.labels(link=name, tier=tier)

    def detach(self) -> None:
        """Uninstall every hook (the recorded data stays readable)."""
        cluster = self.cluster
        cluster.sim.on_step = None
        cluster.fastpath_stats.on_event = None
        for node in cluster.nodes:
            for sched in (node.uplink_sched, node.downlink_sched):
                sched._obs_bytes = None
                sched._obs_queue = None
                sched._obs_control = None
        for link in cluster.fabric.iter_links():
            link.sched._obs_bytes = None
            link.sched._obs_queue = None
            link.sched._obs_control = None
        for node in cluster.nodes:
            node.remove_failure_listener(self._on_node_down)
            node.remove_recovery_listener(self._on_node_up)
        cluster.obs = None

    # -- hook bodies (called from the instrumented subsystems) -------------
    def _on_step(self, _when: float) -> None:
        self._events.inc()

    def _on_fastpath(self, key: str, n: int) -> None:
        self._fastpath[key].inc(n)

    def _on_node_down(self, node) -> None:
        self.node_events.append((self.cluster.sim._now, node.node_id, "down"))

    def _on_node_up(self, node) -> None:
        self.node_events.append((self.cluster.sim._now, node.node_id, "up"))

    def record_reservation(self, reservation) -> None:
        """Called by ``Reservation.release`` for every granted claim."""
        request = reservation.request
        self._grant_wait[reservation.flow.flow_class].observe(
            request.granted_at - reservation.created_at
        )
        for sched in (
            reservation.src.uplink_sched,
            reservation.dst.downlink_sched,
        ):
            gauge = sched._obs_queue
            if gauge is not None:
                gauge.set(sched.queue_length)
        if self.trace_transfers:
            flow = reservation.flow
            src, dst = reservation.src, reservation.dst
            span = self.tracer.start_span(
                "block",
                parent=self.tracer.span_for_flow(flow.flow_id),
                flow=flow.flow_id,
                cls=flow.flow_class.name.lower(),
                src=src.node_id,
                dst=dst.node_id,
                bytes=reservation.nbytes,
                grant_wait=request.granted_at - reservation.created_at,
                lat=path_latency(self.cluster.config, src, dst),
                links=self._span_links(src, dst),
            )
            # The span covers the reservation's whole life, submission to
            # release; recorded retroactively so the hot path stays one call.
            span.start = reservation.created_at
            span.finish("ok")

    def _span_links(self, src, dst) -> tuple:
        """The link names a src->dst block claims, for blame attribution."""
        if src is dst:
            return ()
        return (
            f"n{src.node_id}/up",
            f"n{dst.node_id}/down",
        ) + tuple(
            link.name
            for link in self.cluster.fabric.path_links(src.node_id, dst.node_id)
        )

    def record_run_start(self, run) -> None:
        """Called when a coalesced/convoy run attaches to its links."""
        if not self.trace_transfers:
            return
        flow_id = run.flow.flow_id if run.flow is not None else "untagged"
        run._obs_span = self.tracer.start_span(
            "coalesced_run",
            parent=self.tracer.span_for_flow(flow_id),
            kind=type(run).__name__,
            flow=flow_id,
            src=run.src.node_id,
            dst=run.dst.node_id,
            blocks=run.n,
            s0=run.s[0],
            arr_end=run.arr[-1],
            tx_sum=sum(run.tx),
            bytes=sum(run.sizes),
            lat=run.latency,
            links=self._span_links(run.src, run.dst),
        )

    def record_compute_run(self, run):
        """Called when a streaming compute (reduce-slot) run starts.

        Returns the span (the run finishes it) or None when transfer
        tracing is off.
        """
        if not self.trace_transfers:
            return None
        entry = run.entry
        oid = str(entry.object_id) if entry is not None else ""
        return self.tracer.start_span(
            "compute_run",
            parent=self.tracer.span_for_object(oid) if oid else None,
            object=oid,
            node=run.node.node_id,
            blocks=run.n,
            s0=run.s[0],
            end=run.end_at,
            busy=tuple(zip(run.s, run.t)),
        )
