"""The simulated cluster: a simulator plus a set of nodes and failure control."""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.net.config import ClusterSpec, NetworkConfig
from repro.net.fastpath import FastpathStats
from repro.net.node import Node
from repro.net.topology import Fabric, Topology
from repro.sim import Simulator

#: Optional module-level hook called with every fully constructed Cluster.
#: Harnesses that need to observe clusters built deep inside scenario code
#: (the differential fuzzer's flight recordings, the perf basket's
#: critical-path pass) install it around a run; ``None`` (the default)
#: costs one branch per cluster construction.
ON_CREATE: Optional[Callable[["Cluster"], None]] = None


class Cluster:
    """A cluster of simulated nodes on a (possibly hierarchical) fabric.

    The cluster owns the :class:`~repro.sim.Simulator` so that every
    subsystem built on top (object stores, the directory, Hoplite, the
    baselines, and the task system) shares a single virtual clock.  The
    fabric defaults to :meth:`Topology.flat` (the paper's uniform testbed);
    a hierarchical :class:`~repro.net.topology.Topology` — passed directly
    or through ``NetworkConfig(topology=...)`` — instantiates shared rack
    and zone aggregation links that cross-tier reservations must claim.

    Example::

        cluster = Cluster(num_nodes=16)
        cluster.run()           # drain all scheduled work
        print(cluster.now)      # simulated seconds elapsed
    """

    def __init__(
        self,
        num_nodes: int = 4,
        network: Optional[NetworkConfig] = None,
        workers_per_node: int = 4,
        simulator: Optional[Simulator] = None,
        topology: Optional[Topology] = None,
    ):
        if num_nodes <= 0:
            raise ValueError("a cluster needs at least one node")
        self.config = network or NetworkConfig()
        self.topology = topology or self.config.topology or Topology.flat(num_nodes)
        if self.topology.num_nodes != num_nodes:
            raise ValueError(
                f"topology spans {self.topology.num_nodes} nodes "
                f"but the cluster has {num_nodes}"
            )
        self.spec = ClusterSpec(
            num_nodes=num_nodes,
            workers_per_node=workers_per_node,
            network=self.config,
        )
        self.sim = simulator or Simulator()
        self.fabric = Fabric(self.sim, self.topology, self.config)
        #: fast-path counters, scoped to this cluster (see repro.net.fastpath).
        self.fastpath_stats = FastpathStats()
        #: observability plane, or None when disabled (the default: every
        #: instrumentation site guards on ``cluster.obs is not None``).
        self.obs = None
        #: flight recorder, or None when disabled (the default: every
        #: instrumentation site guards on ``cluster.flight is not None``).
        self.flight = None
        #: event-locality analyzer, or None when disabled (the default:
        #: tagging sites guard on ``sim.locality is not None``).
        self.locality = None
        #: the observers' per-pop hooks, in install order (see _set_pop_hooks).
        self._pop_hooks: tuple = ()
        self.nodes: list[Node] = [
            Node(self.sim, node_id, cluster=self) for node_id in range(num_nodes)
        ]
        if ON_CREATE is not None:
            ON_CREATE(self)

    def enable_observability(self, window: float = 0.1, trace_transfers: bool = False):
        """Install (and return) the observability plane for this cluster.

        Purely observational: metrics record against simulated time without
        scheduling events, so enabling it never changes simulated results
        (locked down by the differential test in ``tests/test_fleet.py``).
        """
        from repro.obs import Observability

        if self.obs is None:
            Observability(self, window=window, trace_transfers=trace_transfers)
        return self.obs

    def enable_flight_recorder(self, capacity: Optional[int] = None):
        """Install (and return) the flight recorder for this cluster.

        Purely observational, like the metrics plane: records are stamped
        with simulated time but never schedule events, so recording changes
        no simulated result (locked down by the ``--flight`` differential
        fuzz band).
        """
        from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder

        if self.flight is None:
            recorder = FlightRecorder(
                self.sim, capacity=capacity if capacity is not None else DEFAULT_CAPACITY
            )
            self._set_pop_hooks(self._pop_hooks + (recorder.record_pop,))
            self.flight = recorder
        return self.flight

    def disable_flight_recorder(self) -> None:
        """Uninstall the recorder (its recorded ring stays readable).

        Only the recorder's pop hook is removed: a locality analyzer keeps
        seeing every pop whether it was installed before or after.
        """
        if self.flight is not None:
            record_pop = self.flight.record_pop
            self._set_pop_hooks(tuple(h for h in self._pop_hooks if h != record_pop))
            self.flight = None

    def enable_locality_analyzer(self):
        """Install (and return) the event-locality analyzer.

        Chains onto ``sim.on_pop`` if a flight recorder already holds it
        (both hooks see every pop).  Tagging writes one inert slot per
        event; simulated results are unchanged (same fuzz band as above).
        """
        from repro.obs.locality import LocalityAnalyzer

        if self.locality is None:
            analyzer = LocalityAnalyzer(self)
            self._set_pop_hooks(self._pop_hooks + (analyzer.on_pop,))
            self.locality = analyzer
            self.sim.locality = analyzer
        return self.locality

    def _set_pop_hooks(self, hooks: tuple) -> None:
        """Install ``hooks`` as ``sim.on_pop``, each called on every pop in order."""
        self._pop_hooks = hooks
        if not hooks:
            self.sim.on_pop = None
        elif len(hooks) == 1:
            self.sim.on_pop = hooks[0]
        else:

            def _chained(when, seq, event):
                for hook in hooks:
                    hook(when, seq, event)

            self.sim.on_pop = _chained

    # -- convenience --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def now(self) -> float:
        return self.sim.now

    def alive_nodes(self) -> list[Node]:
        return [node for node in self.nodes if node.alive]

    def run(self, until=None):
        """Advance the simulation (see :meth:`repro.sim.Simulator.run`)."""
        return self.sim.run(until)

    def process(self, generator, name: str = ""):
        """Spawn a process on the cluster's simulator."""
        return self.sim.process(generator, name=name)

    # -- failure injection ----------------------------------------------------
    def fail_node(self, node_id: int) -> None:
        """Fail a node immediately (at the current simulated time)."""
        self.nodes[node_id].fail()

    def recover_node(self, node_id: int) -> None:
        """Recover a previously failed node immediately."""
        self.nodes[node_id].recover()

    def schedule_failure(self, node_id: int, at: float, recover_at: Optional[float] = None) -> None:
        """Schedule a failure (and optional recovery) at absolute simulated times."""
        if at < self.sim.now:
            raise ValueError("cannot schedule a failure in the past")
        if recover_at is not None and recover_at < at:
            raise ValueError("recovery must not precede the failure")

        def _failure_process(sim):
            yield sim.timeout(at - sim.now)
            self.fail_node(node_id)
            if recover_at is not None:
                yield sim.timeout(recover_at - sim.now)
                self.recover_node(node_id)

        self.sim.process(_failure_process(self.sim), name=f"failure-injector-{node_id}")

    def schedule_failures(self, failures: Iterable[tuple[int, float, Optional[float]]]) -> None:
        """Schedule several ``(node_id, fail_at, recover_at)`` failures."""
        for node_id, at, recover_at in failures:
            self.schedule_failure(node_id, at, recover_at)
