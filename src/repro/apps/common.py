"""Shared plumbing for the application-level experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence

from repro.collectives.naive import DASK_PROFILE, RAY_PROFILE, TaskSystemPlane
from repro.collectives.plane import CommPlane, HoplitePlane
from repro.core.options import HopliteOptions
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.transport import TransferError
from repro.store.objects import ObjectID, ObjectValue


PLANE_SYSTEMS = ("hoplite", "ray", "dask")


@dataclass
class AppResult:
    """Outcome of one application run."""

    app: str
    system: str
    num_nodes: int
    duration: float
    throughput: float
    #: per-iteration (or per-query) completion latencies, in order.
    iteration_latencies: list[float] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "app": self.app,
            "system": self.system,
            "num_nodes": self.num_nodes,
            "duration": self.duration,
            "throughput": self.throughput,
            "iterations": len(self.iteration_latencies),
            **self.metrics,
        }


def make_cluster(num_nodes: int, network: Optional[NetworkConfig] = None) -> Cluster:
    return Cluster(num_nodes=num_nodes, network=network or NetworkConfig())


def make_plane(system: str, cluster: Cluster, options: Optional[HopliteOptions] = None) -> CommPlane:
    """Build the communication plane for an application run."""
    if system == "hoplite":
        return HoplitePlane(HopliteRuntime(cluster, options=options))
    if system == "ray":
        return TaskSystemPlane(cluster, RAY_PROFILE)
    if system == "dask":
        return TaskSystemPlane(cluster, DASK_PROFILE)
    raise ValueError(f"unknown plane system {system!r}; expected one of {PLANE_SYSTEMS}")


def reconstruct_on_recovery(
    cluster: Cluster,
    plane: CommPlane,
    node_id: int,
    objects: Sequence[tuple[ObjectID, ObjectValue]],
) -> Generator:
    """Framework-style object reconstruction: re-``Put`` after every rejoin.

    The paper delegates reconstruction of lost objects to the task
    framework's lineage re-execution (Section 6); this process stands in for
    it wherever failures are injected.  Re-putting an object that survived
    elsewhere is harmless — ``Put`` is idempotent per ObjectID.
    """
    sim = cluster.sim
    node = cluster.node(node_id)
    while True:
        yield node.failure_event()
        yield node.recovery_event()
        for object_id, value in objects:
            while node.alive:
                try:
                    yield from plane.put(node, object_id, value)
                    break
                except TransferError:
                    yield sim.timeout(cluster.config.failure_detection_delay)


def retry_across_failures(
    cluster: Cluster,
    node_id: int,
    attempt: Callable[[], Generator],
    on_retry: Optional[Callable[[], None]] = None,
) -> Generator:
    """Drive one participant's share of a collective, retrying across failures.

    Re-runs ``attempt`` until it completes: after the participant's own node
    fails, the retry waits for the rejoin; transient errors while the node is
    alive back off by one failure-detection delay.  Returns the successful
    attempt's result.
    """
    sim = cluster.sim
    node = cluster.node(node_id)
    while True:
        try:
            if not node.alive:
                yield node.recovery_event()
            result = yield from attempt()
            return result
        except TransferError:
            if on_retry is not None:
                on_retry()
            if node.alive:
                yield sim.timeout(cluster.config.failure_detection_delay)
