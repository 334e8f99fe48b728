"""Serving an ensemble of ML models (Section 5.4, Figures 11 and 12a).

Eight image-classification models are served, one model per node on an
8-node cluster or one model on each of two replica nodes on a 16-node
cluster.  Every query carries a batch of 64 images; the query object is
broadcast to every serving node, each node runs its model, and the small
per-model predictions are gathered back for a majority vote.

The broadcast of the query batch is the communication that matters: with the
naive plane the frontend's uplink serializes one copy per model node, while
Hoplite relays the query through the earlier receivers.

For the fault-tolerance experiment a failure schedule can be attached: the
failed replica is skipped while it is down (queries keep completing, as in
Figure 12a) and, after it rejoins, its first query re-fetches the model
weights it lost, producing the brief latency bump the paper shows.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.apps.common import AppResult, make_cluster, make_plane
from repro.net.config import NetworkConfig
from repro.net.failure import FailureEvent, schedule
from repro.store.objects import ObjectID, ObjectValue
from repro.tasksys.system import TaskError, TaskSystem
from repro.workloads.models import SERVING_ENSEMBLE, SERVING_QUERY_BYTES, model_profile

#: size of one model's classification output for a 64-image batch.
PREDICTION_BYTES = 64 * 1024


def _inference_task(ctx, query_value: ObjectValue, weights_value: ObjectValue, inference_time: float) -> Generator:
    """Run one model on the query batch and emit its predictions."""
    yield ctx.compute(inference_time)
    return ObjectValue.of_size(PREDICTION_BYTES)


def run_model_serving(
    num_nodes: int,
    system: str = "hoplite",
    num_queries: int = 20,
    ensemble: Sequence[str] = SERVING_ENSEMBLE,
    network: Optional[NetworkConfig] = None,
    failure: Optional[FailureEvent] = None,
    query_bytes: int = SERVING_QUERY_BYTES,
) -> AppResult:
    """Serve ``num_queries`` ensemble queries and report queries/second."""
    if num_nodes < len(ensemble):
        raise ValueError(
            f"need at least {len(ensemble)} nodes to serve {len(ensemble)} models"
        )
    cluster = make_cluster(num_nodes, network)
    plane = make_plane(system, cluster)
    if failure is not None:
        schedule(cluster, [failure])
    task_system = TaskSystem(cluster, plane)
    sim = cluster.sim

    profiles = [model_profile(name) for name in ensemble]
    # Replica placement: round-robin models over nodes, so the 8-node cluster
    # serves one replica per model and the 16-node cluster serves two.
    replicas: list[tuple[int, int]] = []  # (model_index, node_id)
    for node_id in range(num_nodes):
        replicas.append((node_id % len(profiles), node_id))

    query_latencies: list[float] = []
    summary: dict = {}

    def driver() -> Generator:
        frontend = cluster.node(0)
        # Each replica loads (Puts) its model weights once at start-up.
        weight_ids: dict[int, ObjectID] = {}
        weight_incarnations: dict[int, int] = {}

        def _load_weights(node_id: int, model_index: int) -> Generator:
            profile = profiles[model_index]
            weights_id = ObjectID.unique(f"weights-{profile.name}-n{node_id}")
            yield from plane.put(
                cluster.node(node_id), weights_id, ObjectValue.of_size(profile.param_bytes)
            )
            weight_ids[node_id] = weights_id
            weight_incarnations[node_id] = cluster.node(node_id).incarnation

        for model_index, node_id in replicas:
            yield from _load_weights(node_id, model_index)

        start = sim.now
        for query_index in range(num_queries):
            query_start = sim.now
            query_id = ObjectID.unique(f"query-{query_index}")
            yield from plane.put(frontend, query_id, ObjectValue.of_size(query_bytes))

            prediction_refs = []
            for model_index, node_id in replicas:
                node = cluster.node(node_id)
                if not node.alive:
                    continue  # skip failed replicas; the vote proceeds without them
                if weight_incarnations.get(node_id) != node.incarnation:
                    # The replica rejoined after a failure: reload its weights.
                    yield from _load_weights(node_id, model_index)
                profile = profiles[model_index]
                ref = task_system.submit(
                    _inference_task,
                    args=(
                        task_system_ref(query_id),
                        task_system_ref(weight_ids[node_id]),
                        profile.inference_time,
                    ),
                    node=node_id,
                    name=f"infer-{profile.name}-q{query_index}",
                    max_restarts=0,
                )
                prediction_refs.append(ref)

            # Gather whatever predictions complete; replicas that die
            # mid-query are simply excluded from this query's vote.
            for ref in prediction_refs:
                try:
                    yield from task_system.wait([ref], num_returns=1)
                    yield from task_system.get(ref)
                except TaskError:
                    continue
            yield sim.timeout(0.001)  # majority vote
            query_latencies.append(sim.now - query_start)
        summary["duration"] = sim.now - start

    sim.process(driver(), name="serving-driver")
    cluster.run()

    duration = summary.get("duration", sim.now)
    throughput = num_queries / duration if duration > 0 else 0.0
    return AppResult(
        app="model_serving",
        system=system,
        num_nodes=num_nodes,
        duration=duration,
        throughput=throughput,
        iteration_latencies=query_latencies,
        metrics={
            "ensemble_size": len(profiles),
            "replicas": len(replicas),
            "query_bytes": query_bytes,
            **task_system.metrics.as_dict(),
        },
    )


def task_system_ref(object_id: ObjectID):
    """Wrap a raw ObjectID as an argument reference for a task submission."""
    from repro.tasksys.refs import ObjectRef

    return ObjectRef(object_id=object_id, producer_task_id=None)
