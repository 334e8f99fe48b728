"""Asynchronous SGD with a parameter server (Section 5.2, Figures 9 and 12b).

The driver (node 0) holds the parameters.  Every worker repeatedly fetches
the current weights, computes a gradient on its shard of data, and publishes
the gradient object.  Each server iteration reduces the first
``ceil(workers / 2)`` gradients to become available, applies the update, and
broadcasts the new weights to exactly the workers whose gradients were
consumed — the dynamic pattern of Figure 1b.

With Hoplite the reduce is a streaming tree reduce and the broadcast is
receiver driven; with the Ray/Dask plane the parameter server fetches every
gradient itself and every worker fetches the weights from the server, which
saturates the server's NIC — the bottleneck the paper identifies.
"""

from __future__ import annotations

import math
from typing import Generator, Optional

from repro.apps.common import AppResult, make_cluster, make_plane
from repro.net.config import NetworkConfig
from repro.net.failure import FailureEvent, schedule
from repro.store.objects import ObjectID, ObjectValue, ReduceOp
from repro.tasksys.system import TaskSystem
from repro.workloads.models import ModelProfile, model_profile


def _gradient_task(ctx, weights_value: ObjectValue, model: ModelProfile) -> Generator:
    """One worker round: consume the weights, compute, emit a gradient."""
    yield ctx.compute(model.round_compute_time)
    return ObjectValue.of_size(model.param_bytes)


def run_async_sgd(
    num_nodes: int,
    model: "ModelProfile | str",
    system: str = "hoplite",
    num_iterations: int = 10,
    network: Optional[NetworkConfig] = None,
    failure: Optional[FailureEvent] = None,
    server_update_time: float = 0.01,
) -> AppResult:
    """Run the asynchronous parameter-server workload and report throughput."""
    if isinstance(model, str):
        model = model_profile(model)
    if num_nodes < 2:
        raise ValueError("async SGD needs a server node and at least one worker")
    cluster = make_cluster(num_nodes, network)
    plane = make_plane(system, cluster)
    if failure is not None:
        schedule(cluster, [failure])
    task_system = TaskSystem(cluster, plane)
    sim = cluster.sim

    worker_nodes = list(range(1, num_nodes))
    batch = max(1, math.ceil(len(worker_nodes) / 2))
    iteration_latencies: list[float] = []
    summary: dict = {}

    def driver() -> Generator:
        server = cluster.node(0)
        weights_ref = yield from task_system.put(
            ObjectValue.of_size(model.param_bytes), ObjectID.unique("weights")
        )
        # Kick off one gradient task per worker against the initial weights.
        outstanding: dict[ObjectID, int] = {}
        for worker in worker_nodes:
            ref = task_system.submit(
                _gradient_task,
                args=(weights_ref, model),
                node=worker,
                name=f"grad-w{worker}",
            )
            outstanding[ref.object_id] = worker

        start = sim.now
        for iteration in range(num_iterations):
            iteration_start = sim.now
            target_id = ObjectID.unique(f"update-{iteration}")
            result = yield from plane.reduce(
                server,
                target_id,
                list(outstanding.keys()),
                ReduceOp.SUM,
                num_objects=min(batch, len(outstanding)),
            )
            yield from plane.get(server, target_id)
            yield sim.timeout(server_update_time)
            weights_ref = yield from task_system.put(
                ObjectValue.of_size(model.param_bytes),
                ObjectID.unique(f"weights-{iteration + 1}"),
            )
            # Restart exactly the workers whose gradients were consumed.
            for object_id in result.reduced_ids:
                worker = outstanding.pop(object_id, None)
                if worker is None:
                    continue
                ref = task_system.submit(
                    _gradient_task,
                    args=(weights_ref, model),
                    node=worker,
                    name=f"grad-w{worker}-i{iteration + 1}",
                )
                outstanding[ref.object_id] = worker
            iteration_latencies.append(sim.now - iteration_start)
        summary["duration"] = sim.now - start

    sim.process(driver(), name="async-sgd-driver")
    cluster.run()

    duration = summary.get("duration", sim.now)
    samples = num_iterations * batch * model.samples_per_round
    throughput = samples / duration if duration > 0 else 0.0
    return AppResult(
        app="async_sgd",
        system=system,
        num_nodes=num_nodes,
        duration=duration,
        throughput=throughput,
        iteration_latencies=iteration_latencies,
        metrics={
            "model": model.name,
            "batch": batch,
            "samples": samples,
            **task_system.metrics.as_dict(),
        },
    )
