"""Distributed reinforcement learning (Section 5.3, Figure 10).

Two algorithm families are reproduced, matching RLlib's structure:

* **samples optimization** (IMPALA-style): workers run simulation rollouts
  and ship the sample batches to the trainer; the trainer updates the policy
  and broadcasts it to the workers that just finished.
* **gradients optimization** (A3C-style): workers compute gradients of the
  64 MB policy locally; the trainer reduces a batch of gradients, applies
  the update, and broadcasts the new policy.

Both follow the dynamic wait-for-the-first-half pattern of Figure 1, so the
trainer's NIC is the bottleneck under the naive Ray plane while Hoplite's
reduce/broadcast trees remove it.
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

#: size of one rollout sample batch shipped by an IMPALA-style worker.
ROLLOUT_BYTES = 8 * 1024 * 1024
#: environment steps contributed by one rollout / one gradient.
SAMPLES_PER_ROLLOUT = 50
#: simulated time a worker spends producing one rollout or gradient.
ROLLOUT_COMPUTE_TIME = 0.25
#: simulated time the trainer spends applying one batch of updates.
TRAINER_UPDATE_TIME = 0.05


def _rollout_task(ctx, policy_value: ObjectValue) -> Generator:
    """IMPALA-style worker: simulate and return a sample batch."""
    yield ctx.compute(ROLLOUT_COMPUTE_TIME)
    return ObjectValue.of_size(ROLLOUT_BYTES)


def _gradient_task(ctx, policy_value: ObjectValue, param_bytes: int) -> Generator:
    """A3C-style worker: simulate, compute a gradient of the policy."""
    yield ctx.compute(ROLLOUT_COMPUTE_TIME)
    return ObjectValue.of_size(param_bytes)


def run_rl_training(
    num_nodes: int,
    algorithm: str = "impala",
    system: str = "hoplite",
    num_iterations: int = 10,
    model: "ModelProfile | str" = "rl_policy",
    network: Optional[NetworkConfig] = None,
    failure: Optional[FailureEvent] = None,
) -> AppResult:
    """Run IMPALA-style or A3C-style training and report samples/second."""
    algorithm = algorithm.lower()
    if algorithm not in ("impala", "a3c"):
        raise ValueError(f"unknown RL algorithm {algorithm!r}; expected 'impala' or 'a3c'")
    if isinstance(model, str):
        model = model_profile(model)
    if num_nodes < 2:
        raise ValueError("RL training needs a trainer node and at least one worker")

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

    def _submit_worker(worker: int, policy_ref, iteration: int):
        if algorithm == "impala":
            return task_system.submit(
                _rollout_task,
                args=(policy_ref,),
                node=worker,
                name=f"rollout-w{worker}-i{iteration}",
            )
        return task_system.submit(
            _gradient_task,
            args=(policy_ref, model.param_bytes),
            node=worker,
            name=f"grad-w{worker}-i{iteration}",
        )

    def driver() -> Generator:
        trainer = cluster.node(0)
        policy_ref = yield from task_system.put(
            ObjectValue.of_size(model.param_bytes), ObjectID.unique("policy")
        )
        outstanding: dict[ObjectID, tuple] = {}
        ref_by_id = {}
        for worker in worker_nodes:
            ref = _submit_worker(worker, policy_ref, 0)
            outstanding[ref.object_id] = worker
            ref_by_id[ref.object_id] = ref

        start = sim.now
        for iteration in range(num_iterations):
            iteration_start = sim.now
            consumed: list[ObjectID] = []
            if algorithm == "a3c":
                target_id = ObjectID.unique(f"rl-update-{iteration}")
                result = yield from plane.reduce(
                    trainer,
                    target_id,
                    list(outstanding.keys()),
                    ReduceOp.SUM,
                    num_objects=min(batch, len(outstanding)),
                )
                yield from plane.get(trainer, target_id)
                consumed = list(result.reduced_ids)
            else:
                refs = [ref_by_id[object_id] for object_id in outstanding]
                ready, _ = yield from task_system.wait(refs, num_returns=min(batch, len(refs)))
                for ref in ready:
                    yield from plane.get(trainer, ref.object_id)
                consumed = [ref.object_id for ref in ready]
            yield sim.timeout(TRAINER_UPDATE_TIME)
            policy_ref = yield from task_system.put(
                ObjectValue.of_size(model.param_bytes),
                ObjectID.unique(f"policy-{iteration + 1}"),
            )
            for object_id in consumed:
                worker = outstanding.pop(object_id, None)
                ref_by_id.pop(object_id, None)
                if worker is None:
                    continue
                ref = _submit_worker(worker, policy_ref, iteration + 1)
                outstanding[ref.object_id] = worker
                ref_by_id[ref.object_id] = ref
            iteration_latencies.append(sim.now - iteration_start)
        summary["duration"] = sim.now - start

    sim.process(driver(), name=f"rl-{algorithm}-driver")
    cluster.run()

    duration = summary.get("duration", sim.now)
    samples = num_iterations * batch * SAMPLES_PER_ROLLOUT
    throughput = samples / duration if duration > 0 else 0.0
    return AppResult(
        app=f"rl_{algorithm}",
        system=system,
        num_nodes=num_nodes,
        duration=duration,
        throughput=throughput,
        iteration_latencies=iteration_latencies,
        metrics={
            "algorithm": algorithm,
            "policy_bytes": model.param_bytes,
            "batch": batch,
            "samples": samples,
            **task_system.metrics.as_dict(),
        },
    )
