"""The benchmark's four workloads, built from a seed.

A workload is a list of :class:`Cell` s; one *pass* runs every cell once,
sequentially, from one thread (a closed loop on the host).  Each cell calls
the public scenario entry points (``repro.bench.scenarios.measure_*``,
``repro.bench.fleet.run_fleet``) and returns an :class:`Outcome`: the
simulated completion of every collective or job it ran, its ratio to the
analytic optimum, fault slowdowns, and the number of *logical blocks* its
inputs require delivered (retransmissions after faults not counted).

The seed only perturbs what the paper's system must cope with anyway —
source-selection tie-breaks, arrival jitter, fleet draws and failure
times — so the amount of work per pass stays the same across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable

import numpy as np

from repro.bench.fleet import run_fleet
from repro.bench.scenarios import (
    measure_allgather,
    measure_allreduce,
    measure_alltoall,
    measure_broadcast,
    measure_control_plane_failure,
    measure_driver_failure,
    measure_gather,
    measure_reduce,
    rack_interleaved_delays,
)
from repro.core.options import HopliteOptions
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.failure import FailureEvent
from repro.net.topology import Topology
from repro.store.objects import ObjectID, ObjectValue, ReduceOp

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

MEASURES = {
    "broadcast": measure_broadcast,
    "gather": measure_gather,
    "reduce": measure_reduce,
    "allreduce": measure_allreduce,
    "allgather": measure_allgather,
    "alltoall": measure_alltoall,
}

#: 1 Gbps, so node failures land mid-transfer.
SLOW = NetworkConfig(bandwidth=1.25e8)


def logical_blocks(kind: str, n: int, nbytes: int, network: NetworkConfig | None = None) -> int:
    """Blocks a collective's inputs require delivered, e.g. ceil(S/4 MB) x receivers."""
    per_object = (network or NetworkConfig()).num_blocks(nbytes)
    receivers = {
        "broadcast": n - 1,
        "gather": n - 1,
        "reduce": n - 1,
        "allreduce": 2 * (n - 1),
        "allgather": n * (n - 1),
        "alltoall": n * (n - 1),
    }[kind]
    return per_object * receivers


@dataclass
class Outcome:
    """What one cell produced; every list is in simulated units."""

    #: collectives or jobs the cell ran.
    ops: int = 0
    blocks: int = 0
    #: completion minus arrival of every collective/job.
    latencies: list = field(default_factory=list)
    #: Hoplite simulated latency over its analytic optimum.
    x_optimal: list = field(default_factory=list)
    #: faulted over fault-free completion of the same instance.
    slowdowns: list = field(default_factory=list)
    #: WAL-replay completion over the static-restart completion.
    replay_ratios: list = field(default_factory=list)


@dataclass(frozen=True)
class Cell:
    name: str
    #: collectives/jobs counted as failed if the cell raises.
    ops: int
    run: Callable[[], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    cells: list
    #: fabric the value-carrying canary runs on.
    canary_network: NetworkConfig


def _collective(kind, system, n, nbytes, network=None, options=None, **kwargs) -> Cell:
    measure = MEASURES[kind]

    def run() -> Outcome:
        latency = measure(system, n, nbytes, network=network, options=options, **kwargs)
        out = Outcome(ops=1, blocks=logical_blocks(kind, n, nbytes, network), latencies=[latency])
        if system == "hoplite":
            out.x_optimal.append(latency / measure("optimal", n, nbytes, network=network))
        return out

    return Cell(f"{kind}_{nbytes // MB}MB_{n}n_{system}", 1, run)


# ---------------------------------------------------------------------------
# contended
# ---------------------------------------------------------------------------


def contended(seed: int) -> Workload:
    options = HopliteOptions(source_selection_seed=seed)
    return Workload(
        "contended",
        [
            _collective("allgather", "hoplite", 16, 32 * MB, options=options),
            _collective("alltoall", "hoplite", 16, 32 * MB, options=options),
            _collective("allreduce", "hoplite", 32, 256 * MB, options=options),
            _collective("gather", "hoplite", 64, 32 * MB, options=options),
            _collective("allgather", "openmpi", 16, 32 * MB),
            _collective("allreduce", "gloo", 16, 256 * MB),
        ],
        NetworkConfig(),
    )


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def pipeline(seed: int) -> Workload:
    options = HopliteOptions(source_selection_seed=seed)
    rng = Random(seed)
    racks, per_rack, eps = 4, 8, 2e-4
    topo_net = NetworkConfig(topology=Topology.racks(racks, per_rack, oversubscription=4.0))
    topo_opts = HopliteOptions(source_selection_seed=seed, topology_aware=True)
    # Jitter below half the interleave spacing keeps the rack-interleaved order.
    delays = [d + rng.uniform(0.0, eps / 2) for d in rack_interleaved_delays(racks, per_rack, eps)]
    n = racks * per_rack
    return Workload(
        "pipeline",
        [
            _collective("broadcast", "hoplite", 64, GB, options=options),
            _collective("reduce", "hoplite", 64, GB, options=options),
            _collective("broadcast", "hoplite", 128, GB, options=options),
            _collective("reduce", "hoplite", 128, GB, options=options),
            _collective(
                "broadcast", "hoplite", n, 32 * MB, network=topo_net,
                options=topo_opts, arrival_delays=delays[1:],
            ),
            _collective(
                "allreduce", "hoplite", n, 32 * MB, network=topo_net,
                options=topo_opts, arrival_delays=delays,
            ),
        ],
        NetworkConfig(topology=Topology.racks(2, 2, oversubscription=4.0)),
    )


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------

FLEET_JOBS = 64
FLEET_RACKS = 8
FLEET_PER_RACK = 8
FLEET_SEEDS_PER_PASS = 2


def _fleet_job_cost(spec) -> tuple[float, int]:
    """(analytic optimum in simulated seconds, logical blocks) of one fleet job.

    Mirrors the job bodies in ``repro.bench.fleet``: rounds run back to
    back, so the optimum of a job is the sum of its rounds' optima.
    """
    n = len(spec.nodes)
    size = spec.payload_bytes
    if spec.kind == "training":
        parts = [("allreduce", n, size)]
    elif spec.kind == "serving":
        parts = [("broadcast", n, size), ("gather", n, max(KB, size // 32))]
    elif spec.kind == "moe":
        parts = [("alltoall", n, size)]
    else:  # rl
        parts = [("broadcast", n, size), ("gather", n, max(KB, size // 4))]
    optimum = sum(MEASURES[kind]("optimal", m, s) for kind, m, s in parts)
    blocks = sum(logical_blocks(kind, m, s) for kind, m, s in parts)
    return spec.rounds * optimum, spec.rounds * blocks


def _fleet_cell(fleet_seed: int) -> Cell:
    def run() -> Outcome:
        result = run_fleet(
            num_jobs=FLEET_JOBS,
            num_racks=FLEET_RACKS,
            nodes_per_rack=FLEET_PER_RACK,
            seed=fleet_seed,
            observe=False,
        )
        missing = [s.name for s in result.specs if s.name not in result.completions]
        if missing:
            raise RuntimeError(f"fleet jobs did not complete: {missing[:5]}")
        out = Outcome(ops=len(result.specs))
        for spec in result.specs:
            latency = result.completions[spec.name] - spec.arrival
            optimum, blocks = _fleet_job_cost(spec)
            out.latencies.append(latency)
            out.x_optimal.append(latency / optimum)
            out.blocks += blocks
        return out

    return Cell(f"fleet_{FLEET_JOBS}jobs_seed{fleet_seed}", FLEET_JOBS, run)


def fleet(seed: int) -> Workload:
    return Workload(
        "fleet",
        [_fleet_cell(FLEET_SEEDS_PER_PASS * seed + k) for k in range(FLEET_SEEDS_PER_PASS)],
        NetworkConfig(topology=Topology.racks(2, 2, oversubscription=4.0, zones=(0, 1))),
    )


# ---------------------------------------------------------------------------
# faults
# ---------------------------------------------------------------------------

FAULT_NODES = 16
FAULT_BYTES = 16 * MB
#: the control-plane kills run on a smaller allgather: replay cost scales
#: with the WAL tail, not the node count, and the pass stays short.
CONTROL_PLANE_NODES = 8
#: node failures per faulted run, landing near these fractions of the
#: fault-free completion (each jittered by +/- FAILURE_JITTER).
FAILURE_FRACTIONS = (0.3, 0.6)
FAILURE_JITTER = 0.05
DOWNTIME = 0.2


def _failure_schedule(seed: int, horizon: float) -> list:
    """Seeded node failures that land mid-transfer of a ``horizon``-long run.

    The count and rough timing are fixed and the seed picks the nodes and
    jitters the times: a Poisson draw of the count made the slowdown vary
    by ~22% between seeds, more than any bound the benchmark can afford.
    """
    rng = Random(seed)
    nodes = rng.sample(range(FAULT_NODES), len(FAILURE_FRACTIONS))
    events = []
    for node_id, fraction in zip(nodes, FAILURE_FRACTIONS):
        at = (fraction + rng.uniform(-FAILURE_JITTER, FAILURE_JITTER)) * horizon
        events.append(FailureEvent(node_id=node_id, fail_at=at, recover_at=at + DOWNTIME))
    return events


def _node_failure_cell(kind: str, seed: int, options: HopliteOptions) -> Cell:
    measure = MEASURES[kind]

    def run() -> Outcome:
        free = measure("hoplite", FAULT_NODES, FAULT_BYTES, network=SLOW, options=options)
        faulted = measure(
            "hoplite", FAULT_NODES, FAULT_BYTES, network=SLOW, options=options,
            failures=_failure_schedule(seed, free),
        )
        optimum = measure("optimal", FAULT_NODES, FAULT_BYTES, network=SLOW)
        return Outcome(
            ops=2,
            blocks=2 * logical_blocks(kind, FAULT_NODES, FAULT_BYTES, SLOW),
            latencies=[free, faulted],
            x_optimal=[free / optimum],
            slowdowns=[faulted / free],
        )

    return Cell(f"{kind}_node_failures", 2, run)


def _driver_cell(options: HopliteOptions) -> Cell:
    def run() -> Outcome:
        args = ("hoplite", FAULT_NODES, FAULT_BYTES)
        free = measure_driver_failure(*args, network=SLOW, options=options)
        faulted = measure_driver_failure(
            *args, fail_at=0.5 * free, network=SLOW, options=options
        )
        return Outcome(
            ops=2,
            blocks=2 * logical_blocks("allreduce", FAULT_NODES, FAULT_BYTES, SLOW),
            latencies=[free, faulted],
            slowdowns=[faulted / free],
        )

    return Cell("driver_root_kill", 2, run)


def _control_plane_cell(target: str, options: HopliteOptions) -> Cell:
    def run() -> Outcome:
        stats: dict = {}
        faulted = measure_control_plane_failure(
            CONTROL_PLANE_NODES, FAULT_BYTES, target=target, fail_fraction=0.5,
            network=SLOW, options=options, stats=stats,
        )
        free = stats["baseline"]
        return Outcome(
            ops=2,
            blocks=2 * logical_blocks("allgather", CONTROL_PLANE_NODES, FAULT_BYTES, SLOW),
            latencies=[free, faulted],
            slowdowns=[faulted / free],
            replay_ratios=[faulted / stats["static_restart"]],
        )

    return Cell(f"control_plane_kill_{target}", 2, run)


def faults(seed: int) -> Workload:
    options = HopliteOptions(source_selection_seed=seed)
    return Workload(
        "faults",
        [
            _node_failure_cell("allgather", 2 * seed, options),
            _node_failure_cell("alltoall", 2 * seed + 1, options),
            _driver_cell(options),
            _control_plane_cell("directory", options),
            _control_plane_cell("lineage", options),
            _control_plane_cell("both", options),
        ],
        SLOW,
    )


WORKLOADS = {"contended": contended, "pipeline": pipeline, "fleet": fleet, "faults": faults}


# ---------------------------------------------------------------------------
# value-carrying canary
# ---------------------------------------------------------------------------

CANARY_NODES = 4


def run_canary(seed: int, network: NetworkConfig) -> list[str]:
    """Put real numpy payloads through reduce, allreduce and alltoall.

    Returns the list of mismatches (empty when every result equals numpy's).
    """
    n = CANARY_NODES
    rng = np.random.default_rng(seed)
    # Integer-valued float64 sums are exact in any order.
    arrays = [rng.integers(-1000, 1000, size=64).astype(np.float64) for _ in range(n)]
    pair = {
        (s, d): rng.integers(-1000, 1000, size=16).astype(np.float64)
        for s in range(n)
        for d in range(n)
        if s != d
    }
    logical = 2 * network.block_size + 12345  # three blocks, so transfers pipeline
    cluster = Cluster(num_nodes=n, network=network)
    runtime = HopliteRuntime(cluster, options=HopliteOptions(source_selection_seed=seed))
    sim = cluster.sim
    sources = [ObjectID.of(f"canary-src-{i}") for i in range(n)]
    reduce_target = ObjectID.of("canary-reduce")
    allreduce_target = ObjectID.of("canary-allreduce")
    pair_ids = {key: ObjectID.of(f"canary-a2a-{key[0]}-{key[1]}") for key in pair}
    got: dict = {"reduce": None, "allreduce": {}, "alltoall": {}}

    def participant(node_id: int):
        client = runtime.client(node_id)
        yield from client.put(
            sources[node_id], ObjectValue.from_array(arrays[node_id], logical_size=logical)
        )
        if node_id == 0:
            yield from client.reduce(reduce_target, sources, ReduceOp.SUM)
            value = yield from client.get(reduce_target)
            got["reduce"] = value.as_array()
            _, value = yield from client.allreduce(allreduce_target, sources, ReduceOp.SUM)
        else:
            value = yield from client.get(allreduce_target)
        got["allreduce"][node_id] = value.as_array()
        sends = [
            (
                pair_ids[(node_id, d)],
                ObjectValue.from_array(pair[(node_id, d)], logical_size=logical),
            )
            for d in range(n)
            if d != node_id
        ]
        recv_ids = [pair_ids[(s, node_id)] for s in range(n) if s != node_id]
        result = yield from client.alltoall(sends, recv_ids)
        for object_id, value in zip(result.recv_ids, result.values):
            got["alltoall"][object_id] = value.as_array()

    for node_id in range(n):
        sim.process(participant(node_id), name=f"canary-{node_id}")
    cluster.run(until=600.0)

    expected = np.sum(arrays, axis=0)
    errors = []
    if got["reduce"] is None or not np.array_equal(got["reduce"], expected):
        errors.append("reduce result differs from numpy")
    for node_id in range(n):
        value = got["allreduce"].get(node_id)
        if value is None or not np.array_equal(value, expected):
            errors.append(f"allreduce result at node {node_id} differs from numpy")
    for key, object_id in pair_ids.items():
        value = got["alltoall"].get(object_id)
        if value is None or not np.array_equal(value, pair[key]):
            errors.append(f"alltoall block {key} differs from its source")
    return errors
