"""Golden determinism digests for the simulation kernel.

The simulator is deterministic: a seeded scenario must produce bit-identical
results run after run — and, critically, *refactor after refactor*.  The
perf work on the kernel (coalesced block transfers, incremental admission
matching, memoized fabric paths) is only admissible because these digests
pin the simulated results: a fast path that changes a completion time, a
per-tier byte count, or the global ObjectID allocation order is a behaviour
change, not an optimization.

A digest hashes, for one scenario run:

* every completion time the scenario reports (full ``repr`` precision);
* the per-link and per-tier byte counters from
  :func:`~repro.bench.scenarios.collect_flow_usage` (integers — exact);
* the control-message count;
* the state of the process-global ObjectID counter after the run (the
  allocation *order* is schedule-sensitive, so this catches reordered
  control flow that happens to produce the same latencies).

``tests/test_golden_determinism.py`` asserts these digests against values
recorded before the fast-path refactor.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.net.config import NetworkConfig
from repro.net.failure import poisson_failures
from repro.net.topology import Topology

MB = 1024 * 1024


def _reset_object_ids() -> None:
    from repro.store.objects import reset_id_counter

    reset_id_counter()


def _object_id_state() -> str:
    """The next ObjectID ordinal, without consuming it."""
    from repro.store import objects as objects_module

    return repr(objects_module._id_counter)


def _flow_fingerprint(stats: dict) -> list:
    """The schedule-exact integer counters of one run's flow usage."""
    parts: list = []
    for link in stats["links"]:
        parts.append(
            (
                link.node_id,
                link.direction,
                link.tier,
                tuple(sorted(link.bytes_by_class.items())),
            )
        )
    parts.append(tuple(sorted(stats["bytes_by_class"].items())))
    parts.append(tuple(sorted(stats["tier_bytes"].items())))
    parts.append(stats["control_messages"])
    return parts


def _digest(parts: list) -> str:
    payload = "\n".join(repr(part) for part in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def golden_fig7_cell() -> str:
    """One flat fig7-style cell: four collectives, object plane + static.

    8 nodes, 32 MB objects on the default flat fabric — every transfer rides
    the flow-scheduled transport, the broadcast trees pipeline through
    partial sources, and the static baselines stream whole objects.
    """
    from repro.bench.scenarios import (
        measure_allgather,
        measure_allreduce,
        measure_alltoall,
        measure_broadcast,
    )

    _reset_object_ids()
    parts: list = []
    for label, run in (
        ("bcast-hoplite", lambda s: measure_broadcast("hoplite", 8, 32 * MB, flow_stats=s)),
        ("allred-hoplite", lambda s: measure_allreduce("hoplite", 8, 32 * MB, flow_stats=s)),
        ("allgat-hoplite", lambda s: measure_allgather("hoplite", 8, 32 * MB, flow_stats=s)),
        ("a2a-hoplite", lambda s: measure_alltoall("hoplite", 8, 32 * MB, flow_stats=s)),
        ("allgat-openmpi", lambda s: measure_allgather("openmpi", 8, 32 * MB, flow_stats=s)),
        ("allred-gloo", lambda s: measure_allreduce("gloo", 8, 32 * MB, flow_stats=s)),
    ):
        stats: dict = {}
        latency = run(stats)
        parts.append((label, repr(latency)))
        parts.extend(_flow_fingerprint(stats))
    parts.append(_object_id_state())
    return _digest(parts)


def golden_fault_matrix_cell(seed: int = 0) -> str:
    """One seeded 2-rack fault-matrix cell: allgather + alltoall under churn.

    The same shape as the fault-injection test matrix: 8 nodes in two
    oversubscribed racks on a slow (1 Gbps) network, a seeded Poisson
    failure schedule over the non-caller nodes, object-plane recovery and
    reconstruction riding through it.  This pins the failure paths —
    reservation cancellation, partial-copy recovery, incarnation-lapsing
    exclusions — which the fast path must reproduce exactly.
    """
    from repro.bench.scenarios import measure_allgather, measure_alltoall

    _reset_object_ids()
    topology = Topology.racks(2, 4, oversubscription=2.0)
    network = NetworkConfig(bandwidth=1.25e8, topology=topology)

    def _failures():
        return poisson_failures(
            node_ids=list(range(1, 8)),
            rate_per_second=4.0,
            horizon=0.8,
            downtime=0.2,
            seed=seed,
        )

    parts: list = []
    for label, run in (
        (
            "allgather-faults",
            lambda s: measure_allgather(
                "hoplite", 8, 16 * MB, network=network, failures=_failures(), flow_stats=s
            ),
        ),
        (
            "alltoall-faults",
            lambda s: measure_alltoall(
                "hoplite", 8, 16 * MB, network=network, failures=_failures(), flow_stats=s
            ),
        ),
    ):
        stats: dict = {}
        latency = run(stats)
        parts.append((label, repr(latency)))
        parts.extend(_flow_fingerprint(stats))
    parts.append(_object_id_state())
    return _digest(parts)


def golden_matching_cell(num_nodes: int) -> str:
    """The contention-bound (matching-limited) collectives at one scale.

    alltoall, allgather and the reduce+broadcast-overlapped allreduce, all on
    the flat fabric with 32 MB objects: every link serves many concurrent
    lockstep flows, so these cells pin exactly the admission behaviour the
    convoy fast path must reproduce — per-block grant order under
    saturation, relay cascades through partial sources, and the
    REDUCE_PARTIAL/BULK priority interleaving of the overlapped allreduce.

    Recorded at both 16 and 64 nodes: the 16-node cell keeps a quick signal
    in fast dev loops, the 64-node cell is the exact population the
    ``fig7_64_matching`` perf group draws from.
    """
    from repro.bench.scenarios import (
        measure_allgather,
        measure_allreduce,
        measure_alltoall,
    )

    _reset_object_ids()
    parts: list = []
    for label, run in (
        ("a2a-hoplite", lambda s: measure_alltoall("hoplite", num_nodes, 32 * MB, flow_stats=s)),
        ("allgat-hoplite", lambda s: measure_allgather("hoplite", num_nodes, 32 * MB, flow_stats=s)),
        ("allred-hoplite", lambda s: measure_allreduce("hoplite", num_nodes, 32 * MB, flow_stats=s)),
    ):
        stats: dict = {}
        latency = run(stats)
        parts.append((label, repr(latency)))
        parts.extend(_flow_fingerprint(stats))
    parts.append(_object_id_state())
    return _digest(parts)


def golden_matching_cell_16() -> str:
    return golden_matching_cell(16)


def golden_matching_cell_64() -> str:
    return golden_matching_cell(64)


GOLDEN_CELLS: dict[str, Callable[[], str]] = {
    "fig7_flat": golden_fig7_cell,
    "fault_matrix_2rack": golden_fault_matrix_cell,
    "matching_16": golden_matching_cell_16,
    "matching_64": golden_matching_cell_64,
}

#: digests recorded on the pre-fast-path kernel (the PR 5 seed state),
#: asserted by tests/test_golden_determinism.py.
RECORDED_DIGESTS = {
    "fig7_flat": "385562b63a6a29f796821f4a2f741c1ed2288dd8c59393027d9cdf45235c6293",
    "fault_matrix_2rack": "bed96547f59609fc279e39b660430fc0dcec919fc40ac97b163bfcd55f02c982",
    # Matching-limited collectives (pre-convoy kernel, PR 6 seed state).
    "matching_16": "48432aa4b102815037eb310e2a719cf01d7363f7c6e62a9425052fbf4bc94b89",
    "matching_64": "848116e1113ddf7de78e6f9c1bc095fdfd07c7b7f5eff407bd8898ac500ab655",
}
