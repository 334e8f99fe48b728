"""Golden determinism: the fast-path kernel reproduces the slow kernel bit-for-bit.

The digests below were recorded on the pre-fast-path simulator (before
coalesced block transfers, incremental admission matching, and the memoized
fabric paths landed).  Every optimization since must keep them byte-identical:
a digest covers completion times at full float precision, per-link and
per-tier byte counters, control-message counts, and the global ObjectID
allocation state — see :mod:`repro.bench.digest` for exactly what is hashed.

If one of these fails after an intentional *behaviour* change (a new
scheduling policy, a model change), re-record the digest in the same commit
and say so in the commit message; if it fails after a *performance* change,
the performance change is wrong.
"""

import pytest

from repro.bench.digest import (
    RECORDED_DIGESTS as RECORDED,
    golden_fault_matrix_cell,
    golden_fig7_cell,
    golden_matching_cell,
)


def test_golden_fig7_cell_matches_pre_fastpath_kernel():
    assert golden_fig7_cell() == RECORDED["fig7_flat"]


def test_golden_fault_matrix_cell_matches_pre_fastpath_kernel():
    assert golden_fault_matrix_cell() == RECORDED["fault_matrix_2rack"]


def test_golden_matching_cell_16_matches_pre_convoy_kernel():
    """Contention-bound collectives at 16 nodes (pre-convoy recording)."""
    assert golden_matching_cell(16) == RECORDED["matching_16"]


def test_golden_matching_cell_64_matches_pre_convoy_kernel():
    """The fig7_64_matching population itself (pre-convoy recording)."""
    assert golden_matching_cell(64) == RECORDED["matching_64"]


@pytest.mark.parametrize("cell", ["fig7_flat", "fault_matrix_2rack"])
def test_golden_cells_are_run_to_run_stable(cell):
    """Two runs in the same process agree (no hidden global state leaks)."""
    from repro.bench.digest import GOLDEN_CELLS

    assert GOLDEN_CELLS[cell]() == GOLDEN_CELLS[cell]()


def _topology_cell(measure, nodes_per_rack, nbytes, receivers_only=False):
    from repro.bench.scenarios import rack_interleaved_delays
    from repro.core.options import HopliteOptions
    from repro.net.config import NetworkConfig
    from repro.net.topology import Topology

    num_racks = 4
    delays = rack_interleaved_delays(num_racks, nodes_per_rack)
    return measure(
        "hoplite",
        num_racks * nodes_per_rack,
        nbytes,
        network=NetworkConfig(
            topology=Topology.racks(num_racks, nodes_per_rack, oversubscription=4.0)
        ),
        options=HopliteOptions(topology_aware=True),
        arrival_delays=delays[1:] if receivers_only else delays,
    )


def _moe_cell(num_nodes, num_iterations):
    from repro.apps.moe import run_moe_routing

    return run_moe_routing(num_nodes, "hoplite", num_iterations=num_iterations).duration


def _fleet_cell(num_racks, nodes_per_rack, quick):
    from repro.bench.fleet import run_fleet

    return run_fleet(
        num_jobs=24,
        num_racks=num_racks,
        nodes_per_rack=nodes_per_rack,
        quick=quick,
        observe=False,
    ).duration


def _pinned_cells():
    from repro.bench import scenarios as s

    MB = 1024 * 1024
    GB = 1024 * MB
    return {
        "fig7_64_pipeline/broadcast_1GB_hoplite": (
            lambda: s.measure_broadcast("hoplite", 64, GB), 1.083185938),
        "fig7_64_pipeline/reduce_1GB_hoplite": (
            lambda: s.measure_reduce("hoplite", 64, GB), 1.099718438),
        "fig7_64_matching/gather_32MB_hoplite": (
            lambda: s.measure_gather("hoplite", 64, 32 * MB), 1.691448373),
        "fig7_64_matching/allreduce_256MB_gloo": (
            lambda: s.measure_allreduce("gloo", 64, 256 * MB), 0.442297901),
        "fig7_64_matching/allgather_32MB_openmpi": (
            lambda: s.measure_allgather("openmpi", 64, 32 * MB), 1.716343373),
        "fig7_16/broadcast_1GB_hoplite": (
            lambda: s.measure_broadcast("hoplite", 16, GB), 0.919724664),
        "fig7_16/reduce_256MB_hoplite": (
            lambda: s.measure_reduce("hoplite", 16, 256 * MB), 0.272345741),
        "fig7_16/alltoall_32MB_hoplite": (
            lambda: s.measure_alltoall("hoplite", 16, 32 * MB), 0.435003534),
        "topology_4rack/broadcast_32MB_aware": (
            lambda: _topology_cell(s.measure_broadcast, 4, 32 * MB, receivers_only=True),
            0.068768864),
        "topology_4rack/broadcast_8MB_aware_quick": (
            lambda: _topology_cell(s.measure_broadcast, 2, 8 * MB, receivers_only=True),
            0.034259432),
        "topology_4rack/allreduce_32MB_aware": (
            lambda: _topology_cell(s.measure_allreduce, 4, 32 * MB), 0.117593645),
        "moe/alltoall_16n_2it": (lambda: _moe_cell(16, 2), 0.286926111),
        "moe/alltoall_8n_1it": (lambda: _moe_cell(8, 1), 0.069366632),
        "fleet/24job_4rack": (lambda: _fleet_cell(4, 8, quick=False), 0.266908533),
        "fleet/24job_2rack_quick": (lambda: _fleet_cell(2, 4, quick=True), 0.140990247),
    }


@pytest.mark.parametrize("cell", sorted(_pinned_cells()))
def test_simulated_latency_pins(cell):
    """Exact simulated seconds (9 decimals) of fixed scenario cells.

    A change to the simulator's speed must leave every one of them untouched.
    """
    from repro.store.objects import reset_id_counter

    run, pinned = _pinned_cells()[cell]
    reset_id_counter()
    assert round(run(), 9) == pinned


def _event_count_cells():
    from repro.bench import scenarios as s

    MB = 1024 * 1024
    return {
        # The perfbench ``fleet`` and ``faults`` workloads' cells.
        "fleet_24job_2rack_quick": (lambda: _fleet_cell(2, 4, quick=True), 7896),
        "fault_matrix_cell": (golden_fault_matrix_cell, 4956),
        # Synchronized: the Reduce starts after every Put finished, so the
        # cell's events are dominated by the Puts' copy-in.
        "reduce_64MB_16n_hoplite": (
            lambda: s.measure_reduce("hoplite", 16, 64 * MB), 499),
        "allgather_32MB_16n_hoplite": (
            lambda: s.measure_allgather("hoplite", 16, 32 * MB), 11978),
        "broadcast_64MB_8n_hoplite": (
            lambda: s.measure_broadcast("hoplite", 8, 64 * MB), 80),
    }


@pytest.mark.parametrize("cell", sorted(_event_count_cells()))
def test_event_count_pins(cell):
    """Kernel events of fixed scenario cells never exceed their pinned count.

    Event counts are deterministic, so a fast path that silently falls back
    to the per-block chain (e.g. a Put copy-in no longer coalescing) fails
    here even though every simulated result stays the same.  Object ids are
    reset at each cluster's creation, as the benchmark does, so the count
    does not depend on what ran earlier in the process.
    """
    import repro.net.cluster as cluster_mod
    from repro.store.objects import reset_id_counter

    run, pinned = _event_count_cells()[cell]
    clusters = []

    def _on_create(cluster):
        reset_id_counter()
        clusters.append(cluster)

    previous = cluster_mod.ON_CREATE
    cluster_mod.ON_CREATE = _on_create
    try:
        run()
    finally:
        cluster_mod.ON_CREATE = previous
    events = sum(cluster.sim.events_processed for cluster in clusters)
    assert events <= pinned, f"{cell}: {events} kernel events, pinned at {pinned}"
