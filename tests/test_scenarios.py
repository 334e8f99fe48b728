"""Tests for the benchmark scenario drivers and the reporting helpers."""

import pytest

from repro.bench import (
    SUPPORTED_SYSTEMS,
    format_series,
    format_table,
    measure_allreduce,
    measure_broadcast,
    measure_gather,
    measure_point_to_point_rtt,
    measure_reduce,
)
from repro.bench.reporting import format_value
from repro.bench.scenarios import MEASURES, UnsupportedScenarioError
from repro.collectives import STATIC_OPERATIONS
from repro.net import NetworkConfig

MB = 1024 * 1024
KB = 1024


def test_supported_systems_listed():
    assert "hoplite" in SUPPORTED_SYSTEMS and "openmpi" in SUPPORTED_SYSTEMS
    with pytest.raises(UnsupportedScenarioError):
        measure_point_to_point_rtt("nccl", KB)


def test_point_to_point_ordering_small_objects():
    latencies = {
        system: measure_point_to_point_rtt(system, KB)
        for system in ("optimal", "openmpi", "hoplite", "ray", "dask")
    }
    assert latencies["openmpi"] <= latencies["hoplite"] <= latencies["ray"] <= latencies["dask"]
    assert latencies["optimal"] <= latencies["openmpi"]


def test_point_to_point_large_objects_near_optimal():
    rtt = measure_point_to_point_rtt("hoplite", 256 * MB)
    optimal = measure_point_to_point_rtt("optimal", 256 * MB)
    assert rtt <= optimal * 1.15


def test_broadcast_measure_and_validation():
    latency = measure_broadcast("hoplite", 4, 8 * MB)
    assert latency > 0
    with pytest.raises(ValueError):
        measure_broadcast("hoplite", 1, MB)
    with pytest.raises(UnsupportedScenarioError):
        measure_broadcast("gloo_ring", 4, MB)
    assert measure_broadcast("optimal", 4, 8 * MB) == pytest.approx(
        8 * MB / NetworkConfig().bandwidth
    )


def test_broadcast_arrival_delays_validation():
    with pytest.raises(ValueError):
        measure_broadcast("hoplite", 4, MB, arrival_delays=[0.0, 0.1])  # wrong length


def test_gather_measure_and_unsupported():
    latency = measure_gather("hoplite", 4, 8 * MB)
    mpi = measure_gather("openmpi", 4, 8 * MB)
    assert latency > 0 and mpi > 0
    with pytest.raises(UnsupportedScenarioError):
        measure_gather("gloo", 4, MB)
    with pytest.raises(ValueError):
        measure_gather("hoplite", 1, MB)


def test_reduce_measure_sync_and_async():
    sync = measure_reduce("hoplite", 4, 8 * MB)
    staggered = measure_reduce("hoplite", 4, 8 * MB, arrival_interval=0.05)
    assert sync > 0
    # With staggered arrivals the measurement includes waiting for arrivals.
    assert staggered >= 0.05 * 3
    with pytest.raises(UnsupportedScenarioError):
        measure_reduce("gloo", 4, MB)


def test_allreduce_measure_all_variants():
    for system in ("hoplite", "openmpi", "gloo_ring", "gloo_ring_chunked", "gloo_halving_doubling", "ray"):
        assert measure_allreduce(system, 4, 4 * MB) > 0


STATIC_BASELINES = ("openmpi", "gloo", "gloo_ring", "gloo_ring_chunked", "gloo_halving_doubling")


def test_static_operations_cover_exactly_the_baselines_collectives():
    """OpenMPI runs all six; Gloo four; its allreduce variants only allreduce."""
    expected = {("openmpi", collective) for collective in MEASURES}
    expected |= {
        ("gloo", collective) for collective in ("broadcast", "allreduce", "allgather", "alltoall")
    }
    expected |= {
        (system, "allreduce")
        for system in ("gloo_ring", "gloo_ring_chunked", "gloo_halving_doubling")
    }
    assert set(STATIC_OPERATIONS) == expected


@pytest.mark.parametrize("collective", sorted(MEASURES))
@pytest.mark.parametrize("system", STATIC_BASELINES)
def test_static_support_matrix(system, collective):
    measure = MEASURES[collective]
    if (system, collective) in STATIC_OPERATIONS:
        assert measure(system, 4, MB) > 0
    else:
        with pytest.raises(UnsupportedScenarioError):
            measure(system, 4, MB)


def test_hoplite_broadcast_beats_ray_at_scale():
    hoplite = measure_broadcast("hoplite", 8, 64 * MB)
    ray = measure_broadcast("ray", 8, 64 * MB)
    assert hoplite < ray


def test_driver_failure_object_plane_recovery_beats_job_restart():
    """Acceptance: lineage re-execution beats the static restart model.

    Recovery overhead = completion with a mid-collective root failure minus
    the same system's failure-free baseline.  A rooted broadcast recovers
    for ~free (the root share migrates and re-creates the object from
    lineage); a late allreduce failure is nearly free because the finished
    reduce is adopted; a static system always waits out the downtime and
    reruns the whole job.
    """
    from repro.bench.scenarios import measure_driver_failure

    network = NetworkConfig(bandwidth=1.25e8)
    for collective, fraction in (("broadcast", 0.5), ("allreduce", 0.85)):
        overheads = {}
        for system in ("hoplite", "openmpi"):
            baseline = measure_driver_failure(
                system, 4, 8 * MB, collective=collective, network=network
            )
            failed = measure_driver_failure(
                system,
                4,
                8 * MB,
                collective=collective,
                fail_fraction=fraction,
                downtime=0.2,
                network=network,
            )
            overheads[system] = failed - baseline
        assert overheads["hoplite"] < overheads["openmpi"], (collective, overheads)

    with pytest.raises(ValueError):
        measure_driver_failure("hoplite", 4, MB, fail_at=0.1, fail_fraction=0.5)
    with pytest.raises(UnsupportedScenarioError):
        measure_driver_failure("optimal", 4, MB)


def test_format_value_and_table_and_series():
    assert format_value(0) == "0"
    assert format_value(1234.0) == "1,234"
    assert format_value(1.5) == "1.500"
    assert format_value(0.0015).endswith("m")
    assert format_value(1.5e-6).endswith("u")
    table = format_table("Title", [{"a": 1.0, "b": "x"}], ["a", "b"])
    assert "Title" in table and "1.000" in table and "x" in table
    series = format_series("S", "x", [1, 2], {"sys": [0.1, 0.2]})
    assert "sys" in series and "x" in series
    nan_series = format_series("S", "x", [1], {"sys": []})
    assert "nan" in nan_series
