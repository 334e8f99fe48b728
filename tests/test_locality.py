"""Tests for the event-locality oracle and its kernel tagging sites."""

import pathlib
import re

import pytest

from repro.net import Cluster, NetworkConfig
from repro.obs.locality import format_locality_report

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: every file with locality tagging sites.
INSTRUMENTED = (
    "sim/core.py",
    "directory/service.py",
    "net/flowsched.py",
    "net/coalesce.py",
)

_BINDING = re.compile(r"^\s*(\w+)(?::[^=]+)? = .*\.locality\s*$")
_DEFINITION = re.compile(r"^\s*self\.locality\s*:")


def test_disabled_sites_are_single_is_not_none_branch():
    """Every locality site loads the hook into a local and guards it with
    one ``is (not) None`` branch — the cost when disabled is one attribute
    read and one branch, nothing else (the discipline every other
    observability hook in the kernel follows)."""
    for rel in INSTRUMENTED:
        lines = (SRC / rel).read_text().splitlines()
        for index, line in enumerate(lines):
            if ".locality" not in line:
                continue
            stripped = line.strip()
            if stripped.startswith("#") or stripped.startswith('"'):
                continue
            if _DEFINITION.match(line):
                continue  # the Simulator attribute definition
            match = _BINDING.match(line)
            assert match, f"{rel}:{index + 1}: unexpected site shape: {line!r}"
            name = match.group(1)
            window = "\n".join(lines[index + 1 : index + 6])
            assert (
                f"if {name} is not None" in window or f"if {name} is None" in window
            ), f"{rel}:{index + 1}: binding {name!r} is not None-guarded nearby"


def _analyzed_fleet():
    import repro.net.cluster as cluster_mod
    from repro.bench.fleet import run_fleet
    from repro.store.objects import reset_id_counter

    captured = []
    previous = cluster_mod.ON_CREATE

    def _hook(cluster):
        if previous is not None:
            previous(cluster)
        cluster.enable_locality_analyzer()
        captured.append(cluster)

    cluster_mod.ON_CREATE = _hook
    try:
        reset_id_counter()
        run_fleet(num_jobs=8, num_racks=2, nodes_per_rack=4, quick=True, observe=False)
    finally:
        cluster_mod.ON_CREATE = previous
    (cluster,) = captured
    return cluster


def test_locality_report_sanity_on_hierarchical_fleet():
    cluster = _analyzed_fleet()
    analyzer = cluster.locality
    report = analyzer.report()
    assert report["clock"] == "sim"
    assert report["events"] == cluster.sim.events_processed
    assert 0.0 < report["tagged_fraction"] <= 1.0
    # A two-rack fleet synchronizes: shared-tier reservations + cross-rack
    # directory RPCs both occur.
    assert report["cross_tier_reservations"] > 0
    assert report["cross_rack_rpcs"] > 0
    assert 0.0 < report["sync_fraction"] < 1.0
    arrivals = report["arrivals"]
    assert arrivals["rack_local"] > 0 and arrivals["cross_rack"] > 0
    racks = report["racks"]
    assert racks["count"] == 2
    assert sum(racks["events_per_rack"]) == len(analyzer.nodes)
    assert racks["load_balance_max_over_mean"] >= 1.0
    # The PDES bound covers the actual rack count and is a true bound:
    # >= 1 (never worse than serial) and monotone inputs keep it finite.
    assert "2" in report["pdes"]
    for row in report["pdes"].values():
        assert row["lookahead_s"] > 0.0
        assert row["projected_speedup_bound"] >= 1.0
    rendered = format_locality_report(report)
    assert "lookahead-safe" in rendered and "partitions" in rendered


def test_locality_report_is_deterministic():
    first = _analyzed_fleet().locality.report()
    second = _analyzed_fleet().locality.report()
    assert first == second


def test_locality_analyzer_changes_no_simulated_result():
    """Digest equality, the same property the --locality fuzz band sweeps."""
    from repro.bench.fuzz import _locality_analyzers, generate_spec, run_spec

    spec = generate_spec(3)
    bare = run_spec(spec, fast_paths=True)
    with _locality_analyzers():
        analyzed = run_spec(spec, fast_paths=True)
    assert analyzed == bare


def test_enable_is_idempotent_and_chains_after_flight():
    cluster = Cluster(num_nodes=2, network=NetworkConfig())
    # Locality chains onto an existing flight recorder's pop hook: both
    # observers see every pop.
    flight = cluster.enable_flight_recorder()
    analyzer = cluster.enable_locality_analyzer()
    assert cluster.enable_locality_analyzer() is analyzer
    assert cluster.sim.locality is analyzer
    cluster.process(iter(cluster.sim.timeout(0.001) for _ in range(1)))
    cluster.run()
    assert analyzer.total_pops > 0
    assert len(flight.records) > 0


@pytest.mark.parametrize("locality_first", [True, False])
def test_disabling_flight_keeps_locality_hooked(locality_first):
    """Removing the recorder leaves the analyzer's pop hook installed."""
    cluster = Cluster(num_nodes=4, network=NetworkConfig())
    if locality_first:
        analyzer = cluster.enable_locality_analyzer()
        cluster.enable_flight_recorder()
    else:
        cluster.enable_flight_recorder()
        analyzer = cluster.enable_locality_analyzer()
    cluster.disable_flight_recorder()
    assert cluster.locality is analyzer
    assert cluster.sim.on_pop == analyzer.on_pop
    cluster.process(iter(cluster.sim.timeout(0.001) for _ in range(1)))
    cluster.run()
    assert analyzer.total_pops > 0
