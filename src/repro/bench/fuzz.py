"""Differential fuzzing of the coalescing fast paths.

The coalescing machinery (`repro.net.coalesce`, `repro.net.convoy`) promises
*bit-for-bit* equivalence: a run with the fast paths enabled must produce
exactly the completion times, per-link byte counters, control-message counts
and ObjectID allocation order of a run with every fast path disabled.  The
unit suites pin specific shapes; this module pins the combinatorial space
around them — seeded random scenarios mixing collectives, cluster sizes,
topologies, arrival jitter and fault schedules, each executed twice
(fast paths on / off) and compared by digest.

``tests/test_differential.py`` runs a fixed band of seeds in tier-1;

    PYTHONPATH=src python -m repro.bench.fuzz --seeds 200

runs a deep sweep.  Any mismatch prints the spec needed to reproduce it —
and, since the flight recorder landed, the harness re-runs a mismatching
seed with recording enabled on both settings and bisects to the **first
diverging semantic event** (time, kind, resource, detail) instead of
leaving a bare pair of hashes.  ``--flight`` runs the whole band with
recording on, checking both that digests still match (recording is
observational) and that the on/off semantic records are identical.
``--locality`` additionally enables the event-locality analyzer on every
cluster and compares each analyzed digest against a bare run of the same
spec: the analyzer must change no simulated result, byte for byte.
"""

from __future__ import annotations

import argparse
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from repro.bench.digest import _digest, _flow_fingerprint, _object_id_state, _reset_object_ids
from repro.net.config import NetworkConfig
from repro.net.failure import poisson_failures
from repro.net.topology import Topology

MB = 1024 * 1024

#: the default tier-1 band (see tests/test_differential.py).
TIER1_SEEDS = tuple(range(20))


@dataclass
class ScenarioSpec:
    """One reproducible differential scenario."""

    seed: int
    collective: str
    system: str
    num_nodes: int
    nbytes: int
    arrival_delays: Optional[list[float]] = None
    racks: int = 1
    oversubscription: float = 1.0
    topology_aware: bool = False
    bandwidth: float = 1.25e9
    failure_rate: float = 0.0
    failure_horizon: float = 0.0
    failure_seed: int = 0
    extra: dict = field(default_factory=dict)

    def describe(self) -> str:
        bits = [
            f"seed={self.seed}",
            f"{self.system}/{self.collective}",
            f"n={self.num_nodes}",
            f"size={self.nbytes // MB}MB",
        ]
        if self.racks > 1:
            bits.append(
                f"racks={self.racks}x{self.num_nodes // self.racks}"
                f"@{self.oversubscription}{'+aware' if self.topology_aware else ''}"
            )
        if self.arrival_delays:
            bits.append(f"jitter<= {max(self.arrival_delays):.4f}s")
        if self.failure_rate > 0:
            bits.append(
                f"faults(rate={self.failure_rate}, horizon={self.failure_horizon},"
                f" fseed={self.failure_seed})"
            )
        return " ".join(bits)


def generate_spec(seed: int) -> ScenarioSpec:
    """Deterministically derive one scenario from ``seed``."""
    rng = random.Random(0x5EED ^ seed)
    collective = rng.choice(
        [
            "broadcast",
            "reduce",
            "allreduce",
            "allreduce",
            "allgather",
            "allgather",
            "alltoall",
            "alltoall",
            "gather",
        ]
    )
    # Mostly the object plane (that is where the fast paths live), sometimes
    # the static baselines (they register streams on the same links).
    if collective in ("allreduce",) and rng.random() < 0.2:
        system = rng.choice(["gloo", "openmpi"])
    elif collective in ("allgather", "broadcast") and rng.random() < 0.15:
        system = "openmpi"
    else:
        system = "hoplite"

    num_nodes = rng.choice([4, 6, 8, 8, 12])
    # 2-5 pipelining blocks: small enough to fuzz densely, large enough that
    # every multi-block fast path (coalesced runs, convoys) can engage.
    nbytes = rng.choice([6, 8, 9, 12, 17, 20]) * MB

    spec = ScenarioSpec(
        seed=seed,
        collective=collective,
        system=system,
        num_nodes=num_nodes,
        nbytes=nbytes,
    )

    # Arrival jitter for the collectives that take it (spread of a few block
    # serialization times: enough to shuffle admission order).
    if collective in ("broadcast", "reduce", "allreduce") and rng.random() < 0.6:
        count = num_nodes - 1 if (collective == "broadcast" and system == "hoplite") else num_nodes
        scale = rng.choice([0.002, 0.01, 0.05])
        spec.arrival_delays = [rng.random() * scale for _ in range(count)]

    # Hierarchical fabric with oversubscribed tier links.  Three racks give
    # cross-rack flows to *distinct* destination racks, whose only shared
    # contended link is the source rack's uplink — the tier-link convoy shape.
    if rng.random() < 0.35:
        fits = [r for r in (2, 3) if num_nodes % r == 0]
        spec.racks = rng.choice(fits)
        spec.oversubscription = rng.choice([2.0, 4.0])
        spec.topology_aware = rng.random() < 0.5

    # Fault schedules ride the collectives that support injected failures.
    if collective in ("allgather", "alltoall") and system == "hoplite" and rng.random() < 0.35:
        spec.bandwidth = 1.25e8  # slow the run down so failures land mid-flight
        spec.failure_rate = rng.choice([2.0, 4.0])
        spec.failure_horizon = 0.6
        spec.failure_seed = rng.randrange(1 << 16)

    return spec


def run_spec(
    spec: ScenarioSpec, fast_paths: bool, latency_out: Optional[dict] = None
) -> str:
    """Run one scenario with the fast paths forced on or off; return its digest.

    ``latency_out`` (a dict) receives the measured completion latency under
    the key ``"latency"`` — the control-plane band uses it to place kills
    mid-collective without re-deriving scenario durations.
    """
    from repro.bench import scenarios as sc
    from repro.core.options import HopliteOptions
    from repro.net.fastpath import fastpath

    network_kwargs: dict = {}
    if spec.bandwidth != 1.25e9:
        network_kwargs["bandwidth"] = spec.bandwidth
    if spec.racks > 1:
        network_kwargs["topology"] = Topology.racks(
            spec.racks, spec.num_nodes // spec.racks, oversubscription=spec.oversubscription
        )
    network = NetworkConfig(**network_kwargs) if network_kwargs else None
    kwargs: dict = {"network": network, "flow_stats": {}}
    if spec.system == "hoplite":
        kwargs["options"] = HopliteOptions(topology_aware=spec.topology_aware)
    if spec.arrival_delays is not None:
        kwargs["arrival_delays"] = list(spec.arrival_delays)
    if spec.failure_rate > 0:
        kwargs["failures"] = poisson_failures(
            node_ids=list(range(1, spec.num_nodes)),
            rate_per_second=spec.failure_rate,
            horizon=spec.failure_horizon,
            downtime=0.2,
            seed=spec.failure_seed,
        )

    measure = sc.MEASURES[spec.collective]
    _reset_object_ids()
    with fastpath(fast_paths):
        latency = measure(spec.system, spec.num_nodes, spec.nbytes, **kwargs)
    if latency_out is not None:
        latency_out["latency"] = latency
    stats = kwargs["flow_stats"]
    parts: list = [(spec.describe(), repr(latency))]
    parts.extend(_flow_fingerprint(stats))
    parts.append(_object_id_state())
    return _digest(parts)


def differential(seed: int) -> tuple[ScenarioSpec, str, str]:
    """Digests of one seeded scenario with fast paths on vs. off."""
    spec = generate_spec(seed)
    on = run_spec(spec, fast_paths=True)
    off = run_spec(spec, fast_paths=False)
    return spec, on, off


@contextmanager
def _flight_recorders():
    """Install flight recorders on every cluster a scenario builds.

    Scenario code constructs its clusters deep inside ``measure_*``, so the
    harness reaches them through the module-level
    :data:`repro.net.cluster.ON_CREATE` hook; the collected recorders stay
    readable after the run.
    """
    import repro.net.cluster as cluster_mod

    recorders: list = []
    previous = cluster_mod.ON_CREATE

    def _hook(cluster) -> None:
        if previous is not None:
            previous(cluster)
        cluster.enable_flight_recorder()
        recorders.append(cluster.flight)

    cluster_mod.ON_CREATE = _hook
    try:
        yield recorders
    finally:
        cluster_mod.ON_CREATE = previous


@contextmanager
def _locality_analyzers():
    """Enable the locality analyzer on every cluster a scenario builds.

    Same ON_CREATE mechanism as :func:`_flight_recorders`; composing both
    (``--flight --locality``) exercises the chained ``on_pop`` path — the
    locality analyzer takes the hook first and the flight recorder chains
    after it.
    """
    import repro.net.cluster as cluster_mod

    previous = cluster_mod.ON_CREATE

    def _hook(cluster) -> None:
        if previous is not None:
            previous(cluster)
        cluster.enable_locality_analyzer()

    cluster_mod.ON_CREATE = _hook
    try:
        yield
    finally:
        cluster_mod.ON_CREATE = previous


@contextmanager
def _control_plane_kills(events):
    """Install a control-plane kill schedule on every runtime a scenario builds.

    The directory lives inside the :class:`~repro.core.runtime.HopliteRuntime`
    a ``measure_*`` constructs, so the harness reaches it through the
    module-level :data:`repro.core.runtime.ON_CREATE` hook — the same idiom
    :func:`_flight_recorders` uses for clusters.
    """
    import repro.core.runtime as runtime_mod

    from repro.net.failure import schedule_control_plane

    previous = runtime_mod.ON_CREATE

    def _hook(runtime) -> None:
        if previous is not None:
            previous(runtime)
        schedule_control_plane(runtime.sim, events, directory=runtime.directory)

    runtime_mod.ON_CREATE = _hook
    try:
        yield
    finally:
        runtime_mod.ON_CREATE = previous


def control_plane_differential(seed: int):
    """One seeded scenario under directory-shard kills, fast paths on vs off.

    The ``control_plane`` fault class: a baseline run measures the scenario's
    latency, a seeded Poisson schedule then kills directory shards
    mid-collective, and the killed run must still digest-identical between
    fast-paths-on and fast-paths-off — shard death, RPC parking, and WAL
    replay are all deterministic machinery, so they must not reopen the
    equivalence the plain band pins.

    Returns ``(spec, events, on_digest, off_digest)``.
    """
    spec = generate_spec(seed)
    if spec.system != "hoplite":
        # Only the object plane has a directory to kill; the static
        # baselines are exercised by the plain band.
        spec.system = "hoplite"
        if spec.collective == "broadcast" and spec.arrival_delays is not None:
            spec.arrival_delays = spec.arrival_delays[: spec.num_nodes - 1]
    from repro.net.failure import poisson_control_plane_failures

    latency: dict = {}
    run_spec(spec, fast_paths=True, latency_out=latency)
    horizon = max(latency["latency"] * 0.8, 1e-3)
    events = poisson_control_plane_failures(
        num_shards=4,
        rate_per_second=2.0 / horizon,
        horizon=horizon,
        seed=0xC7A1 ^ seed,
        include_lineage=False,
    )
    with _control_plane_kills(events):
        on = run_spec(spec, fast_paths=True)
        off = run_spec(spec, fast_paths=False)
    return spec, events, on, off


def run_spec_recorded(spec: ScenarioSpec, fast_paths: bool) -> tuple[str, list]:
    """Like :func:`run_spec`, with flight recording on every cluster.

    Returns ``(digest, records)`` where ``records`` is the concatenation of
    every recorder's ring (one scenario can build several clusters).
    """
    with _flight_recorders() as recorders:
        digest = run_spec(spec, fast_paths)
    records = [record for recorder in recorders for record in recorder.records]
    return digest, records


def bisect_divergence(spec: ScenarioSpec):
    """Re-run one scenario recorded on both settings; first diverging event.

    Returns a :class:`repro.obs.flight.Divergence` (or ``None`` when the
    semantic timelines are identical — a digest mismatch without one means
    the divergence is outside the transfer timeline, e.g. ObjectID order).
    """
    from repro.obs.flight import first_divergence

    _, on_records = run_spec_recorded(spec, fast_paths=True)
    _, off_records = run_spec_recorded(spec, fast_paths=False)
    return first_divergence(on_records, off_records)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=len(TIER1_SEEDS), help="number of seeds")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument(
        "--flight",
        action="store_true",
        help="record every run; also compare the semantic transfer timelines",
    )
    parser.add_argument(
        "--locality",
        action="store_true",
        help="attach the locality analyzer to every run; also compare each "
        "analyzed digest against a bare run of the same spec",
    )
    parser.add_argument(
        "--control-plane",
        action="store_true",
        help="inject seeded directory-shard kills mid-collective and compare "
        "killed digests fast-paths-on vs off (the control_plane fault class)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    from contextlib import nullcontext

    from repro.obs.flight import first_divergence

    if args.control_plane:
        failures = 0
        killed = 0
        for seed in range(args.start, args.start + args.seeds):
            spec, events, on, off = control_plane_differential(seed)
            killed += len(events)
            ok = on == off
            if not ok:
                failures += 1
            if args.verbose or not ok:
                print(
                    f"{'OK  ' if ok else 'FAIL'} {spec.describe()} "
                    f"kills={len(events)}"
                )
        print(
            f"{args.seeds - failures}/{args.seeds} seeds identical "
            f"({killed} control-plane kills injected)"
        )
        return 1 if failures else 0

    failures = 0
    for seed in range(args.start, args.start + args.seeds):
        spec = generate_spec(seed)
        divergence = None
        bare = run_spec(spec, fast_paths=True) if args.locality else None
        with _locality_analyzers() if args.locality else nullcontext():
            if args.flight:
                on, on_records = run_spec_recorded(spec, fast_paths=True)
                off, off_records = run_spec_recorded(spec, fast_paths=False)
                divergence = first_divergence(on_records, off_records)
                ok = on == off and divergence is None
            else:
                on = run_spec(spec, fast_paths=True)
                off = run_spec(spec, fast_paths=False)
                ok = on == off
                if not ok:
                    divergence = bisect_divergence(spec)
        if bare is not None and on != bare:
            ok = False
            print(f"FAIL {spec.describe()}: the locality analyzer changed the digest")
        if not ok:
            failures += 1
        if args.verbose or not ok:
            print(f"{'OK  ' if ok else 'FAIL'} {spec.describe()}")
        if not ok and divergence is not None:
            print(divergence.describe())
    print(f"{args.seeds - failures}/{args.seeds} seeds identical")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
