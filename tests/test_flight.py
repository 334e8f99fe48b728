"""The deterministic flight recorder and divergence bisection.

Pins the recorder's own contracts (bounded ring, deterministic dump, the
per-cluster enable/disable lifecycle), the *observational* property — fuzz
scenarios run with recording on still digest-match their unrecorded runs,
and the fast-on / fast-off semantic timelines are identical — and the
property the subsystem exists for: a fast-path divergence injected into
the coalescing machinery is bisected to its first diverging semantic
event instead of surfacing as a bare digest mismatch.
"""

import pytest

from repro.bench.fuzz import (
    bisect_divergence,
    generate_spec,
    run_spec,
    run_spec_recorded,
)
from repro.net.cluster import Cluster
from repro.net.coalesce import CoalescedRun
from repro.net.config import NetworkConfig
from repro.obs.flight import (
    Divergence,
    FlightRecorder,
    first_divergence,
    semantic_records,
)
from repro.store.objects import reset_id_counter


class _Clock:
    def __init__(self):
        self._now = 0.0


# ---------------------------------------------------------------------------
# Recorder contracts
# ---------------------------------------------------------------------------


def test_ring_is_bounded_and_counts_drops():
    recorder = FlightRecorder(_Clock(), capacity=3)
    for i in range(5):
        recorder.record(float(i), "grant", "n0>n1", f"f/{i}")
    assert len(recorder) == 3
    assert recorder.dropped == 2
    assert [r[0] for r in recorder.records] == [2.0, 3.0, 4.0]
    assert recorder.dump().startswith("# dropped=2 (ring capacity 3)")
    with pytest.raises(ValueError):
        FlightRecorder(_Clock(), capacity=0)


def test_dump_is_deterministic_and_roundtrips_floats():
    clock = _Clock()
    recorder = FlightRecorder(clock, capacity=16)
    recorder.record(0.1 + 0.2, "arrive", "n0>n1", "f/1024")
    clock._now = 1.5
    recorder.phase("n0>n1", "coalesce_start/CoalescedRun/4")
    dump = recorder.dump()
    assert dump == recorder.dump()
    # repr timestamps round-trip exactly (0.1 + 0.2 != 0.3).
    assert "0.30000000000000004 arrive n0>n1 f/1024" in dump
    assert "1.5 phase n0>n1 coalesce_start/CoalescedRun/4" in dump
    assert recorder.dump(limit=1).splitlines() == [dump.splitlines()[-1]]


def test_semantic_records_filter_and_sort():
    records = [
        (2.0, "arrive", "n0>n1", "f/1"),
        (0.5, "pop", "seq=3", "Wake"),
        (1.0, "grant", "n0>n1", "f/1"),
        (1.0, "phase", "n0>n1", "resplit"),
        (1.5, "release", "n0>n1", "f/1"),
    ]
    assert semantic_records(records) == [
        (1.0, "grant", "n0>n1", "f/1"),
        (1.5, "release", "n0>n1", "f/1"),
        (2.0, "arrive", "n0>n1", "f/1"),
    ]


def test_first_divergence_cases():
    a = [(1.0, "grant", "n0>n1", "f/1"), (2.0, "arrive", "n0>n1", "f/1")]
    assert first_divergence(a, list(a)) is None
    # Mid-stream mismatch.
    b = [(1.0, "grant", "n0>n1", "f/1"), (2.5, "arrive", "n0>n1", "f/1")]
    div = first_divergence(a, b)
    assert isinstance(div, Divergence)
    assert div.index == 1
    assert div.record_on == a[1] and div.record_off == b[1]
    assert "first diverging semantic event" in div.describe()
    # Length mismatch: the shorter side reports <no record>.
    div = first_divergence(a, a[:1])
    assert div.index == 1 and div.record_off is None
    assert "<no record>" in div.describe()
    # Non-semantic noise never diverges.
    assert first_divergence([(0.0, "pop", "seq=1", "Wake")], []) is None


def test_cluster_lifecycle_installs_and_removes_hooks():
    cluster = Cluster(4, NetworkConfig())
    assert cluster.flight is None and cluster.sim.on_pop is None
    recorder = cluster.enable_flight_recorder(capacity=128)
    assert cluster.flight is recorder
    assert cluster.sim.on_pop == recorder.record_pop
    # Idempotent: re-enabling keeps the same recorder.
    assert cluster.enable_flight_recorder() is recorder
    cluster.disable_flight_recorder()
    assert cluster.flight is None and cluster.sim.on_pop is None


def test_recording_captures_pops_and_semantic_timeline():
    reset_id_counter()
    spec = generate_spec(6)  # broadcast over a 2-rack fabric, coalesces
    _, records = run_spec_recorded(spec, fast_paths=False)
    kinds = {r[1] for r in records}
    assert "pop" in kinds
    assert {"grant", "release", "arrive"} <= kinds
    sem = semantic_records(records)
    assert sem == sorted(sem)
    # Every semantic record names a directed node pair and a flow/bytes pair.
    for _t, _kind, resource, detail in sem:
        assert ">" in resource and resource.startswith("n")
        assert "/" in detail


# ---------------------------------------------------------------------------
# The observational property: recording changes nothing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [2, 4, 6])
def test_recording_is_observational_and_timelines_match(seed):
    """Digest with recording == digest without; on/off timelines identical.

    The band mixes a gather (seed 2), an alltoall with a mid-flight fault
    schedule (seed 4) and a rack-topology broadcast (seed 6), all of which
    engage the coalescing fast paths.
    """
    spec = generate_spec(seed)
    bare_on = run_spec(spec, fast_paths=True)
    bare_off = run_spec(spec, fast_paths=False)
    on, on_records = run_spec_recorded(spec, fast_paths=True)
    off, off_records = run_spec_recorded(spec, fast_paths=False)
    assert on == bare_on and off == bare_off
    assert on == off
    assert semantic_records(on_records) == semantic_records(off_records)
    assert first_divergence(on_records, off_records) is None


# ---------------------------------------------------------------------------
# Divergence bisection on a forced fast-path bug
# ---------------------------------------------------------------------------


def test_forced_fastpath_divergence_is_bisected(monkeypatch):
    """An injected coalescing bug is caught and localized.

    Shifts every coalesced network run's arrival boundaries by +100ns — the
    kind of off-by-an-epsilon a refactor of the boundary recurrence could
    introduce.  Only the fast-on run constructs :class:`CoalescedRun`, so the
    settings genuinely diverge; the digests must mismatch and the bisection
    must point at the transfer timeline around the perturbed arrivals.
    Local copy-in runs (``src is dst``) are left alone: they record no
    transfer events, so skewing them would make the first divergence a
    downstream grant instead of an arrival.
    """
    # Forms coalesced runs under fast-on: 7 network runs plus 1 Put copy-in.
    spec = generate_spec(6)

    orig_init = CoalescedRun.__init__

    def skewed_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        if self.src is not self.dst:
            self.arr = [a + 1e-7 for a in self.arr]

    monkeypatch.setattr(CoalescedRun, "__init__", skewed_init)

    on = run_spec(spec, fast_paths=True)
    off = run_spec(spec, fast_paths=False)
    assert on != off, "the injected arrival skew must break the digest"

    divergence = bisect_divergence(spec)
    assert divergence is not None
    # The first diverging event involves an arrival record: the skew moved
    # fast-on arrivals past neighbouring grants in the sorted timeline.
    kinds = {
        record[1]
        for record in (divergence.record_on, divergence.record_off)
        if record is not None
    }
    assert "arrive" in kinds
    assert divergence.describe()  # renders without error


def test_unperturbed_seed_has_no_divergence():
    spec = generate_spec(6)
    assert bisect_divergence(spec) is None
