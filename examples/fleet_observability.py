"""Observe a multi-tenant fleet: metrics, SLO verdicts, and a trace.

Run with::

    PYTHONPATH=src python examples/fleet_observability.py

The example runs the 24-job fleet of :mod:`repro.bench.fleet` — training,
serving, MoE, and RL jobs from two tenants arriving open-loop on a 4-rack
oversubscribed fabric — with the observability plane enabled, then shows
what the plane recorded: the SLO verdict table, the congestion-vs-latency
correlation computed from the windowed series, the hottest links, per-class
admission waits, an excerpt of the Prometheus exposition any scraper would
ingest, the event-locality report with its projected parallel-kernel
speedup bound, and a Chrome-trace export loadable in Perfetto /
``chrome://tracing``.
"""

from __future__ import annotations

import repro.net.cluster as cluster_mod
from repro.bench.fleet import run_fleet
from repro.obs import (
    dump_chrome_trace,
    format_locality_report,
    format_slo_table,
    to_prometheus,
)
from repro.obs.critpath import format_blame_table

MB = 1024 * 1024


def main() -> None:
    # Enable the locality analyzer and the flight recorder the Chrome trace
    # draws on, on the fleet's cluster as it is built.
    def _on_create(cluster) -> None:
        cluster.enable_locality_analyzer()
        cluster.enable_flight_recorder()

    cluster_mod.ON_CREATE = _on_create
    try:
        result = run_fleet(trace_transfers=True)
    finally:
        cluster_mod.ON_CREATE = None
    obs = result.obs
    registry = obs.registry

    print(
        f"fleet: {len(result.specs)} jobs over {result.duration * 1e3:.1f} ms "
        f"(simulated), peak concurrency {result.peak_concurrency}"
    )

    print("\n== SLO verdicts (exact p50/p99 per tenant x op x size) ==")
    print(format_slo_table(result.slo_rows))

    print(
        "\ncongestion vs latency: Pearson r = "
        f"{result.congestion_latency_r:.3f} between per-window shared-tier "
        "bytes and per-window mean op latency"
    )

    print("\n== critical-path blame (why each SLO cell spent its time) ==")
    # The SLO table above says *which* cells are slow; the profiler walks
    # each op's causal chain backward (grants, transmissions, propagation,
    # reduce compute, failure detection, retries) and partitions its wall
    # time into the seven blame categories — the columns below sum to 100%
    # of each cell's critical-path seconds.
    print(format_blame_table(result.blame_rows))
    worst = max(
        result.blame_rows, key=lambda row: row.total / row.count if row.count else 0.0
    )
    category, share = worst.top_category()
    diagnosis = f"{share * 100.0:.0f}% {category}"
    top_link = worst.top_link()
    if top_link is not None and category in ("grant_wait", "tx"):
        diagnosis += f", mostly on {top_link}"
    print(
        f"\n  walkthrough: the slowest cell per op is ({worst.tenant}, {worst.op})"
        f" — {diagnosis}."
    )
    print(
        "  grant_wait points at admission contention (add capacity or"
        " reschedule), tx at serialization (bigger pipelining blocks),"
        " straggler at untraced waits (peers arriving late)."
    )

    print("\n== hottest link directions ==")
    link_bytes = registry.families["link_bytes"]
    totals: dict[tuple, float] = {}
    for child in link_bytes.children.values():
        link, tier, _cls = child.label_values
        totals[(link, tier)] = totals.get((link, tier), 0.0) + child.value
    for (link, tier), total in sorted(totals.items(), key=lambda kv: -kv[1])[:6]:
        print(f"  {link:12s} [{tier:9s}] {total / MB:10.1f} MB")

    print("\n== admission wait by flow class (grant-wait histograms) ==")
    waits = registry.families["link_grant_wait_seconds"]
    for child in waits.sorted_children():
        if child.count:
            print(
                f"  {child.label_values[0]:15s} n={child.count:6d} "
                f"p50={child.percentile(50) * 1e6:9.1f}us "
                f"p99={child.percentile(99) * 1e6:9.1f}us"
            )

    print("\n== one transfer trace (block spans of the busiest trace) ==")
    traces = obs.tracer.traces()
    trace_id, spans = max(traces.items(), key=lambda kv: len(kv[1]))
    print(f"  trace {trace_id}: {len(spans)} spans; first three:")
    for span in spans[:3]:
        print(
            f"    {span.name} [{span.start * 1e3:.3f}ms..{span.end * 1e3:.3f}ms]"
            f" {span.status} {span.attrs.get('flow', '')}"
        )

    print("\n== Prometheus exposition excerpt ==")
    text = to_prometheus(registry)
    shown = 0
    for line in text.splitlines():
        if line.startswith(("# TYPE", "fleet_op_latency_seconds{")):
            print(" ", line)
            shown += 1
            if shown >= 18:
                break
    print(f"  ... ({len(text.splitlines())} lines total)")

    # The locality analyzer is the go/no-go oracle for sharding the kernel
    # (ROADMAP item 3): how many events are provably rack-local within the
    # conservative-PDES lookahead window, how often partitions would have
    # to synchronize, and the resulting speedup *bound* per partition count
    # (an upper bound: barrier overhead is not priced in).
    cluster = result.cluster
    print("\n== event locality / projected PDES speedup bound ==")
    print(format_locality_report(cluster.locality.report()))

    # -- inspect the run in a real trace viewer ---------------------------
    # Spans (one track per rank), the flight recorder's grant/release/
    # arrive timeline (one track per link direction), and queue-depth
    # counter tracks, in Chrome Trace Event JSON.  Open the file at
    # https://ui.perfetto.dev or chrome://tracing.
    trace_doc = dump_chrome_trace(
        "fleet_trace.json", obs=obs, flight=cluster.flight
    )
    print(
        f"\nChrome trace written to fleet_trace.json "
        f"({len(trace_doc['traceEvents'])} events) — load it in Perfetto."
    )


if __name__ == "__main__":
    main()
