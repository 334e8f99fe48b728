"""Ensemble model serving with a failing replica (Sections 5.4-5.5).

Serves the paper's eight-model image-classification ensemble.  A replica is
killed part-way through and later rejoins; the per-query latency timeline is
printed for Hoplite and for the Ray-style plane, reproducing the qualitative
behaviour of Figure 12a: Ray's latency visibly drops while the replica is
down (one fewer copy of the query to push), Hoplite's barely moves, and both
recover when the replica rejoins and reloads its weights.

Run with::

    python examples/ensemble_serving.py
"""

from __future__ import annotations

from repro.apps import run_model_serving
from repro.net.failure import FailureEvent


def main() -> None:
    num_queries = 24
    failure = FailureEvent(node_id=3, fail_at=1.2, recover_at=2.4)
    print("8-model ensemble, 8 nodes, one replica fails and rejoins")
    print("=" * 72)
    results = {}
    for system in ("hoplite", "ray"):
        result = run_model_serving(
            8, system=system, num_queries=num_queries, failure=failure
        )
        results[system] = result
        print(f"\n{system}: {result.throughput:.1f} queries/s")
        print("  query :  " + "  ".join(f"{index:5d}" for index in range(num_queries)))
        print(
            "  ms    :  "
            + "  ".join(f"{latency * 1e3:5.0f}" for latency in result.iteration_latencies)
        )
    print("-" * 72)
    speedup = results["hoplite"].throughput / results["ray"].throughput
    print(f"Hoplite serves {speedup:.1f}x more queries per second than the naive plane.")


if __name__ == "__main__":
    main()
