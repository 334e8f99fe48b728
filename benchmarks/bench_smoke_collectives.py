"""CI smoke: one scenario per collective primitive.

One cheap measurement per primitive per plane, meant for the ``--quick``
path in CI: it proves every scenario driver still builds a cluster, runs,
and returns a positive latency, without the full Figure 7 grids.
"""

from repro.bench.experiments import MB
from repro.bench.reporting import format_table
from repro.bench.scenarios import MEASURES, measure_point_to_point_rtt

_PRIMITIVES = {
    "point_to_point": lambda system, n, size: measure_point_to_point_rtt(system, size),
    **MEASURES,
}


def _smoke(num_nodes, size):
    rows = []
    for primitive, measure in _PRIMITIVES.items():
        row = {"primitive": primitive}
        for system in ("hoplite", "openmpi", "ray"):
            row[system] = measure(system, num_nodes, size)
        rows.append(row)
    return rows


def test_smoke_one_scenario_per_collective(run_once, quick):
    size = 4 * MB if quick else 16 * MB
    rows = run_once(_smoke, 4, size)
    print()
    print(format_table("Collective smoke (seconds)", rows,
                       ["primitive", "hoplite", "openmpi", "ray"]))
    for row in rows:
        for system in ("hoplite", "openmpi", "ray"):
            assert row[system] > 0, row
