"""Benchmark harness: scenario drivers, experiment registry, and table printing.

``repro.bench.scenarios`` contains the measurement drivers (one simulated
cluster per measurement, one number out): the six collective drivers in
:data:`~repro.bench.scenarios.MEASURES` share one table-driven driver, and
the driver- and control-plane-failure drivers share one failure calibration.
``repro.bench.experiments`` assembles them into the paper's tables and
figures, and ``repro.bench.reporting`` prints the same rows/series the paper
reports.  ``repro.bench.fuzz`` and ``repro.bench.digest`` check that the
fast-path kernel reproduces the slow one bit for bit.
"""

from repro.bench.reporting import format_series, format_table
from repro.bench.scenarios import (
    MEASURES,
    SUPPORTED_SYSTEMS,
    measure_allgather,
    measure_allreduce,
    measure_alltoall,
    measure_broadcast,
    measure_gather,
    measure_point_to_point_rtt,
    measure_reduce,
)

__all__ = [
    "MEASURES",
    "SUPPORTED_SYSTEMS",
    "format_series",
    "format_table",
    "measure_allgather",
    "measure_allreduce",
    "measure_alltoall",
    "measure_broadcast",
    "measure_gather",
    "measure_point_to_point_rtt",
    "measure_reduce",
]
