"""Application-level workloads from the paper's evaluation (Sections 5.2-5.6).

Each application builds its own simulated cluster, runs the same driver logic
over a selectable communication plane (Hoplite, Ray-style, Dask-style) or
static collective library (OpenMPI, Gloo, for synchronous training), and
returns an :class:`~repro.apps.common.AppResult` with throughput and
per-iteration latencies.
"""

from repro.apps.common import AppResult
from repro.apps.moe import run_moe_routing
from repro.apps.param_server import run_async_sgd
from repro.apps.rl import run_rl_training
from repro.apps.serving import run_model_serving
from repro.apps.sync_training import run_sync_training

__all__ = [
    "AppResult",
    "run_async_sgd",
    "run_model_serving",
    "run_moe_routing",
    "run_rl_training",
    "run_sync_training",
]
