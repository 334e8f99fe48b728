"""Baseline collective-communication implementations.

The paper compares Hoplite against:

* **OpenMPI** — static, rank-based collective schedules (binomial broadcast,
  binary-tree reduce, recursive halving–doubling allreduce, flat gather);
* **Gloo** — ring, ring-chunked and halving–doubling allreduce plus an
  unoptimized broadcast;
* **Ray / Dask** — task systems without collective support: every receiver
  pulls the whole object from its creator, reduce is performed locally by the
  caller after gathering all inputs, and transfers pay extra worker↔store
  copies without pipelining.

All baselines run on the same simulated cluster substrate as Hoplite, so the
comparisons isolate the *algorithmic* differences the paper is about.

:data:`STATIC_OPERATIONS` is the one support matrix of the static
baselines: ``(system, collective) -> factory(cluster, nbytes)`` returning a
fresh :class:`~repro.collectives.base.StaticOperation`.  A pair that is not
in the table is a collective that system does not implement.
"""

from repro.collectives.base import CollectiveGroup, StaticCollectiveError
from repro.collectives.gloo import GlooCollectives
from repro.collectives.mpi import MPICollectives
from repro.collectives.naive import DASK_PROFILE, RAY_PROFILE, TaskSystemPlane, TaskSystemProfile
from repro.collectives.plane import CommPlane, HoplitePlane


def _static(library, method: str):
    return lambda cluster, nbytes: getattr(library(cluster), method)(nbytes)


STATIC_OPERATIONS = {
    **{
        ("openmpi", collective): _static(MPICollectives, collective)
        for collective in ("broadcast", "gather", "reduce", "allreduce", "allgather", "alltoall")
    },
    **{
        ("gloo", collective): _static(GlooCollectives, collective)
        for collective in ("broadcast", "allgather", "alltoall")
    },
    ("gloo", "allreduce"): _static(GlooCollectives, "allreduce_ring_chunked"),
    ("gloo_ring", "allreduce"): _static(GlooCollectives, "allreduce_ring"),
    ("gloo_ring_chunked", "allreduce"): _static(GlooCollectives, "allreduce_ring_chunked"),
    ("gloo_halving_doubling", "allreduce"): _static(GlooCollectives, "allreduce_halving_doubling"),
}
STATIC_SYSTEMS = tuple(dict.fromkeys(system for system, _ in STATIC_OPERATIONS))

__all__ = [
    "CollectiveGroup",
    "CommPlane",
    "DASK_PROFILE",
    "GlooCollectives",
    "HoplitePlane",
    "MPICollectives",
    "RAY_PROFILE",
    "STATIC_OPERATIONS",
    "STATIC_SYSTEMS",
    "StaticCollectiveError",
    "TaskSystemPlane",
    "TaskSystemProfile",
]
