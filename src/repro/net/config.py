"""Configuration of the simulated cluster and network."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.topology import Topology


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the simulated cluster.

    The defaults approximate the paper's testbed: AWS m5.4xlarge instances
    with 10 Gbps networking, ~170 microsecond object-directory RPCs, and a
    4 MB pipelining block size.

    Attributes:
        bandwidth: per-direction NIC bandwidth in bytes per second.
        latency: one-way propagation latency per block, in seconds.
        rpc_latency: latency of one control-plane RPC (e.g. an object
            directory lookup or location publish), in seconds.
        memcpy_bandwidth: bandwidth of in-node copies between a task worker
            and its local object store, in bytes per second.
        block_size: granularity of pipelined transfers, in bytes.
        small_object_threshold: objects strictly smaller than this are cached
            directly in the object directory (the paper's 64 KB fast path).
        reduce_block_compute_bandwidth: throughput of the element-wise reduce
            computation applied to each block, in bytes per second.
        failure_detection_delay: time between a peer failing and the other
            end of an open connection observing the failure, in seconds.
        num_directory_shards: number of object-directory shards spread over
            the cluster.
        topology: hierarchical fabric shape
            (:class:`~repro.net.topology.Topology`); ``None`` means the flat
            single-rack fabric matching the paper's testbed.  The topology's
            node count must equal the cluster's.
    """

    bandwidth: float = 1.25e9  # 10 Gbps
    latency: float = 5.0e-5
    rpc_latency: float = 1.7e-4
    memcpy_bandwidth: float = 5.0e9
    block_size: int = 4 * 1024 * 1024
    small_object_threshold: int = 64 * 1024
    reduce_block_compute_bandwidth: float = 2.0e10
    failure_detection_delay: float = 0.1
    num_directory_shards: int = 4
    topology: Optional["Topology"] = None

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.memcpy_bandwidth <= 0:
            raise ValueError("memcpy_bandwidth must be positive")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.latency < 0 or self.rpc_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.num_directory_shards <= 0:
            raise ValueError("num_directory_shards must be positive")
        if self.small_object_threshold < 0:
            raise ValueError("small_object_threshold must be non-negative")
        if self.reduce_block_compute_bandwidth <= 0:
            raise ValueError("reduce_block_compute_bandwidth must be positive")
        if self.failure_detection_delay < 0:
            raise ValueError("failure_detection_delay must be non-negative")

    def transmission_time(self, nbytes: float) -> float:
        """Serialization time of ``nbytes`` at the NIC rate."""
        return nbytes / self.bandwidth

    def memcpy_time(self, nbytes: float) -> float:
        """Time to copy ``nbytes`` between a worker and its local store."""
        return nbytes / self.memcpy_bandwidth

    def reduce_compute_time(self, nbytes: float) -> float:
        """Time to apply the reduce operator over ``nbytes``."""
        return nbytes / self.reduce_block_compute_bandwidth

    def num_blocks(self, nbytes: int) -> int:
        """Number of pipelining blocks an object of ``nbytes`` occupies."""
        if nbytes <= 0:
            return 1
        return -(-nbytes // self.block_size)

    def block_bytes(self, nbytes: int, block_index: int) -> int:
        """Size of block ``block_index`` of an object of ``nbytes``."""
        total = self.num_blocks(nbytes)
        if block_index < 0 or block_index >= total:
            raise IndexError(
                f"block {block_index} out of range for {nbytes}-byte object"
            )
        if block_index < total - 1:
            return self.block_size
        remainder = nbytes - self.block_size * (total - 1)
        return remainder if remainder > 0 else min(nbytes, self.block_size)

    def block_sizes(self, nbytes: int, lo: int, hi: int) -> list[int]:
        """Sizes of blocks ``[lo, hi)``: ``[block_bytes(nbytes, i) for i in range(lo, hi)]``.

        Every block but the object's last is ``block_size``, so a run of
        blocks costs one list allocation instead of one call per block.
        """
        if lo >= hi:
            return []
        total = self.num_blocks(nbytes)
        if lo < 0 or hi > total:
            raise IndexError(
                f"blocks [{lo}, {hi}) out of range for {nbytes}-byte object"
            )
        sizes = [self.block_size] * (hi - lo)
        if hi == total:
            sizes[-1] = self.block_bytes(nbytes, total - 1)
        return sizes


@dataclass
class ClusterSpec:
    """Shape of a simulated cluster.

    Attributes:
        num_nodes: number of physical nodes.
        workers_per_node: simulated task workers available on each node.
        network: the network configuration shared by all nodes.
    """

    num_nodes: int = 4
    workers_per_node: int = 4
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.workers_per_node <= 0:
            raise ValueError("workers_per_node must be positive")
