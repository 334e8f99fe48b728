"""Block-granularity data movement between nodes and inside nodes.

The transfer primitives are generator functions meant to be driven by the
simulation kernel (``yield from transfer_bytes(...)`` inside a process).

Model
-----
Moving ``nbytes`` from node A to node B:

1. the bytes are split into blocks of at most ``block_size``;
2. each block is **admitted** by the flow scheduler
   (:mod:`repro.net.flowsched`): a reservation claims A's uplink slot and
   B's downlink slot atomically, granted only when both are free at the same
   instant;
3. the granted block occupies both slots for the serialization time
   ``block / bandwidth`` (cut-through, bottleneck at the NIC rate), then
   arrives after one extra propagation ``latency``.

Because a pending reservation holds nothing, a sender whose flow toward one
busy receiver is still queued keeps serving its flows toward idle receivers
— there is no head-of-line blocking — and because claims are atomic the
resource graph cannot deadlock.  Concurrent transfers that share a NIC
direction interleave block by block, which approximates TCP fair sharing
and — more importantly for this paper — reproduces the sender-side
bottleneck of naive broadcast and the receiver-side bottleneck of flat
(d = n) reduce.  Transfers carry :class:`~repro.net.flowsched.Flow` metadata
(a flow id for per-flow bandwidth accounting and a priority class ordering
control > reduce-partial > bulk in the admission queues).

Zero-byte moves — remote or local — complete immediately at the current
simulated time: no link slot, no serialization, no propagation latency, the
same contract for :func:`transfer_bytes` and :func:`local_copy`.

Failures
--------
If either endpoint fails, in-flight and future blocks of the transfer raise
:class:`TransferError`; a reservation still waiting for admission is
cancelled (withdrawn from every queue) first.  The failure-*detection* delay
is modelled where the paper's protocols pay it: in the retry loops of the
layers above, which sleep ``failure_detection_delay`` before re-resolving a
source — exactly like a broken TCP connection being noticed by its peer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Generator, Optional

from repro.net.coalesce import (
    CoalescedRun,
    coalesce_eligible,
    nic_path_links,
    register_stream,
    run_blocks,
    unregister_stream,
)
from repro.net.config import NetworkConfig
from repro.net.errors import NodeFailedError, TransferError, _check_alive
from repro.net.flowsched import (
    ADOPTED,
    DEFAULT_FLOW,
    PHASE_ADMIT,
    PHASE_TX,
    Flow,
    FlowTransport,
    path_latency,
    path_transmission_time,
)
from repro.net.node import Node

__all__ = [
    "TransferError",
    "NodeFailedError",
    "transfer_block",
    "transfer_bytes",
    "local_copy",
    "local_copy_block",
    "control_rpc",
]


@lru_cache(maxsize=64)
def _flow_transport(config: NetworkConfig) -> FlowTransport:
    """One stateless FlowTransport per config (it was allocated per block)."""
    return FlowTransport(config)


def transfer_block(
    config: NetworkConfig,
    src: Node,
    dst: Node,
    nbytes: int,
    flow: Optional[Flow] = None,
    handle=None,
) -> Generator:
    """Move a single block from ``src`` to ``dst``.

    Returns (via StopIteration) the simulated time at which the block is
    fully available at the destination — or :data:`~repro.net.flowsched.ADOPTED`
    when ``handle`` (a convoy stream handle) was conscripted by a convoy
    formation while the block waited for admission.
    """
    result = yield from _flow_transport(config).transfer_block(
        src, dst, nbytes, flow, handle
    )
    return result


def transfer_bytes(
    config: NetworkConfig,
    src: Node,
    dst: Node,
    nbytes: int,
    flow: Optional[Flow] = None,
) -> Generator:
    """Move ``nbytes`` from ``src`` to ``dst`` as a sequence of blocks.

    This is the non-pipelined building block: the caller observes completion
    only once every block has arrived.  Pipelined consumers drive
    :func:`transfer_block` themselves so they can observe per-block progress.
    Zero-byte moves complete immediately (see the module docstring).
    """
    result = yield from _move(config, src, dst, nbytes, flow or DEFAULT_FLOW, False)
    return result


def _move(
    config: NetworkConfig,
    src: Node,
    dst: Node,
    nbytes: int,
    flow: Optional[Flow],
    copy: bool,
) -> Generator:
    """The loop behind :func:`transfer_bytes` and :func:`local_copy`.

    A ``copy`` moves over the node's memcpy channel, anything else over the
    NIC path.  Coalesced fast path: the rest of the object in one
    timeline event while this stream has its links to itself (see
    net/coalesce for the exactness argument); any disturbance re-splits
    back to per-block.
    """
    sim = src.sim
    if nbytes <= 0:
        _check_alive(src, dst)
        return sim.now
    total_blocks = config.num_blocks(nbytes)
    if copy:
        links = [(dst.memcpy_channel, None)]
        time_of = config.memcpy_time
    else:
        links = nic_path_links(src, dst)
        time_of = lambda nb: path_transmission_time(config, src, dst, nb)  # noqa: E731
    register_stream(links)
    try:
        index = 0
        while index < total_blocks:
            if total_blocks - index >= 2 and coalesce_eligible(links, src, dst):
                sizes, tx = run_blocks(config, nbytes, index, total_blocks, time_of)
                latency = 0.0 if copy else path_latency(config, src, dst)
                run = CoalescedRun(sim, src, dst, flow, sizes, tx, latency, links)
                index += yield from run.run()
                continue
            nbytes_j = config.block_bytes(nbytes, index)
            if copy:
                yield from local_copy_block(config, dst, nbytes_j)
            else:
                yield from transfer_block(config, src, dst, nbytes_j, flow)
            index += 1
    finally:
        unregister_stream(links)
    return sim.now


def local_copy_block(
    config: NetworkConfig, node: Node, nbytes: int, handle=None
) -> Generator:
    """Copy one block between a worker and the local object store.

    ``handle`` follows the same convoy contract as :func:`transfer_block`:
    phases kept current, a preplaced request consumed, and
    :data:`~repro.net.flowsched.ADOPTED` returned when a formation withdrew
    the queued request.
    """
    sim = node.sim
    _check_alive(node)
    if handle is not None and handle.preplaced is not None:
        req = handle.preplaced
        handle.preplaced = None
    else:
        req = node.memcpy_channel.request()
    if handle is not None:
        handle.phase = PHASE_ADMIT
        handle.request = req
    try:
        yield req
        if handle is not None and handle.poked:
            handle.poked = False
            return ADOPTED
        _check_alive(node)
        copy_t = config.memcpy_time(nbytes)
        if handle is not None:
            handle.phase = PHASE_TX
            handle.tx_end = sim._now + copy_t
        yield sim.timeout(copy_t)
        _check_alive(node)
    finally:
        node.memcpy_channel.release(req)
        if handle is not None:
            handle.request = None
    return sim.now


def local_copy(config: NetworkConfig, node: Node, nbytes: int) -> Generator:
    """Copy ``nbytes`` between a worker and the local store, block by block.

    Zero-byte copies complete immediately — the same contract as
    :func:`transfer_bytes`.
    """
    result = yield from _move(config, node, node, nbytes, None, True)
    return result


def control_rpc(config: NetworkConfig, src: Node, dst: Node) -> Generator:
    """A small control-plane round trip (directory query, notification).

    Control messages ride the latency path only (they never contend for the
    bulk link slots), which is exactly the CONTROL > data ordering of the
    flow classes; the round trip is recorded in the sender's flow accounting
    so utilization reports see the control plane.
    """
    sim = src.sim
    _check_alive(src, dst)
    if src.node_id == dst.node_id:
        # Local shard access still pays a (smaller) IPC cost.
        yield sim.timeout(config.rpc_latency / 4.0)
    else:
        src.uplink_sched.record_control()
        yield sim.timeout(config.rpc_latency)
    _check_alive(src, dst)
    return sim.now
