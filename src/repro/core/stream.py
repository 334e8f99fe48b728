"""The block-stream loop shared by Put copy-ins, Get pulls and reduce partials.

All three move an object into a local store entry one block at a time, and
each block moves as soon as its source holds it (Section 3.3):

* a pipelined ``Put`` copies the worker's buffer into the store over the
  node's memcpy channel (no source entry: every block is present);
* a ``Get`` pulls from a (possibly partial) remote copy over the NIC path;
* a reduce slot pulls a child's partial result into a staging entry, over
  the NIC path or, when child and parent share a node, the memcpy channel.

:func:`stream_blocks` is the one loop behind them.  Each iteration drives a
convoy run it was conscripted into, or starts a coalesced run over the
blocks whose arrival times are known, or tries to form a convoy over a
contended link, or else moves one block: wait for the source to hold it,
move it, account it, mark it ready (see :mod:`repro.net.coalesce` and
:mod:`repro.net.convoy` for the fast paths' exactness arguments).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.net import convoy
from repro.net.coalesce import (
    build_pull_run,
    coalesce_eligible,
    input_coverage,
    nic_path_links,
    register_stream,
    unregister_stream,
)
from repro.net.convoy import StreamHandle
from repro.net.flowsched import ADOPTED, Flow
from repro.net.node import Node
from repro.net.transport import TransferError, local_copy_block, transfer_block
from repro.store.object_store import StoredObject

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import HopliteRuntime


def stream_blocks(
    runtime: "HopliteRuntime",
    src: Node,
    dst: Node,
    entry: StoredObject,
    source_entry: Optional[StoredObject] = None,
    flow: Optional[Flow] = None,
    watch_dst: bool = False,
    before: Optional[Callable[[], Generator]] = None,
    after: Optional[Callable[[], Generator]] = None,
) -> Generator:
    """Stream the missing blocks of ``entry`` from ``src`` into ``dst``.

    ``source_entry`` is the copy the blocks come from; ``None`` means a Put
    copy-in from the worker's buffer.  A stream whose ends share a node
    rides the memcpy channel, any other the NIC path, with per-flow byte
    accounting on both stores.  ``watch_dst`` makes the per-block wait on
    the source also end when ``dst`` fails.  ``before`` and ``after`` are
    generator functions run while the stream is registered on its links:
    before the first block, and once every block is present.
    """
    config = runtime.config
    copy = src.node_id == dst.node_id
    if copy:
        src = dst
        links = [(dst.memcpy_channel, None)]
        account_out = account_in = None
    else:
        links = nic_path_links(src, dst)
        src_store = runtime.store(src)
        dst_store = runtime.store(dst)
        account_out = lambda nb: src_store.account_flow_out(flow, nb)  # noqa: E731
        account_in = lambda nb: dst_store.account_flow_in(flow, nb)  # noqa: E731
    handle = StreamHandle(
        "copy" if copy else "nic",
        config,
        src,
        dst,
        flow,
        links,
        entry,
        source_entry=source_entry,
        account_out=account_out,
        account_in=account_in,
    )
    # Announce the stream so a coalesced run sharing one of these links
    # re-splits before the per-block interleaving starts.
    register_stream(links, handle)
    try:
        if before is not None:
            yield from before()
        num_blocks = entry.num_blocks
        while entry.blocks_ready < num_blocks:
            handle.phase = convoy.TOP
            run = handle.adopted_run
            if run is not None:
                # A convoy formed around this stream while it was parked;
                # drive our planned share of it.
                handle.adopted_run = None
                handle.phase = convoy.RUN
                yield from run.run()
                continue
            block_index = entry.blocks_ready
            # Horizon: the blocks one coalesced run may cover — those present
            # at the source or due from its own coalesced run (the relay
            # cascade).  A copy-in's buffer holds every block.
            if source_entry is not None:
                horizon = input_coverage(source_entry, num_blocks)
            elif block_index >= 1 and entry._inflight is None:
                horizon = num_blocks
            else:
                # A copy-in's block 0 stays per-block: the parties that
                # disturb a copy-in (a consumer that needs per-block marks,
                # a second Put on this node) usually arrive during it, and
                # a run re-split at once costs more events than it saves.
                # Nor does a copy-in start a run while another writer's run
                # streams into the same entry.
                horizon = block_index
            long_enough = horizon - block_index >= 2 and not entry._no_coalesce
            if long_enough and coalesce_eligible(links, src, dst):
                run = build_pull_run(
                    config,
                    src,
                    dst,
                    flow,
                    links,
                    source_entry,
                    entry,
                    block_index,
                    horizon,
                    local_copy=copy,
                    account_out=account_out,
                    account_in=account_in,
                )
            elif long_enough or source_entry is None:
                # Exclusive coalescing declined (contended link): try the
                # convoy fast path over the lockstep group instead.  A
                # copy-in tries it on every block it does not coalesce.
                run = convoy.maybe_form(handle, block_index)
            else:
                run = None
            if run is not None:
                handle.phase = convoy.RUN
                yield from run.run()
                continue
            if source_entry is not None:
                if (
                    source_entry._inflight is not None
                    and source_entry.blocks_ready <= block_index
                ):
                    # This stream is about to park on the source's
                    # arithmetic schedule outside a coalesced run of its own
                    # (contended links, or a schedule tail too short to
                    # coalesce).  Its resume order against competing flows
                    # matters — and links can become contended while parked
                    # — so the source's marks must be delivered per-block
                    # from here on.
                    source_entry.decoalesce()
                gate = source_entry.wait_for_blocks(block_index + 1)
                handle.phase = convoy.GATE
                handle.gate_event = gate
                if watch_dst:
                    yield src.race_failure(gate, dst)
                else:
                    yield src.race_failure(gate)
                handle.gate_event = None
                if handle.poked:
                    handle.poked = False
                    continue
                if not src.alive or (watch_dst and not dst.alive):
                    raise TransferError(
                        f"node {src.node_id} failed during transfer", node=src
                    )
            nbytes = config.block_bytes(entry.size, block_index)
            if copy:
                result = yield from local_copy_block(config, dst, nbytes, handle)
                if result is ADOPTED:
                    continue
            else:
                result = yield from transfer_block(
                    config, src, dst, nbytes, flow, handle
                )
                if result is ADOPTED:
                    continue
                src_store.account_flow_out(flow, nbytes)
                dst_store.account_flow_in(flow, nbytes)
            entry.mark_block_ready(block_index)
        if after is not None:
            # Parked from here on: a completed, passive stream as far as any
            # later convoy formation is concerned.
            handle.phase = convoy.TOP
            yield from after()
    finally:
        if handle.preplaced is not None:
            handle.preplaced.cancel()
            handle.preplaced = None
        unregister_stream(links, handle)
