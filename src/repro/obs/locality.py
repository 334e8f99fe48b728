"""Event-locality analyzer: how much rack parallelism a PDES kernel gets.

ROADMAP item 3 proposes a conservative (lookahead-based) parallel kernel:
rack partitions advance independently inside a *safe window* whose length
is the minimum cross-partition propagation latency — any event one
partition schedules onto another lands at least one lookahead in the
future, so windows synchronize only at their boundaries.  Before building
that kernel we need its oracle: for a real workload, how many events are
actually rack-local, how often do partitions interact with *zero*
lookahead (the killer: cross-rack admission decisions inside a single
``MultiRequest``), and what speedup bound does the window model project?

This analyzer answers those questions from a single sequential run:

* **Ownership tagging.**  Instrumented sites (reservations, transfer
  timeouts, directory RPCs and waiter events, coalesced-run wake-ups)
  stamp each event they create with its owning node via a spare slot on
  :class:`~repro.sim.core.Event` (``_loc_owner``, never read by the
  kernel).  The analyzer's ``on_pop`` hook classifies every popped event:
  *tagged* (owner known — candidate for partition-local processing),
  *sync* (a cross-partition interaction at zero lookahead: a reservation
  claiming shared tier links, a cross-rack directory RPC), or *untagged*
  (bootstrap/condition/unattributed — counted as serial, conservatively).
* **Arrival classification.**  Cross-rack message *arrivals* are safe:
  their causal predecessor (transmission end at the source) precedes them
  by at least the path propagation latency, which is >= the lookahead.
  ``arrival()`` counts rack-local vs cross-rack deliveries so the report
  can state the fraction of causality that stays inside a rack.
* **Safe-window replay.**  For each candidate partition count ``k`` the
  analyzer computes the global lookahead (minimum fabric latency between
  any two nodes in different partitions), bins the tagged pops into
  windows of that length, and charges each window the *maximum* per-
  partition event count (the critical partition; others overlap under
  it).  Sync and untagged events are charged serially.  The projected
  speedup bound is ``total / (sum of window maxima + serial)`` — an upper
  bound: it prices imbalance and zero-lookahead coupling but not barrier
  or messaging overhead, so treat it as "no PDES kernel can beat this",
  not as a forecast.

Determinism: tagging writes one inert slot per event and the hook only
appends to analyzer-private arrays — simulated results are byte-identical
with the analyzer on or off (the differential fuzz band pins this).  The
report itself is a pure function of the simulated run and is therefore
deterministic.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Event

#: ``_loc_owner`` sentinel for zero-lookahead cross-partition interactions.
_SYNC = -2

#: hypothetical partition counts evaluated in addition to the topology's
#: actual rack count.
_CANDIDATE_PARTITIONS = (2, 4, 8, 16, 32, 64)


class LocalityAnalyzer:
    """Classify every popped event by owning node; project PDES speedup.

    Attach with ``cluster.enable_locality_analyzer()`` (which chains the
    simulator's ``on_pop`` hook and sets ``sim.locality`` for the tagging
    sites).  Read results with :meth:`report`.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.num_nodes = cluster.topology.num_nodes
        #: pop timestamps / owning node per *tagged* event, append-only.
        self.times = array("d")
        self.nodes = array("i")
        self.total_pops = 0
        self.untagged_pops = 0
        self.sync_pops = 0
        #: zero-lookahead interaction breakdown (subset of ``sync_pops``).
        self.cross_tier_reservations = 0
        self.cross_rack_rpcs = 0
        #: message deliveries by rack relation of (src, dst).
        self.arrivals_local = 0
        self.arrivals_cross = 0
        self.last_time = 0.0
        self._same_rack = cluster.topology.same_rack

    # -- tagging sites (guarded by ``sim.locality is not None``) ----------
    def tag(self, event: "Event", node_id: int) -> None:
        """Stamp ``event`` as owned by ``node_id``'s partition."""
        event._loc_owner = node_id

    def tag_sync_reservation(self, event: "Event") -> None:
        """A reservation whose claim set spans shared tier links."""
        event._loc_owner = _SYNC
        self.cross_tier_reservations += 1

    def tag_sync_rpc(self, event: "Event") -> None:
        """A directory RPC crossing racks (requester -> remote shard)."""
        event._loc_owner = _SYNC
        self.cross_rack_rpcs += 1

    def arrival(self, src_id: int, dst_id: int, count: int = 1) -> None:
        """Record ``count`` message deliveries from ``src`` to ``dst``."""
        if self._same_rack(src_id, dst_id):
            self.arrivals_local += count
        else:
            self.arrivals_cross += count

    # -- the pop hook (chained onto ``Simulator.on_pop``) -----------------
    def on_pop(self, when: float, seq: int, event: "Event") -> None:
        self.total_pops += 1
        node = getattr(event, "_loc_owner", -1)
        if node >= 0:
            self.times.append(when)
            self.nodes.append(node)
        elif node == -1:
            self.untagged_pops += 1
        else:
            self.sync_pops += 1
        self.last_time = when

    # -- the oracle -------------------------------------------------------
    def _lookahead(self, k: int) -> float:
        """Minimum fabric latency between nodes in different partitions."""
        n = self.num_nodes
        fabric = self.cluster.fabric
        best = float("inf")
        for a in range(n):
            part_a = a * k // n
            for b in range(a + 1, n):
                if b * k // n != part_a:
                    lat = fabric.latency(a, b)
                    if lat < best:
                        best = lat
        return 0.0 if best == float("inf") else best

    def _window_speedup(self, k: int, lookahead: float) -> float:
        """Safe-window replay: total events over the critical-path cost."""
        total = self.total_pops
        serial = self.untagged_pops + self.sync_pops
        if total == 0 or lookahead <= 0.0 or k <= 1:
            return 1.0
        n = self.num_nodes
        counts = [0] * k
        current_window = -1
        parallel_cost = 0
        for when, node in zip(self.times, self.nodes):
            window = int(when / lookahead)
            if window != current_window:
                if current_window >= 0:
                    parallel_cost += max(counts)
                    counts = [0] * k
                current_window = window
            counts[node * k // n] += 1
        if current_window >= 0:
            parallel_cost += max(counts)
        denominator = parallel_cost + serial
        return round(total / denominator, 2) if denominator else 1.0

    def report(self) -> dict:
        """Locality summary plus the projected PDES speedup bound per k."""
        topology = self.cluster.topology
        total = self.total_pops
        tagged = len(self.nodes)
        arrivals = self.arrivals_local + self.arrivals_cross
        per_rack = [0] * topology.num_racks
        rack_of = topology.rack_of
        for node in self.nodes:
            per_rack[rack_of(node)] += 1
        mean_rack = (sum(per_rack) / len(per_rack)) if per_rack else 0.0
        balance = (max(per_rack) / mean_rack) if mean_rack else 1.0

        ks = sorted(
            {k for k in _CANDIDATE_PARTITIONS if 2 <= k <= self.num_nodes}
            | ({topology.num_racks} if topology.num_racks > 1 else set())
        )
        pdes = {}
        for k in ks:
            lookahead = self._lookahead(k)
            pdes[str(k)] = {
                "lookahead_s": lookahead,
                "projected_speedup_bound": self._window_speedup(k, lookahead),
            }
        return {
            "clock": "sim",
            "events": total,
            "tagged_fraction": round(tagged / total, 4) if total else 0.0,
            "sync_events": self.sync_pops,
            "sync_fraction": round(self.sync_pops / total, 4) if total else 0.0,
            # tagged non-sync events: causal predecessors are rack-local or
            # at least one lookahead in the past — processable inside their
            # partition without cross-partition coordination.
            "lookahead_safe_fraction": round(tagged / total, 4) if total else 0.0,
            "cross_tier_reservations": self.cross_tier_reservations,
            "cross_rack_rpcs": self.cross_rack_rpcs,
            "sync_per_sim_s": (
                round(self.sync_pops / self.last_time, 1) if self.last_time else 0.0
            ),
            "arrivals": {
                "total": arrivals,
                "rack_local": self.arrivals_local,
                "cross_rack": self.arrivals_cross,
                "rack_local_fraction": (
                    round(self.arrivals_local / arrivals, 4) if arrivals else 1.0
                ),
            },
            "racks": {
                "count": topology.num_racks,
                "events_per_rack": per_rack,
                "load_balance_max_over_mean": round(balance, 3),
            },
            "pdes": pdes,
        }


def format_locality_report(report: dict) -> str:
    """Render a :meth:`LocalityAnalyzer.report` dict for the bench CLI."""
    arrivals = report["arrivals"]
    racks = report["racks"]
    lines = [
        f"events {report['events']}: "
        f"{report['lookahead_safe_fraction'] * 100.0:.1f}% lookahead-safe, "
        f"{report['sync_fraction'] * 100.0:.2f}% zero-lookahead sync "
        f"({report['cross_tier_reservations']} cross-tier reservations, "
        f"{report['cross_rack_rpcs']} cross-rack RPCs, "
        f"{report['sync_per_sim_s']:.0f}/sim-s)",
        f"arrivals {arrivals['total']}: "
        f"{arrivals['rack_local_fraction'] * 100.0:.1f}% rack-local",
        f"racks {racks['count']}: load balance (max/mean) "
        f"{racks['load_balance_max_over_mean']:.2f}",
        f"{'partitions':>10s} {'lookahead':>12s} {'speedup<=':>10s}",
    ]
    for k, row in sorted(report["pdes"].items(), key=lambda kv: int(kv[0])):
        lines.append(
            f"{k:>10s} {row['lookahead_s'] * 1e6:>10.1f}us "
            f"{row['projected_speedup_bound']:>9.2f}x"
        )
    return "\n".join(lines)
