"""Unified fast-path control and per-cluster fast-path statistics.

The coalesce (PR 5) and convoy (PR 6) fast paths each grew a module-global
``ENABLED`` kill switch and, in convoy's case, a module-global ``STATS``
dict.  Both were footguns: an A/B ablation could flip one switch and not
the other (half-toggled, the convoy planner still consults coalesce state),
and the counters leaked across scenarios sharing a process, so the second
run of an identical scenario reported inflated numbers.

This module is the single front door:

* :func:`fastpath` — a context manager that toggles *both* switches
  atomically and restores the previous state on exit, so ablations and the
  differential fuzz harness cannot half-toggle;
* :class:`FastpathStats` — the counters, scoped per
  :class:`~repro.net.cluster.Cluster` (``cluster.fastpath_stats``), so
  back-to-back runs of the same scenario in one process report identical
  values.  Nodes built without a cluster (micro unit tests) fall back to a
  module-level orphan sink that exists only so counting never crashes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node

#: every counter key, in reporting order.  The first five are the convoy
#: planner's (formerly ``repro.net.convoy.STATS``); the last two count the
#: exclusive coalesced path.
COUNTER_KEYS = (
    "domains_formed",
    "members_enrolled",
    "blocks_planned",
    "materializations",
    "refusals",
    "coalesced_runs",
    "resplits",
)


class FastpathStats:
    """Fast-path observability counters for one cluster.

    Purely observational: incrementing a counter never schedules an event
    or perturbs admission, so digests are identical with or without anyone
    reading them.  ``on_event`` is an optional hook the observability plane
    installs to mirror increments into a :class:`MetricsRegistry` counter.
    """

    __slots__ = ("counts", "on_event")

    def __init__(self) -> None:
        self.counts = {key: 0 for key in COUNTER_KEYS}
        self.on_event: Optional[Callable[[str, int], None]] = None

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] += n
        if self.on_event is not None:
            self.on_event(key, n)

    def reset(self) -> None:
        for key in self.counts:
            self.counts[key] = 0

    def as_dict(self) -> dict:
        return dict(self.counts)

    def __getitem__(self, key: str) -> int:
        return self.counts[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.counts.items())
        return f"FastpathStats({inner})"


#: Sink for nodes that have no cluster.  Never read by the benchmarks —
#: they all run on clusters — it only keeps bare-Node unit setups counting.
_ORPHAN = FastpathStats()


def stats_for(node: "Node") -> FastpathStats:
    """The counters a fast-path event on ``node`` should land in."""
    cluster = node.cluster
    if cluster is None:
        return _ORPHAN
    return cluster.fastpath_stats


def is_enabled() -> bool:
    """True when both fast paths are on (the only supported combinations
    are both-on and both-off; see :func:`fastpath`)."""
    from repro.net import coalesce, convoy  # deferred: they import stats_for

    return coalesce.ENABLED and convoy.ENABLED


@contextmanager
def fastpath(enabled: bool = True):
    """Run a block with both fast paths forced on or off, then restore.

    The convoy planner assumes the exclusive coalesced path exists (a
    convoy of one is refused because coalescing covers it), so the two
    switches only make sense toggled together — this is the supported way
    to A/B the fast paths::

        with fastpath(False):
            baseline = run_scenario(...)
        with fastpath(True):
            fast = run_scenario(...)
    """
    from repro.net import coalesce, convoy  # deferred: they import stats_for

    saved = (coalesce.ENABLED, convoy.ENABLED)
    coalesce.ENABLED = enabled
    convoy.ENABLED = enabled
    try:
        yield
    finally:
        coalesce.ENABLED, convoy.ENABLED = saved
