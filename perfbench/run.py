#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload contended --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer wrapper
installed (the ``obs`` plane stays off in every timed pass).  Host times
are rescaled to a nominal host by reference samples taken during each
pass (:mod:`hostspeed`), so a shared host's changing speed does not show
as a change of the program.  ``--trace 1``
runs the same passes untraced, then again with the per-layer wrappers of
:mod:`tracing` installed, and prints the per-layer metrics; a final
untimed pass turns ``obs`` on only to take the critical-path blame.

Every run checks correctness and exits 1 on any violation:

* every collective and fleet job completes, and every Hoplite result has
  ``x_optimal >= 1`` (nothing beats its analytic bound);
* a value-carrying canary puts numpy payloads through Hoplite reduce,
  allreduce and alltoall and compares them with numpy;
* determinism: the ObjectID counter is reset per cluster instance, and the
  simulated results, kernel event counts and layer counts must be
  identical across passes and between untraced and traced passes.

The last line of standard output is the JSON result; the lines before it
are a human-readable table with units and sample counts.  Workload
rationale and the expected layer/metric interactions are in
``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REF_EVENTS_PER_SAMPLE, REF_NOMINAL_S, reference_sample

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: untimed subprocess samples of the import cost, one after each of the
#: first timed passes, so they spread over the run.
IMPORT_SAMPLES = 7
#: passes of each kind, at least; a run stops at ``--seconds`` otherwise,
#: so its length stays bounded on a slow host.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "blocks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "events_per_block": "events/block",
    "sim_x_optimal_p50": "x",
    "sim_x_optimal_max": "x",
    "sim_job_latency_p50_s": "sim_s",
    "sim_job_latency_tail_s": "sim_s",
    "sim_fault_slowdown_p50": "x",
    "sim_replay_vs_restart": "x",
}


def tail(values, few):
    """(value, percentile): the highest percentile with >= 10 samples beyond it.

    Below 20 samples that order statistic falls under the median, and
    ``few`` is reported instead: ``"median"`` for host times (a maximum of
    a handful of noisy passes would only measure the noise), ``"max"`` for
    exact simulated latencies.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    if few == "median":
        return statistics.median(ordered), 50.0
    return ordered[-1], 100.0


# ---------------------------------------------------------------------------
# hooks into the program (all from outside: no file under src/ changes)
# ---------------------------------------------------------------------------


class Harness:
    """Cluster/runtime hooks and the set-up clock, shared by every pass."""

    def __init__(self):
        import repro.core.runtime as runtime_mod
        import repro.net.cluster as cluster_mod
        from repro.sim.core import Simulator
        from repro.store.objects import reset_id_counter

        self.clusters: list = []
        self.directories: list = []
        self.observe = False
        self.obs_planes: list = []
        self.tracer = None
        #: clusters built so far in the current pass (span instance ids).
        self.instance_count = 0
        #: host seconds from a cell's start (or the previous run's end) to a
        #: fresh simulator's first event: cluster and runtime construction.
        self.setup_s = 0.0
        #: host seconds outermost layer spans covered inside Simulator.run.
        self.covered_in_run = 0.0
        #: where in-run reference samples go (the current pass's list), and
        #: the host seconds they took; None turns in-run sampling off.
        self.ref_samples: list | None = None
        self.sampling_s = 0.0
        self._mark = perf_counter()
        harness = self
        left = REF_EVENTS_PER_SAMPLE

        def sample_during_run(_when):
            # Kernel ``on_step`` hook: a reference sample every
            # REF_EVENTS_PER_SAMPLE events, so the host's speed is known
            # inside long cells too.  Purely observational.
            nonlocal left
            left -= 1
            if left:
                return
            left = REF_EVENTS_PER_SAMPLE
            start = perf_counter()
            harness.ref_samples.append(reference_sample())
            harness.sampling_s += perf_counter() - start

        def on_cluster(cluster):
            # One ObjectID sequence per instance: a scenario that calibrates
            # on a fault-free run and then re-runs faulted builds the same
            # objects both times.
            reset_id_counter()
            if self.tracer is not None:
                self.tracer.instances[id(cluster.sim)] = self.instance_count
            self.instance_count += 1
            self.clusters.append(cluster)
            if self.observe:
                self.obs_planes.append(cluster.enable_observability(trace_transfers=True))
            elif self.tracer is None and self.ref_samples is not None:
                cluster.sim.on_step = sample_during_run

        def on_runtime(runtime):
            self.directories.append(runtime.directory)

        cluster_mod.ON_CREATE = on_cluster
        runtime_mod.ON_CREATE = on_runtime

        original_run = Simulator.run

        def run(sim, until=None):
            start = perf_counter()
            if sim.events_processed == 0:
                harness.setup_s += start - harness._mark
            tracer = harness.tracer
            covered = tracer.covered_s if tracer is not None else 0.0
            try:
                return original_run(sim, until)
            finally:
                if tracer is not None:
                    harness.covered_in_run += tracer.covered_s - covered
                harness._mark = perf_counter()

        Simulator.run = run

    def begin_cell(self):
        self._mark = perf_counter()


def cell_counters(clusters, directories):
    """Deterministic counts of one cell's clusters (events, fast paths, directory)."""
    events = sum(c.sim.events_processed for c in clusters)
    fastpath: dict = {}
    for cluster in clusters:
        for key, value in cluster.fastpath_stats.as_dict().items():
            fastpath[key] = fastpath.get(key, 0) + value
    directory = {
        key: sum(getattr(d, key) for d in directories)
        for key in (
            "lookup_count", "publish_count", "notify_calls", "waiter_wakes",
            "eligibility_scans", "eligibility_candidates",
        )
    }
    return {"events": events, "fastpath": fastpath, "directory": directory}


def flow_counters(clusters):
    from repro.bench.scenarios import collect_flow_usage

    control = 0
    peak = 0.0
    for cluster in clusters:
        usage = collect_flow_usage(cluster)
        control += usage["control_messages"]
        peak = max(peak, usage["max_uplink_utilization"])
    return {"control_messages": control, "max_uplink_utilization": peak}


class PassResult:
    def __init__(self):
        #: raw host seconds of the pass, set-up and glue excluded.
        self.wall = 0.0
        self.setup = 0.0
        #: reference samples taken at every cell boundary of the pass and
        #: every REF_EVENTS_PER_SAMPLE kernel events inside its runs.
        self.ref_samples: list = []
        #: nominal over measured reference time: host speed during the pass.
        self.scale = 1.0
        self.covered = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outcomes: list = []
        #: per cell: (name, outcome, deterministic counters).
        self.fingerprint: list = []
        self.events = 0
        self.blocks = 0
        self.fastpath: dict = {}
        self.directory: dict = {}
        self.flow = {"control_messages": 0, "max_uplink_utilization": 0.0}
        self.layer_self: dict = {}
        self.layer_calls: dict = {}
        self.layer_sim: dict = {}
        self.grant_wait = 0.0
        self.task_systems: list = []
        self.orchestrators: list = []


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


def sample_host_speed(result) -> float:
    """Take one reference sample into ``result``; return the host seconds spent."""
    start = perf_counter()
    result.ref_samples.append(reference_sample())
    return perf_counter() - start


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(harness: Harness, workload) -> PassResult:
    from repro.store.objects import reset_id_counter

    gc.collect()
    result = PassResult()
    harness.setup_s = 0.0
    harness.covered_in_run = 0.0
    harness.instance_count = 0
    tracer = harness.tracer
    untimed = 0.0
    harness.ref_samples = result.ref_samples
    harness.sampling_s = 0.0
    start = perf_counter()
    for cell in workload.cells:
        untimed += sample_host_speed(result)
        reset_id_counter()
        first_cluster = len(harness.clusters)
        first_dir = len(harness.directories)
        harness.begin_cell()
        result.attempted += cell.ops
        try:
            outcome = cell.run()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            result.failed += cell.ops
            result.errors.append(f"{cell.name}: {type(exc).__name__}: {exc}")
            continue
        glue = perf_counter()
        below = [x for x in outcome.x_optimal if not x >= 1.0]
        if below:
            result.failed += 1
            result.errors.append(f"{cell.name}: x_optimal {below} below the analytic bound")
        clusters = harness.clusters[first_cluster:]
        counters = cell_counters(clusters, harness.directories[first_dir:])
        if tracer is not None:
            flow = flow_counters(clusters)
            result.flow["control_messages"] += flow["control_messages"]
            result.flow["max_uplink_utilization"] = max(
                result.flow["max_uplink_utilization"], flow["max_uplink_utilization"]
            )
        result.outcomes.append(outcome)
        result.fingerprint.append((cell.name, outcome, counters))
        result.events += counters["events"]
        result.blocks += outcome.blocks
        for key, value in counters["fastpath"].items():
            result.fastpath[key] = result.fastpath.get(key, 0) + value
        for key, value in counters["directory"].items():
            result.directory[key] = result.directory.get(key, 0) + value
        # Drop the cell's clusters; the hooks only need them until counted.
        del harness.clusters[first_cluster:]
        del harness.directories[first_dir:]
        untimed += perf_counter() - glue
    untimed += sample_host_speed(result)
    total = perf_counter() - start
    harness.ref_samples = None
    result.setup = harness.setup_s
    result.wall = total - harness.setup_s - untimed - harness.sampling_s
    # Samples are spaced by work (events, cells), so their mean slowdown is
    # the pass's slowdown.
    result.scale = REF_NOMINAL_S / statistics.fmean(result.ref_samples)
    result.covered = harness.covered_in_run
    if tracer is not None:
        result.layer_self = dict(tracer.self_s)
        result.layer_calls = dict(tracer.calls)
        result.layer_sim = dict(tracer.sim_s)
        result.grant_wait = tracer.grant_wait_sim_s
        result.task_systems = list(tracer.task_systems)
        result.orchestrators = list(tracer.orchestrators)
    return result


def measure_import() -> float:
    """Import cost of the program in a fresh interpreter, in raw host seconds."""
    code = (
        "import time; t = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def simulated_metrics(ref: PassResult) -> dict:
    latencies = [x for o in ref.outcomes for x in o.latencies]
    x_optimal = [x for o in ref.outcomes for x in o.x_optimal]
    slowdowns = [x for o in ref.outcomes for x in o.slowdowns]
    replays = [x for o in ref.outcomes for x in o.replay_ratios]
    latency_tail, latency_pct = tail(latencies, "max")
    # Workloads that inject no faults report the neutral ratio 1: their
    # faulted instance is their fault-free instance.
    return {
        "events_per_block": (ref.events / ref.blocks, None),
        "sim_x_optimal_p50": (statistics.median(x_optimal), f"n={len(x_optimal)}"),
        "sim_x_optimal_max": (max(x_optimal), f"n={len(x_optimal)}"),
        "sim_job_latency_p50_s": (statistics.median(latencies), f"n={len(latencies)}"),
        "sim_job_latency_tail_s": (
            latency_tail, f"p{latency_pct:.1f} of n={len(latencies)}"
        ),
        "sim_fault_slowdown_p50": (
            statistics.median(slowdowns) if slowdowns else 1.0,
            f"n={len(slowdowns)}" if slowdowns else "no faults injected",
        ),
        "sim_replay_vs_restart": (
            statistics.median(replays) if replays else 1.0,
            f"n={len(replays)}" if replays else "no control-plane kill",
        ),
    }


def layer_metrics(traced: list, untraced_wall: float, blocks: int, critpath: dict) -> dict:
    """Per-pass layer metrics; host times are medians over the traced passes."""
    ref = traced[0]

    def self_s(prefix):
        return statistics.median(
            sum(v for k, v in p.layer_self.items() if k == prefix or k.startswith(prefix + "."))
            for p in traced
        )

    def calls(prefix):
        return sum(
            v for k, v in ref.layer_calls.items() if k == prefix or k.startswith(prefix + ".")
        )

    def sim(bucket):
        return ref.layer_sim.get(bucket, 0.0)

    fp = ref.fastpath
    slowpath = calls("net.transfer_entry")
    directory = ref.directory
    retries = calls("tasksys.retry")
    adoptions = sum(ts.metrics.adoptions for ts in ref.task_systems) + sum(
        o.metrics["root_adoptions"] + o.metrics["target_adoptions"] + o.metrics["source_adoptions"]
        for o in ref.orchestrators
    )
    traced_wall = statistics.median(p.wall for p in traced)
    covered = statistics.median(p.covered / p.wall for p in traced)
    metrics = {
        "sim.events": (ref.events, "count"),
        "sim.events_per_host_s": (ref.events / untraced_wall, "1/s"),
        "sim.dispatch_self_s": (self_s("sim.dispatch"), "s"),
        "sim.admission_calls": (calls("sim.admission"), "count"),
        "sim.admission_self_s": (self_s("sim.admission"), "s"),
        "net.self_s": (self_s("net"), "s"),
        "net.slowpath_blocks": (slowpath, "count"),
        "net.slowpath_per_block": (slowpath / blocks, "ratio"),
        "net.transfer_self_s": (
            self_s("net.transfer_entry") + self_s("net.transfer"), "s"
        ),
        "net.grant_wait_sim_s": (ref.grant_wait, "sim_s"),
        "net.coalesced_block_share": (1.0 - slowpath / blocks, "ratio"),
        "net.coalesced_runs": (fp.get("coalesced_runs", 0), "count"),
        "net.resplits": (fp.get("resplits", 0), "count"),
        "net.coalesce_self_s": (self_s("net.coalesce"), "s"),
        "net.convoy_domains": (fp.get("domains_formed", 0), "count"),
        "net.convoy_refusals": (fp.get("refusals", 0), "count"),
        "net.convoy_self_s": (self_s("net.convoy"), "s"),
        "net.control_messages": (ref.flow["control_messages"], "count"),
        "net.max_uplink_utilization": (ref.flow["max_uplink_utilization"], "ratio"),
        "directory.calls": (calls("directory"), "count"),
        "directory.self_s": (self_s("directory"), "s"),
        "directory.wait_sim_s": (sim("directory.wait"), "sim_s"),
        "directory.candidates_per_scan": (
            directory["eligibility_candidates"] / max(1, directory["eligibility_scans"]), "ratio",
        ),
        "directory.wakes_per_notify": (
            directory["waiter_wakes"] / max(1, directory["notify_calls"]), "ratio",
        ),
        "directory.wal_appends": (calls("directory.wal"), "count"),
        "store.calls": (calls("store"), "count"),
        "store.self_s": (self_s("store"), "s"),
        "store.objects_created": (calls("store.create"), "count"),
        "core.ops": (calls("core.op") + calls("core.get"), "count"),
        "core.self_s": (self_s("core"), "s"),
        "core.get_sim_s": (sim("core.get"), "sim_s"),
        "collectives.ops": (calls("collectives.op"), "count"),
        "collectives.self_s": (self_s("collectives"), "s"),
        "tasksys.tasks_submitted": (calls("tasksys.submit"), "count"),
        "tasksys.retries": (retries, "count"),
        "tasksys.adoptions_per_retry": (
            adoptions / retries if retries else 0.0, "ratio",
        ),
        "tasksys.wal_appends": (calls("tasksys.wal"), "count"),
        "tasksys.wal_self_s": (
            self_s("tasksys.wal") + self_s("tasksys.wal_checkpoint"), "s",
        ),
        "tasksys.replay_self_s": (self_s("tasksys.replay"), "s"),
        "tasksys.recovery_sim_s": (
            sim("tasksys.retry") + sim("tasksys.recovery"), "sim_s",
        ),
    }
    for category, share in critpath.items():
        metrics[f"critpath.{category}"] = (share, "share")
    metrics["trace.unattributed_share"] = (max(0.0, 1.0 - covered), "share")
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "x")
    return metrics


def critpath_shares(planes) -> dict:
    from repro.obs.critpath import CATEGORIES, cluster_blame

    total = 0.0
    categories = {c: 0.0 for c in CATEGORIES}
    for index, obs in enumerate(planes):
        blame = cluster_blame(obs, f"instance-{index}")
        total += blame.length
        for category, value in blame.categories.items():
            categories[category] += value
    return {c: (categories[c] / total if total > 0 else 0.0) for c in CATEGORIES}


def layer_table(traced: list, wall: float) -> list[str]:
    from tracing import LAYERS

    rows = ["layer self time per traced pass (host seconds, median over passes):"]
    for layer in LAYERS:
        seconds = statistics.median(
            sum(v for k, v in p.layer_self.items() if k.split(".", 1)[0] == layer)
            for p in traced
        )
        calls = sum(v for k, v in traced[0].layer_calls.items() if k.split(".", 1)[0] == layer)
        rows.append(f"  {layer:<12} {seconds:10.4f} s  {100 * seconds / wall:6.1f}%  calls={calls}")
    covered = statistics.median(p.covered for p in traced)
    share = 100 * (1 - covered / wall)
    rows.append(f"  {'unattributed':<12} {wall - covered:10.4f} s  {share:6.1f}%")
    return rows


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def timed_passes(harness, workload, seconds, import_samples=None) -> list:
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(run_pass(harness, workload))
        if import_samples is not None and len(import_samples) < IMPORT_SAMPLES:
            # Rescaled by the host speed of the pass just before it.
            import_samples.append((measure_import(), passes[-1].scale))
    return passes


def check_same(ref, passes, what, errors) -> None:
    for index, result in enumerate(passes):
        if result.fingerprint != ref.fingerprint:
            errors.append(f"{what} pass {index} differs from the reference pass")


def emit(correct, attempted, failed, metrics, lines) -> None:
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program sources at {SRC}; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload](args.seed)
    harness = Harness()
    errors: list[str] = []
    attempted = failed = 0

    def account(results):
        nonlocal attempted, failed
        for result in results:
            attempted += result.attempted
            failed += result.failed
            errors.extend(result.errors)

    # Warm-up: caches and lazy set-up fill here; its results are the
    # reference every later pass must reproduce exactly.
    reference = run_pass(harness, workload)
    account([reference])
    canary_errors = workloads.run_canary(args.seed, workload.canary_network)
    attempted += 3
    failed += min(3, len(canary_errors))
    errors.extend(f"canary: {e}" for e in canary_errors)

    lines: list[str] = []
    if not args.trace:
        import_samples: list = []
        passes = timed_passes(harness, workload, args.seconds, import_samples)
        account(passes)
        check_same(reference, passes, "timed", errors)
        # Every host time is rescaled to the nominal host by the reference
        # samples taken around it (see :mod:`hostspeed`).
        walls = [p.wall * p.scale for p in passes]
        wall_s = statistics.median(walls)
        wall_tail, wall_pct = tail(walls, "median")
        raw_wall_s = statistics.median(p.wall for p in passes)
        run_scale = REF_NOMINAL_S / statistics.fmean(
            x for p in passes for x in p.ref_samples
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import_s = statistics.median(raw * scale for raw, scale in import_samples)
        raw_import_s = statistics.median(raw for raw, _scale in import_samples)
        construction_s = statistics.median(p.setup * p.scale for p in passes)
        setup_s = import_s + construction_s
        rows = {
            "wall_s": (wall_s, f"median of n={len(walls)} passes, nominal host"),
            "wall_tail_s": (wall_tail, f"p{wall_pct:.1f} of n={len(walls)} passes"),
            "blocks_per_s": (reference.blocks / wall_s, f"{reference.blocks} logical blocks/pass"),
            "setup_s": (
                setup_s,
                f"imports {import_s:.4g} s (raw {raw_import_s:.4g} s, median of "
                f"n={len(import_samples)}) + construction "
                f"{construction_s:.4g} s (median of n={len(passes)} passes)",
            ),
            "peak_rss_mb": (peak_rss_mb, "process high-water mark"),
        }
        if reference.outcomes:
            rows.update(simulated_metrics(reference))
        ops = sum(p.attempted for p in passes)
        lines.append(f"workload={workload.name} seed={args.seed} trace=0")
        for name, (value, note) in rows.items():
            lines.append(f"  {name:<24} {value:14.6g} {END_TO_END_UNITS[name]:<13} {note or ''}")
        lines.append(
            f"  {'raw_wall_s':<24} {raw_wall_s:14.6g} {'s':<13} "
            f"median of n={len(walls)} passes, this host (reference samples took "
            f"x{1 / run_scale:.3f} of nominal)"
        )
        lines.append(
            f"  {'ops_failed_frac':<24} {failed / max(1, attempted):14.6g} {'ratio':<13} "
            f"n={attempted} ops ({ops} in timed passes)"
        )
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, (value, _note) in rows.items()}
    else:
        untraced = timed_passes(harness, workload, args.seconds / 3)
        account(untraced)
        check_same(reference, untraced, "untraced", errors)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        harness.tracer = tracer
        traced = []
        start = perf_counter()
        while len(traced) < MIN_PASSES or perf_counter() - start < 2 * args.seconds / 3:
            tracer.reset(recording=not traced)
            traced.append(run_pass(harness, workload))
        account(traced)
        check_same(reference, traced, "traced", errors)
        for index, result in enumerate(traced[1:]):
            if result.layer_calls != traced[0].layer_calls:
                errors.append(f"traced pass {index + 1}: layer counts differ from the first")
        harness.observe = True
        observed = run_pass(harness, workload)
        harness.observe = False
        account([observed])
        check_same(reference, [observed], "observed", errors)
        shares = critpath_shares(harness.obs_planes)
        harness.obs_planes.clear()
        untraced_wall = statistics.median(p.wall for p in untraced)
        layer = layer_metrics(traced, untraced_wall, reference.blocks, shares)
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans_{workload.name}_seed{args.seed}.jsonl"
        tracer.write_spans(span_path)
        lines.append(f"workload={workload.name} seed={args.seed} trace=1")
        lines.append(
            f"passes: untraced n={len(untraced)} traced n={len(traced)}; "
            f"spans of the first traced pass in {span_path.relative_to(ROOT)} "
            f"({len(tracer.spans)} kept, {tracer.spans_dropped} over the cap)"
        )
        lines.extend(layer_table(traced, statistics.median(p.wall for p in traced)))
        for name, (value, unit) in layer.items():
            lines.append(f"  {name:<32} {value:14.6g} {unit}")
        metrics = layer

    correct = not errors and failed == 0
    for error in errors:
        lines.append(f"VIOLATION: {error}")
    emit(correct, attempted, failed, metrics, lines)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
