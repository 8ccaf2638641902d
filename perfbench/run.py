"""Closed-loop benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload crisis-traffic --seed 3 \\
        --seconds 15 --trace 0

A run builds a *panel* of instances of the workload (see
``workloads.WORKLOADS``) and goes through these stages:

1. ``perfbench/golden.py`` re-renders the golden resilience reports in a
   child process (equivalence before timing) while this process runs one
   untimed warm-up instance.
2. Timed passes run the whole panel again and again until ``--seconds``
   CPU-seconds of timed section have gone, and at least three passes.
   Every instance's outcome must equal its first outcome exactly.
   Each instance's set-up is timed apart from its run.
3. With ``--trace 1``, untraced and traced passes alternate instead and
   the per-layer metrics come from the traced ones (see ``spans.py``).

Every timing is ``time.process_time``.  The same instance does the same
work on every pass, so each step is charged the least CPU it took on any
pass, and each instance run likewise: on a shared two-core runner the
CPU speed swings by a fifth from second to second, and the best of
several passes filters that interference out before the median and p90
are taken across steps.

Progress and a table of every metric with its unit and sample count go
to standard output; the last line is the JSON result.  Full results, and
the recorded spans of a traced run, are written under ``.perfbench/``.
The exit code is 0 when every equivalence and correctness check passed,
1 when one failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: No new pass starts once this much wall time has gone, so the run ends
#: well inside its 180-second limit on a slow or busy runner.
WALL_BUDGET_S = 110.0
#: Passes a run makes at least (best-of needs repetitions).
MIN_PASSES = 3
#: Distinct steps a pass must time: the p90 needs ten samples beyond it.
MIN_STEPS = 110
#: Set-up samples taken per panel instance at least.
MIN_SETUPS = 5
#: Seed for the held-out check of a claimed gain; never used in tuning.
HELD_OUT_SEED = 7919

#: Which step each workload times.
STEP_NAMES = {
    "crisis-traffic": "analysis period",
    "crisis-decide": "analysis period",
    "crisis-redeploy": "redeploy (plan + effect)",
    "sensorfield-decap": "decentralized round",
}

#: Per workload, the layer group that must take the largest share of
#: traced CPU.
DOMINANT = {
    "crisis-traffic": "sim+middleware",
    "crisis-decide": "core.analyzer",
    "crisis-redeploy": "effect spans",
    "sensorfield-decap": "decentralized rounds",
}

E2E_UNITS = {
    "run_cpu_s": "s", "app_msgs_per_cpu_s": "1/s",
    "step_cpu_ms_p50": "ms", "step_cpu_ms_p90": "ms",
    "delivered_availability": "ratio", "migration_success_rate": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def calibrate_ms() -> float:
    """Median CPU ms of a fixed pure-Python loop (host speed context)."""
    samples = []
    for __ in range(5):
        started = time.process_time()
        total = 0
        for index in range(300_000):
            total += index * index % 7
        samples.append((time.process_time() - started) * 1000.0)
    return statistics.median(samples)


def percentile(values: List[float], share: float) -> Optional[float]:
    """The *share* percentile, or None unless ten samples lie beyond it."""
    ordered = sorted(values)
    index = int(share * len(ordered))
    if len(ordered) - 1 - index < 10:
        return None
    return ordered[index]


def best_of(series: List[List[float]]) -> List[float]:
    """Element-wise minimum of equally long series (one per pass)."""
    return [min(values) for values in zip(*series)]


class Bench:
    """State of one benchmark run."""

    def __init__(self, args: argparse.Namespace, workloads: Any):
        self.args = args
        self.workloads = workloads
        self.panel: List[Tuple[int, int]] = workloads.panel(args.workload,
                                                            args.seed)
        self.reference: Dict[Tuple[int, int], str] = {}
        self.attempted = 0
        self.failed_operations = 0
        #: Failed equivalence and correctness checks.
        self.failures: List[str] = []
        self.setup_s: Dict[Tuple[int, int], List[float]] = {
            member: [] for member in self.panel}
        self.started_wall = time.monotonic()

    def build(self, member: Tuple[int, int]) -> Any:
        gc.collect()
        started = time.process_time()
        instance = self.workloads.build(self.args.workload, *member)
        self.setup_s[member].append(time.process_time() - started)
        return instance

    def run_instance(self, member: Tuple[int, int],
                     tracer: Any = None) -> Dict[str, Any]:
        """Build and run one instance; check its outcome."""
        if tracer is not None:
            tracer.install(((self.workloads, "plan_redeployment",
                             "plan.plan_redeployment"),))
        try:
            instance = self.build(member)
            gc.disable()
            started = time.process_time()
            try:
                instance.run()
            finally:
                ran = time.process_time() - started
                gc.enable()
        finally:
            if tracer is not None:
                tracer.uninstall()
        result = instance.result()
        self.check(member, result)
        return {"run_s": ran, "result": result}

    def check(self, member: Tuple[int, int], result: Any) -> None:
        self.attempted += result.operations
        self.failed_operations += result.failed_operations
        outcome = result.outcome
        text = json.dumps(outcome, sort_keys=True)
        if text != self.reference.setdefault(member, text):
            self.failures.append(f"instance {member}: outcome differs from "
                                 "its first run")
        if outcome["verify_errors"]:
            self.failures.append(f"instance {member}: final deployment fails "
                                 f"verification: {outcome['verify_errors']}")

    def run_pass(self, tracer: Any = None) -> List[Dict[str, Any]]:
        return [self.run_instance(member, tracer) for member in self.panel]

    def elapsed(self) -> float:
        return time.monotonic() - self.started_wall


def golden_check(process: subprocess.Popen) -> Dict[str, bool]:
    try:
        stdout, stderr = process.communicate(timeout=WALL_BUDGET_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return {"timeout": False}
    try:
        return json.loads(stdout.strip().splitlines()[-1])["golden"]
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(stderr)
        return {"golden.py": False}


def pass_cpu(runs: List[Dict[str, Any]]) -> float:
    return sum(run["run_s"] for run in runs)


def end_to_end(bench: Bench, passes: List[List[Dict[str, Any]]],
               report: Dict[str, Any]) -> Dict[str, float]:
    """The gated metrics, from the timed (untraced) passes."""
    steps: List[float] = []
    ops: Dict[str, List[float]] = {}
    run_cpu = 0.0
    messages = 0
    for index in range(len(bench.panel)):
        runs = [timed[index] for timed in passes]
        results = [run["result"] for run in runs]
        run_cpu += min(run["run_s"] for run in runs)
        steps.extend(best_of([r.step_cpu_s for r in results]))
        for name in results[0].op_cpu_s:
            ops.setdefault(name, []).extend(
                best_of([r.op_cpu_s[name] for r in results]))
        outcome = results[0].outcome
        messages += outcome["events_sent"] + outcome["events_received"]
    outcomes = [run["result"].outcome for run in passes[0]]
    availability = [o["events_received"] / o["events_sent"]
                    if o["events_sent"] else 1.0 for o in outcomes]
    attempted = sum(o["migrations"]["attempted"] for o in outcomes)
    succeeded = sum(o["migrations"]["succeeded"] for o in outcomes)
    p90 = percentile(steps, 0.9)
    if p90 is None:
        bench.failures.append(f"only {len(steps)} steps timed; the p90 "
                              "needs ten beyond it")
    setups = [min(samples) for samples in bench.setup_s.values()]
    metrics = {
        "run_cpu_s": run_cpu,
        "app_msgs_per_cpu_s": messages / run_cpu,
        "step_cpu_ms_p50": statistics.median(steps) * 1000.0,
        "step_cpu_ms_p90": (p90 or 0.0) * 1000.0,
        "delivered_availability": statistics.fmean(availability),
        "migration_success_rate": (succeeded / attempted
                                   if attempted else 1.0),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report["samples"] = {
        "run_cpu_s": len(bench.panel), "app_msgs_per_cpu_s": messages,
        "step_cpu_ms_p50": len(steps), "step_cpu_ms_p90": len(steps),
        "delivered_availability": len(outcomes),
        "migration_success_rate": attempted,
        "setup_s": sum(len(s) for s in bench.setup_s.values()),
        "peak_rss_mb": 1,
    }
    report["best_of_passes"] = len(passes)
    report["step"] = STEP_NAMES[bench.args.workload]
    report["operations"] = {}
    for name, values in sorted(ops.items()):
        entry: Dict[str, Any] = {"n": len(values)}
        if values:
            entry["cpu_ms_p50"] = statistics.median(values) * 1000.0
            op_p90 = percentile(values, 0.9)
            if op_p90 is not None:
                entry["cpu_ms_p90"] = op_p90 * 1000.0
        report["operations"][name] = entry
    report["overruns"] = {
        str(member): o["overrun_s"]
        for member, o in zip(bench.panel, outcomes) if o["overrun_s"] > 0}
    report["sim_s"] = {str(member): o["sim_s"]
                       for member, o in zip(bench.panel, outcomes)}
    return metrics


def per_layer(bench: Bench, tracer: Any,
              traced: List[List[Dict[str, Any]]],
              untraced: List[List[Dict[str, Any]]], calib_ms: float,
              report: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics, per traced pass."""
    count = len(traced)
    counters: Dict[str, float] = {}
    for run in traced[0]:
        for name, value in run["result"].counters.items():
            counters[name] = counters.get(name, 0) + value
    totals = {name: values[2] / count
              for name, values in tracer.totals.items()}
    traced_cpu = statistics.fmean(pass_cpu(runs) for runs in traced)
    untraced_cpu = statistics.fmean(pass_cpu(runs) for runs in untraced)
    effect = {k: v / count for k, v in tracer.effect_breakdown().items()}
    layers = {k: v / count for k, v in tracer.layer_self_s().items()}
    unattributed = traced_cpu - tracer.covered_s / count
    hits = counters.get("algorithms.cache_hits", 0)
    misses = counters.get("algorithms.cache_misses", 0)
    migrations = counters.get("effector.migrations", 0)
    auctions = counters.get("decentralized.auctions", 0)
    metrics = {
        "sim.clock.events": counters["sim.clock.events"],
        "sim.clock.sim_s": counters["sim.clock.sim_s"],
        "sim.clock.overrun_s": counters["sim.clock.overrun_s"],
        "sim.clock.self_s": totals["sim.clock"],
        "sim.network.sent": counters["sim.network.sent"],
        "sim.network.delivered": counters["sim.network.delivered"],
        "sim.network.dropped": counters["sim.network.dropped"],
        "sim.network.send_s": totals["sim.network.send"],
        "sim.network.deliver_s": totals["sim.network.deliver"],
        "middleware.emit_s": totals["middleware.emit"],
        "middleware.receive_s": totals["middleware.receive"],
        "middleware.dispatch_s": totals["middleware.dispatch"],
        "middleware.report_s": totals["middleware.report"],
        "middleware.scaffold.dispatched":
            counters["middleware.scaffold.dispatched"],
        "middleware.connector.sent_remote":
            counters["middleware.connector.sent_remote"],
        "middleware.connector.relayed":
            counters["middleware.connector.relayed"],
        "middleware.admin.restores": counters["middleware.admin.restores"],
        "monitoring.ingest_s": totals["monitoring.ingest"],
        "monitoring.process_interval_s":
            totals["monitoring.process_interval"],
        "monitoring.windows": counters.get("monitoring.windows", 0),
        "monitoring.updates": counters.get("monitoring.updates", 0),
        "monitoring.eps_rejections": tracer.eps_rejections / count,
        "analyzer.analyze_s": totals["analyzer.analyze"],
        "analyzer.cycles": counters.get("analyzer.cycles", 0),
        "analyzer.redeploy_decisions":
            counters.get("analyzer.redeploy_decisions", 0),
        "algorithms.full_evaluations":
            counters.get("algorithms.full_evaluations", 0),
        "algorithms.delta_evaluations":
            counters.get("algorithms.delta_evaluations", 0),
        "algorithms.kernel_deltas":
            counters.get("algorithms.kernel_deltas", 0),
        "algorithms.constraint_checks":
            counters.get("algorithms.constraint_checks", 0),
        "algorithms.cache_hit_ratio": (hits / (hits + misses)
                                       if hits + misses else 0.0),
        "plan.schedule_s": (totals["plan.schedule"]
                            + totals["plan.plan_redeployment"]),
        "plan.schedules": counters.get("plan.schedules", 0),
        "plan.waves": counters.get("plan.waves", 0),
        "plan.staged_moves": counters.get("plan.staged_moves", 0),
        "plan.unreachable_moves": counters.get("plan.unreachable_moves", 0),
        "effector.self_s": effect["self_s"],
        "effector.preflight_s": effect["preflight_s"],
        "effector.wait_s": effect["wait_s"],
        "effector.migrations": migrations,
        "effector.retries": counters.get("effector.retries", 0),
        "effector.rollbacks": counters.get("effector.rollbacks", 0),
        "effector.barrier_rollbacks":
            counters.get("effector.barrier_rollbacks", 0),
        "effector.replans": counters.get("effector.replans", 0),
        "effector.success_ratio": (counters.get("effector.succeeded", 0)
                                   / migrations if migrations else 1.0),
        "decentralized.round_s": totals["decentralized.round"],
        "decentralized.sync_s": totals["decentralized.sync"],
        "decentralized.decide_s": totals["decentralized.decide"],
        "decentralized.sync_messages":
            counters.get("decentralized.sync_messages", 0),
        "decentralized.auctions": auctions,
        "decentralized.auction_moves":
            counters.get("decentralized.auction_moves", 0),
        "decentralized.auction_move_ratio": (
            counters.get("decentralized.auction_moves", 0) / auctions
            if auctions else 0.0),
        "faults.actions": counters["faults.actions"],
        "trace.cpu_s": traced_cpu,
        "trace.overhead_ratio": traced_cpu / untraced_cpu,
        "trace.unattributed_s": unattributed,
        "host.calib_ms": calib_ms,
    }
    for layer, self_s in layers.items():
        metrics[f"share.{layer}"] = self_s / traced_cpu
    metrics["share.unattributed"] = unattributed / traced_cpu
    inclusive = {
        "effect spans": (tracer.operation_s("effector.effect")
                         + tracer.operation_s("plan.plan_redeployment"))
        / count,
        "decentralized rounds":
            tracer.operation_s("decentralized.round") / count,
    }
    metrics["share.effect_spans"] = inclusive["effect spans"] / traced_cpu
    metrics["share.decentralized_rounds"] = (
        inclusive["decentralized rounds"] / traced_cpu)
    # Compare the expected group against a partition of traced CPU: the
    # layers' self times, or for a group of whole spans, those spans
    # against everything outside them.
    expected = DOMINANT[bench.args.workload]
    if expected in inclusive:
        groups = {expected: inclusive[expected],
                  "outside": traced_cpu - inclusive[expected]}
    else:
        groups = dict(layers, unattributed=unattributed)
        groups["sim+middleware"] = (groups.pop("sim")
                                    + groups.pop("middleware"))
    shares = {name: value / traced_cpu for name, value in groups.items()}
    report["dominant_layer"] = {
        "expected": expected, "largest": max(shares, key=shares.get),
        "shares": shares}
    return metrics


def unit_of(name: str) -> str:
    if name == "host.calib_ms":
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.startswith("share."):
        return "ratio"
    return "count"


def print_table(title: str, metrics: Dict[str, float],
                units: Dict[str, str], samples: Dict[str, int]) -> None:
    print(title)
    for name, value in metrics.items():
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:34s} {value:>16.6g} {units[name]:8s}{suffix}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {', '.join(sorted(workloads.WORKLOADS))}",
              file=sys.stderr)
        return 2

    bench = Bench(args, workloads)
    calib = calibrate_ms()
    golden = subprocess.Popen(
        [sys.executable, str(HERE / "golden.py")], cwd=str(ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        # Warm-up: one untimed instance, so lazy imports and first-call
        # costs land outside every timed section.
        workloads.build(args.workload, *bench.panel[0]).run()
    finally:
        golden_results = golden_check(golden)
    bench.attempted += len(golden_results)
    for name, ok in sorted(golden_results.items()):
        if not ok:
            bench.failures.append(f"golden report {name} differs")
    print(f"perfbench: {args.workload} seed {args.seed}, panel (topology, "
          f"seed) {bench.panel}; golden {golden_results}", flush=True)

    timed: List[List[Dict[str, Any]]] = []
    traced: List[List[Dict[str, Any]]] = []
    tracer = spans.Tracer() if args.trace else None
    pass_wall = 0.0
    while True:
        started = time.monotonic()
        timed.append(bench.run_pass())
        if tracer is not None:
            tracer.run_id = len(traced) + 1
            traced.append(bench.run_pass(tracer))
        pass_wall = max(pass_wall, time.monotonic() - started)
        cpu = sum(pass_cpu(runs) for runs in timed + traced)
        enough = len(timed) >= (1 if tracer else MIN_PASSES)
        if (cpu >= args.seconds and enough) \
                or bench.elapsed() + pass_wall > WALL_BUDGET_S:
            break
    for member, samples in bench.setup_s.items():
        while len(samples) < MIN_SETUPS:
            bench.build(member)

    report: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "panel": bench.panel, "seconds": args.seconds,
        "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
        "golden": golden_results, "host.calib_ms": calib,
        "timed_passes": len(timed), "traced_passes": len(traced),
    }
    metrics = end_to_end(bench, timed, report)
    units = dict(E2E_UNITS)
    if tracer is not None:
        report["end_to_end"] = metrics
        metrics = per_layer(bench, tracer, traced, timed, calib, report)
        units = {name: unit_of(name) for name in metrics}
    report["metrics"] = metrics
    report["failures"] = bench.failures

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    if tracer is not None:
        tracer.dump(str(OUT_DIR / f"{stem}-spans.jsonl"),
                    meta={"workload": args.workload, "seed": args.seed})
        print_table("end-to-end (untraced passes)", report["end_to_end"],
                    E2E_UNITS, report["samples"])
        print_table("per-layer (per traced pass)", metrics, units, {})
        dominant = report["dominant_layer"]
        print(f"  largest share: {dominant['largest']} "
              f"(expected {dominant['expected']})")
    else:
        print_table("end-to-end", metrics, units, report["samples"])
    print(f"  step = {report['step']}, best of {len(timed)} passes")
    for name, entry in report["operations"].items():
        print(f"  {name}: {entry}")
    if report["overruns"]:
        print("  clock ran past the planned horizon (s) on (topology, "
              f"seed): {report['overruns']}")
    for failure in bench.failures:
        print(f"  FAILED: {failure}")
    if bench.failed_operations:
        print(f"  {bench.failed_operations} of {bench.attempted} operations "
              "ended in an unhandled program error (see the outcome's "
              "round_errors in .perfbench/)")

    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures) + bench.failed_operations,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
