"""The benchmark's workloads, built and driven through public APIs only.

Each workload is a class whose constructor is the *set-up* (scenario,
system, framework/effector/planner, fault injector and traffic, built
from a scenario topology and one seed), whose :meth:`run` is the *timed section* and
whose :meth:`result` (untimed) reads back a :class:`RunResult`: the
canonical outcome (a JSON-serialisable dict of simulated results that
must repeat exactly for the same seed), the CPU time of every step and
the per-layer counters held in the program's own state.

Every instance runs in one process with no worker fan-out, so
``time.process_time`` covers all of its CPU, including the analyzer's
portfolio threads.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.core import AvailabilityObjective
from repro.core.effector import MiddlewareEffector, plan_redeployment
from repro.core.errors import EffectorError, ReproError, ScheduleError
from repro.core.framework import CentralizedFramework
from repro.decentralized import DecentralizedFramework
from repro.faults import FaultInjector, random_churn, rolling_partitions
from repro.lint.model_rules import verify_deployment
from repro.middleware.runtime import AppComponent, DistributedSystem
from repro.plan import MigrationPlanner
from repro.scenarios import (
    CrisisConfig, build_crisis_scenario, build_sensor_field,
)
from repro.sim import InteractionWorkload, SimClock


@dataclass
class RunResult:
    """What one timed section produced."""

    outcome: Dict[str, Any]
    #: CPU seconds of each step (the workload's unit of closed-loop work).
    step_cpu_s: List[float]
    #: CPU seconds of each call of a named operation, for the report.
    op_cpu_s: Dict[str, List[float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    #: Operations (analysis cycles, redeploys, rounds) run and those that
    #: ended in an error the program did not handle itself.
    operations: int = 0
    failed_operations: int = 0


def _timed(record: List[float], call: Callable) -> Callable:
    """Wrap *call* so each invocation appends its CPU seconds to *record*."""
    clock = time.process_time

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = clock()
        try:
            return call(*args, **kwargs)
        finally:
            record.append(clock() - started)

    return wrapper


def _system_outcome(system: DistributedSystem, clock: SimClock,
                    horizon: float) -> Dict[str, Any]:
    """Outcome fields shared by every workload."""
    sent = received = 0
    for architecture in system.architectures.values():
        for component in architecture.components:
            if isinstance(component, AppComponent):
                sent += component.sent_count
                received += component.received_count
    final = system.actual_deployment()
    lint = verify_deployment(system.model, final)
    stats = system.network.stats
    return {
        "events_sent": sent,
        "events_received": received,
        "emissions_skipped": system.emissions_skipped,
        "final_deployment": dict(sorted(final.items())),
        "verify_errors": [str(finding) for finding in lint.errors],
        "sim_s": round(clock.now, 9),
        "overrun_s": round(max(0.0, clock.now - horizon), 9),
        "clock_events": clock.processed,
        "network": {"sent": stats.sent, "delivered": stats.delivered,
                    "dropped": stats.dropped},
    }


def _system_counters(system: DistributedSystem, clock: SimClock,
                     horizon: float) -> Dict[str, float]:
    """Per-layer counts read back from the program's state."""
    connectors = [architecture.distribution_connector
                  for architecture in system.architectures.values()]
    stats = system.network.stats
    return {
        "sim.clock.events": clock.processed,
        "sim.clock.sim_s": round(clock.now, 9),
        "sim.clock.overrun_s": round(max(0.0, clock.now - horizon), 9),
        "sim.network.sent": stats.sent,
        "sim.network.delivered": stats.delivered,
        "sim.network.dropped": stats.dropped,
        "middleware.scaffold.dispatched": system.scaffold.dispatched,
        "middleware.connector.sent_remote": sum(c.sent_remote
                                                for c in connectors),
        "middleware.connector.relayed": sum(c.relayed for c in connectors),
        "middleware.admin.restores": sum(admin.restores
                                         for admin in system.admins.values()),
    }


def _effector_counters(history: List[Any]) -> Dict[str, float]:
    return {
        "effector.migrations": len(history),
        "effector.succeeded": sum(1 for r in history if r.succeeded),
        "effector.retries": sum(r.retries for r in history),
        "effector.rollbacks": sum(1 for r in history if r.rolled_back),
        "effector.barrier_rollbacks": sum(
            r.detail.get("barrier_rollbacks", 0) for r in history),
        "effector.replans": sum(r.detail.get("replans", 0)
                                for r in history),
    }


class CrisisLoop:
    """The centralized closed loop on a crisis scenario under churn.

    Assembled in the same order as ``repro.faults.run_campaign``: system,
    framework, armed injector, started traffic, started framework.  A
    step is one analysis period: the CPU from one ``Analyzer.analyze``
    call to the next, which holds the analysis, any redeployment it
    enacts and the traffic and monitoring of the windows in between.
    """

    def __init__(self, topology: int, seed: int, commanders: int,
                 troops: int, plan_duration: float, rate_scale: float,
                 monitor_interval: float, cycles_per_analysis: int,
                 max_wait: float):
        scenario = build_crisis_scenario(CrisisConfig(
            commanders=commanders, troops_per_commander=troops,
            seed=topology))
        self.model = scenario.model
        self.duration = plan_duration
        self.plan = random_churn(self.model, plan_duration, seed=seed,
                                 exclude_hosts=(scenario.hq,))
        self.clock = SimClock()
        self.system = DistributedSystem(self.model, self.clock,
                                        master_host=scenario.hq, seed=seed)
        self.framework = CentralizedFramework(
            self.system, AvailabilityObjective(), scenario.constraints,
            user_input=scenario.user_input,
            monitor_interval=monitor_interval, seed=seed,
            effector_options={"max_wait": max_wait})
        self.injector = FaultInjector(self.system.network, self.plan,
                                      model=self.model)
        self.injector.arm()
        self.workload = InteractionWorkload(
            self.model, self.clock, self.system.emit, seed=seed + 1,
            rate_scale=rate_scale).start()
        self.framework.start(cycles_per_analysis=cycles_per_analysis)
        self.analysis_cpu: List[float] = []
        self.periods: List[float] = []
        self._period_start = None
        analyzer = self.framework.analyzer
        analyze = _timed(self.analysis_cpu, analyzer.analyze)

        def analyze_and_mark(*args: Any, **kwargs: Any) -> Any:
            now = time.process_time()
            if self._period_start is not None:
                self.periods.append(now - self._period_start)
            self._period_start = now
            return analyze(*args, **kwargs)

        analyzer.analyze = analyze_and_mark

    def run(self) -> None:
        self.clock.run(self.duration)
        self.workload.stop()
        self.framework.stop()
        self.injector.disarm()

    def result(self) -> RunResult:
        analyzer = self.framework.analyzer
        hub = self.framework.hub
        history = self.framework.effector.history
        outcome = _system_outcome(self.system, self.clock, self.duration)
        outcome.update({
            "faults_applied": self.injector.actions_applied,
            "decisions": [d.action for d in analyzer.decisions],
            "migrations": {"attempted": len(history),
                           "succeeded": sum(1 for r in history
                                            if r.succeeded)},
            "monitoring_updates": len(hub.updates_applied),
        })
        counters = _system_counters(self.system, self.clock, self.duration)
        counters.update(_effector_counters(history))
        for decision in analyzer.decisions:
            if decision.portfolio is None:
                continue
            for key, value in decision.portfolio.counters().items():
                name = f"algorithms.{key}"
                counters[name] = counters.get(name, 0) + value
        counters.update({
            "analyzer.cycles": len(analyzer.decisions),
            "analyzer.redeploy_decisions": sum(
                1 for d in analyzer.decisions if d.will_redeploy),
            "monitoring.windows": hub.intervals_processed,
            "monitoring.updates": len(hub.updates_applied),
            "faults.actions": self.injector.actions_applied,
        })
        return RunResult(outcome, self.periods,
                         {"analysis": self.analysis_cpu}, counters,
                         operations=len(analyzer.decisions))


class RedeployLoop:
    """Back-to-back redeploys of seeded, constraint-valid targets.

    The write side of the loop with no analyzer: rolling partitions, light
    traffic and monitoring keep the network and middleware busy while the
    benchmark plans (``plan_redeployment`` with a ``MigrationPlanner``)
    and enacts (``MiddlewareEffector.effect``) one target after another.
    A refused target (unreachable moves or ``ScheduleError``) counts as an
    attempted migration that did not succeed.  A step is one enacted
    redeploy: planning plus ``effect``.
    """

    def __init__(self, topology: int, seed: int, redeploys: int,
                 max_moves: int, gap_s: float, max_wait: float,
                 rate_scale: float, monitor_interval: float):
        scenario = build_crisis_scenario(CrisisConfig(seed=topology))
        self.model = scenario.model
        self.constraints = scenario.constraints
        self.redeploys = redeploys
        self.max_moves = max_moves
        self.gap_s = gap_s
        self.duration = redeploys * gap_s
        self.plan = rolling_partitions(self.model, self.duration,
                                       exclude_hosts=(scenario.hq,))
        self.clock = SimClock()
        self.system = DistributedSystem(self.model, self.clock,
                                        master_host=scenario.hq, seed=seed)
        self.system.install_monitoring(ping_interval=monitor_interval / 2,
                                       report_interval=monitor_interval)
        self.planner = MigrationPlanner(self.model, self.constraints)
        self.effector = MiddlewareEffector(self.system, max_wait=max_wait,
                                           seed=seed, planner=self.planner)
        self.injector = FaultInjector(self.system.network, self.plan,
                                      model=self.model)
        self.injector.arm()
        self.workload = InteractionWorkload(
            self.model, self.clock, self.system.emit, seed=seed + 1,
            rate_scale=rate_scale).start()
        self.rng = random.Random(seed)
        self.steps: List[float] = []
        self.effect_cpu: List[float] = []
        self.effect = _timed(self.effect_cpu, self.effector.effect)
        self.verdicts: List[str] = []
        self.schedule_stats = {"plan.schedules": 0, "plan.waves": 0,
                               "plan.staged_moves": 0,
                               "plan.unreachable_moves": 0}

    def _target(self) -> Dict[str, str]:
        """The current deployment with a few components moved, kept only
        if it satisfies every hard constraint."""
        current = self.model.deployment.as_dict()
        components = sorted(current)
        hosts = list(self.model.host_ids)
        for __ in range(100):
            target = dict(current)
            count = self.rng.randint(1, self.max_moves)
            for component in self.rng.sample(components, count):
                target[component] = self.rng.choice(hosts)
            if target != current and self.constraints.is_satisfied(
                    self.model, target):
                return target
        return current

    def _redeploy(self, target: Dict[str, str]) -> str:
        """Plan and enact *target*; returns the verdict for the outcome."""
        started = time.process_time()
        try:
            plan = plan_redeployment(self.model, target,
                                     planner=self.planner)
        except ScheduleError:
            return "schedule_error"
        stats = self.schedule_stats
        stats["plan.schedules"] += 1
        if plan.schedule is not None:
            stats["plan.waves"] += len(plan.schedule.waves)
            stats["plan.staged_moves"] += len(
                plan.schedule.staged_components)
            stats["plan.unreachable_moves"] += len(
                plan.schedule.unreachable)
        if plan.unreachable:
            return "unreachable"
        try:
            verdict = f"ok:{self.effect(plan).moves_executed}"
        except EffectorError as exc:
            verdict = type(exc).__name__
        self.steps.append(time.process_time() - started)
        return verdict

    def run(self) -> None:
        for __ in range(self.redeploys):
            self.verdicts.append(self._redeploy(self._target()))
            self.clock.run(self.gap_s)
        self.workload.stop()
        self.system.uninstall_monitoring()
        self.injector.disarm()

    def result(self) -> RunResult:
        history = self.effector.history
        refused = sum(1 for verdict in self.verdicts
                      if verdict in ("schedule_error", "unreachable"))
        outcome = _system_outcome(self.system, self.clock, self.duration)
        outcome.update({
            "faults_applied": self.injector.actions_applied,
            "redeploys": list(self.verdicts),
            "migrations": {"attempted": len(history) + refused,
                           "succeeded": sum(1 for r in history
                                            if r.succeeded),
                           "refused": refused},
        })
        counters = _system_counters(self.system, self.clock, self.duration)
        counters.update(_effector_counters(history))
        counters.update(self.schedule_stats)
        counters["faults.actions"] = self.injector.actions_applied
        return RunResult(outcome, self.steps, {"effect": self.effect_cpu},
                         counters, operations=len(self.verdicts))


class SensorFieldLoop:
    """``DecentralizedFramework.improvement_round`` on a sensor field.

    A rows x cols grid with neighbour-only links, random churn, monitoring
    and traffic; each round ingests monitoring into the per-host
    knowledge bases, synchronises them, polls the analyzers and, when they
    agree, runs a DecAp auction wave.  A step is one round.
    """

    def __init__(self, topology: int, seed: int, rows: int, cols: int,
                 aggregators: int, rounds: int, gap_s: float,
                 rate_scale: float, ping_interval: float,
                 bid_timeout: float):
        scenario = build_sensor_field(rows=rows, cols=cols,
                                      aggregators=aggregators, seed=topology)
        self.model = scenario.model
        self.rounds = rounds
        self.gap_s = gap_s
        self.clock = SimClock()
        self.system = DistributedSystem(self.model, self.clock,
                                        decentralized=True, seed=seed)
        self.system.install_monitoring(ping_interval=ping_interval)
        self.framework = DecentralizedFramework(
            self.system, AvailabilityObjective(), bid_timeout=bid_timeout)
        # An auction wave runs the clock for a fixed, size-dependent time,
        # so the churn plan can be sized to span every round.
        wave_s = (rows * cols * 1.5 + 3) * bid_timeout
        self.duration = rounds * (gap_s + wave_s)
        self.plan = random_churn(self.model, self.duration, seed=seed)
        self.injector = FaultInjector(self.system.network, self.plan,
                                      model=self.model)
        self.injector.arm()
        self.workload = InteractionWorkload(
            self.model, self.clock, self.system.emit, seed=seed + 1,
            rate_scale=rate_scale).start()
        self.steps: List[float] = []
        self.round = _timed(self.steps, self.framework.improvement_round)
        self.reports: List[Any] = []
        self.errors: List[str] = []

    def run(self) -> None:
        for index in range(self.rounds):
            self.clock.run(self.gap_s)
            try:
                self.reports.append(self.round())
            except ReproError as exc:
                # An error escaping a round (e.g. an auction winner that
                # became unreachable) aborts it; record it and go on.
                self.errors.append(f"round {index + 1}: "
                                   f"{type(exc).__name__}: {exc}")
        self.workload.stop()
        self.system.uninstall_monitoring()
        self.injector.disarm()

    def result(self) -> RunResult:
        framework = self.framework
        records = [record for agent in framework.agents.values()
                   for record in agent.completed]
        moved = [record for record in records if record.moved]
        final = self.system.actual_deployment()
        # A DecAp move has landed when the migrant is live on its winner.
        landed = sum(1 for record in moved
                     if final.get(record.component) == record.winner)
        outcome = _system_outcome(self.system, self.clock, self.duration)
        outcome.update({
            "faults_applied": self.injector.actions_applied,
            "rounds": [[r.decision, r.auctions, r.moves, r.facts_synced,
                        round(r.availability_after, 9)]
                       for r in self.reports],
            "migrations": {"attempted": len(moved), "succeeded": landed},
            "round_errors": list(self.errors),
        })
        counters = _system_counters(self.system, self.clock, self.duration)
        edges = len(framework.awareness.edges())
        counters.update({
            "decentralized.rounds": len(self.reports),
            "decentralized.sync_facts": sum(r.facts_synced
                                            for r in self.reports),
            # One KB exchange per direction of every awareness edge.
            "decentralized.sync_messages": 2 * edges
            * framework.synchronizer.rounds,
            "decentralized.auctions": len(records),
            "decentralized.auction_moves": len(moved),
            "faults.actions": self.injector.actions_applied,
        })
        return RunResult(outcome, self.steps, {"round": self.steps},
                         counters, operations=self.rounds,
                         failed_operations=len(self.errors))


#: Workload name -> (class, keyword arguments, panel size).  A run builds
#: a panel of instances on the same fixed scenario topologies (scenario
#: seeds 0 .. size-1); the run's seed drives everything else: fault plan,
#: loss trials, traffic phases, analyzer/effector jitter and redeploy
#: targets.  Figures then pool several topologies within a run, and runs
#: with different seeds differ by the dynamics, not by which topologies
#: happened to be drawn.  Every value here is part of the benchmark's
#: definition: changing one changes the baseline.
WORKLOADS: Dict[str, Any] = {
    "crisis-traffic": (CrisisLoop, dict(
        commanders=2, troops=3, plan_duration=60.0, rate_scale=10.0,
        monitor_interval=2.0, cycles_per_analysis=2, max_wait=10.0), 12),
    "crisis-decide": (CrisisLoop, dict(
        commanders=3, troops=4, plan_duration=120.0, rate_scale=0.2,
        monitor_interval=1.0, cycles_per_analysis=1, max_wait=10.0), 2),
    "crisis-redeploy": (RedeployLoop, dict(
        redeploys=40, max_moves=3, gap_s=0.5, max_wait=10.0,
        rate_scale=0.2, monitor_interval=4.0), 32),
    "sensorfield-decap": (SensorFieldLoop, dict(
        rows=4, cols=4, aggregators=4, rounds=7, gap_s=1.0,
        rate_scale=1.0, ping_interval=0.5, bid_timeout=0.3), 16),
}


def panel(name: str, seed: int) -> List[Tuple[int, int]]:
    """(topology, instance seed) of each instance in a run of *name*."""
    size = WORKLOADS[name][2]
    return [(index, seed * size + index) for index in range(size)]


def build(name: str, topology: int, seed: int):
    """Set up one instance of workload *name* (the timed set-up step)."""
    cls, kwargs, __ = WORKLOADS[name]
    return cls(topology, seed, **kwargs)
