"""Span tracing installed from outside the program.

:class:`Tracer` replaces the public entry points of each layer with
timing wrappers at *class* level, before any system is built, so
callbacks bound during construction (the connector's network receive
handler, the scaffold's delivery method) are covered too.  Nothing in
``src/`` is edited; :meth:`Tracer.uninstall` restores every attribute.

Every span measures ``time.process_time``.  A span's self time is its
duration minus the time covered by its wrapped child spans.  Time inside
the traced section that no span covers is reported as unattributed, not
folded into a layer.

Low-frequency spans (clock drains, analysis cycles, redeploys, rounds,
planning, pre-flight, monitoring windows, KB syncs, votes) are kept in
memory with name, start, end, parent and operation id and written out
when the benchmark ends.  Per-message spans (send, deliver, receive,
dispatch, emit, ingest) fire millions of times per run, so only their
count, inclusive and self time are kept, per span name.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.analyzer import Analyzer
from repro.core.effector import Effector, MiddlewareEffector
from repro.core.framework import CentralizedFramework
from repro.core.monitoring import MonitoringHub, StabilityDetector
from repro.decentralized import (
    DecentralizedFramework, ModelSynchronizer, PollingProtocol,
    VotingProtocol,
)
from repro.middleware.admin import AdminComponent
from repro.middleware.runtime import DistributedSystem
from repro.middleware.scaffold import Scaffold
from repro.plan import MigrationPlanner
from repro.sim.clock import SimClock
from repro.sim.network import SimulatedNetwork

#: Span name -> layer (named after the repo module that owns the code).
LAYER_OF = {
    "sim.clock": "sim",
    "sim.network.send": "sim",
    "sim.network.deliver": "sim",
    "middleware.emit": "middleware",
    "middleware.receive": "middleware",
    "middleware.dispatch": "middleware",
    "middleware.report": "middleware",
    "monitoring.ingest": "core.monitoring",
    "monitoring.process_interval": "core.monitoring",
    "framework.cycle": "core.framework",
    "analyzer.analyze": "core.analyzer",
    "plan.plan_redeployment": "plan",
    "plan.schedule": "plan",
    "effector.effect": "core.effector",
    "effector.preflight": "core.effector",
    "decentralized.round": "decentralized",
    "decentralized.sync": "decentralized",
    "decentralized.decide": "decentralized",
}

LAYERS = ("sim", "middleware", "core.monitoring", "core.framework",
          "core.analyzer", "plan", "core.effector", "decentralized")

#: Spans whose every instance is recorded (the rest are aggregated).
RECORDED = {"sim.clock", "monitoring.process_interval", "framework.cycle",
            "analyzer.analyze", "plan.plan_redeployment", "plan.schedule",
            "effector.effect", "effector.preflight", "decentralized.round",
            "decentralized.sync", "decentralized.decide"}

#: Spans that start a new operation id (one per cycle/redeploy/round).
OPERATIONS = {"analyzer.analyze", "effector.effect", "decentralized.round"}

#: (owner, attribute, span name) for every class-level wrapper.
CLASS_SPANS: Tuple[Tuple[Any, str, str], ...] = (
    (SimClock, "run", "sim.clock"),
    (SimClock, "run_while", "sim.clock"),
    (SimClock, "run_while_pending", "sim.clock"),
    (SimClock, "run_until", "sim.clock"),
    (SimulatedNetwork, "send", "sim.network.send"),
    (SimulatedNetwork, "send_many", "sim.network.send"),
    (SimulatedNetwork, "ping", "sim.network.send"),
    (SimulatedNetwork, "_deliver", "sim.network.deliver"),
    (SimulatedNetwork, "_deliver_batch", "sim.network.deliver"),
    (DistributedSystem, "emit", "middleware.emit"),
    (Scaffold, "_invoke", "middleware.dispatch"),
    (AdminComponent, "collect_report", "middleware.report"),
    (AdminComponent, "send_report", "middleware.report"),
    (MonitoringHub, "ingest", "monitoring.ingest"),
    (MonitoringHub, "process_interval", "monitoring.process_interval"),
    (CentralizedFramework, "improvement_cycle", "framework.cycle"),
    (Analyzer, "analyze", "analyzer.analyze"),
    (MigrationPlanner, "schedule", "plan.schedule"),
    (MiddlewareEffector, "effect", "effector.effect"),
    (Effector, "preflight", "effector.preflight"),
    (DecentralizedFramework, "improvement_round", "decentralized.round"),
    (ModelSynchronizer, "sync_round", "decentralized.sync"),
    (PollingProtocol, "conduct", "decentralized.decide"),
    (VotingProtocol, "conduct", "decentralized.decide"),
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        #: Open frames: [child_time, recorded-span id of self or ancestor].
        self._stack: List[List[Any]] = []
        #: Recorded spans: [id, name, start, end, parent, op, run].
        self.spans: List[List[Any]] = []
        #: name -> [count, inclusive_s, self_s]
        self.totals: Dict[str, List[float]] = {name: [0, 0.0, 0.0]
                                               for name in LAYER_OF}
        #: CPU seconds inside top-level spans; the rest is unattributed.
        self.covered_s = 0.0
        self.eps_rejections = 0
        self.run_id = 0
        self._op_id = 0
        self._current_op = 0
        self._saved: List[Tuple[Any, str, Any]] = []
        self._main = threading.get_ident()

    # ------------------------------------------------------------------
    def wrap(self, name: str, call: Callable) -> Callable:
        """A timing wrapper for *call* under span *name*."""
        stack = self._stack
        totals = self.totals[name]
        clock = time.process_time
        get_ident = threading.get_ident
        main = self._main
        recorded = name in RECORDED
        starts_op = name in OPERATIONS
        spans = self.spans
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != main:  # portfolio threads: counted by parent
                return call(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            if starts_op and not tracer._current_op:
                tracer._op_id += 1
                tracer._current_op = tracer._op_id
                owns_op = True
            else:
                owns_op = False
            if recorded:
                span = [len(spans), name, 0.0, 0.0, parent,
                        tracer._current_op, tracer.run_id]
                spans.append(span)
                frame = [0.0, span[0]]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            started = clock()
            try:
                return call(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                duration = ended - started
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.covered_s += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if recorded:
                    span[2] = started
                    span[3] = ended
                if owns_op:
                    tracer._current_op = 0

        return traced

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self, extra: Tuple[Tuple[Any, str, str], ...] = ()) -> None:
        """Wrap every layer entry point; call before building a system."""
        for owner, attribute, name in CLASS_SPANS + extra:
            self._patch(owner, attribute,
                        self.wrap(name, owner.__dict__[attribute]))
        # Receive handlers are bound while connectors are constructed;
        # wrapping attach_handler covers every handler attached later.
        attach = SimulatedNetwork.__dict__["attach_handler"]
        wrap = self.wrap

        def attach_handler(network, name, handler):
            return attach(network, name, wrap("middleware.receive", handler))

        self._patch(SimulatedNetwork, "attach_handler", attach_handler)
        update = StabilityDetector.__dict__["update"]
        tracer = self

        def counted_update(detector, value):
            accepted = update(detector, value)
            if not accepted:
                tracer.eps_rejections += 1
            return accepted

        self._patch(StabilityDetector, "update", counted_update)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (__, __, self_s) in self.totals.items():
            out[LAYER_OF[name]] += self_s
        return out

    def effect_breakdown(self) -> Dict[str, float]:
        """Split effect spans into pre-flight, planning, clock pumping
        (waiting on migration) and the rest (the effector's own work)."""
        by_id = {span[0]: span for span in self.spans}

        def nearest(span: List[Any], names: Tuple[str, ...]):
            parent = span[4]
            while parent is not None:
                candidate = by_id[parent]
                if candidate[1] in names:
                    return candidate
                parent = candidate[4]
            return None

        effect_s = preflight_s = schedule_s = wait_s = 0.0
        for span in self.spans:
            duration = span[3] - span[2]
            name = span[1]
            if name == "effector.effect":
                if nearest(span, ("effector.effect",)) is None:
                    effect_s += duration
                continue
            if name not in ("effector.preflight", "plan.schedule",
                            "sim.clock"):
                continue
            # Only the outermost such span inside an effect counts.
            owner = nearest(span, ("effector.effect", "effector.preflight",
                                   "plan.schedule", "sim.clock"))
            if owner is None or owner[1] != "effector.effect":
                continue
            if name == "effector.preflight":
                preflight_s += duration
            elif name == "plan.schedule":
                schedule_s += duration
            else:
                wait_s += duration
        return {"effect_s": effect_s, "preflight_s": preflight_s,
                "schedule_s": schedule_s, "wait_s": wait_s,
                "self_s": effect_s - preflight_s - schedule_s - wait_s}

    def operation_s(self, name: str) -> float:
        """Inclusive CPU seconds of outermost spans called *name*."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span[1] != name:
                continue
            parent = span[4]
            nested = False
            while parent is not None:
                if by_id[parent][1] == name:
                    nested = True
                    break
                parent = by_id[parent][4]
            if not nested:
                total += span[3] - span[2]
        return total

    def dump(self, path: str, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write recorded spans and per-name totals as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"meta": meta or {}}) + "\n")
            for name in sorted(self.totals):
                count, inclusive, self_s = self.totals[name]
                handle.write(json.dumps({
                    "total": name, "layer": LAYER_OF[name], "count": count,
                    "inclusive_s": inclusive, "self_s": self_s}) + "\n")
            for span_id, name, start, end, parent, op, run in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op,
                    "run": run}) + "\n")
