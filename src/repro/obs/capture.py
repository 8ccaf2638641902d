"""Capture files: JSON-lines export/import and text rendering.

A *capture* is the frozen contents of one
:class:`~repro.obs.Observability` — every metric instrument and every
completed span tree — serialized one JSON object per line::

    {"type": "meta", "version": 1, "label": "crisis seed=7"}
    {"type": "counter", "name": "middleware.scaffold.dispatched", ...}
    {"type": "gauge", "name": "sim.network.in_flight", ...}
    {"type": "histogram", "name": "effector.kb_moved", ...}
    {"type": "span", "id": 0, "parent": null, "name": "framework.window",
     "start": 30.0, "end": 30.0, "attrs": {...}}

Span ids are assigned depth-first at export time; ``parent`` refers to
an earlier id, so a stream can be rebuilt into the exact original trees
in one pass.  Floats survive the trip exactly (Python's ``json`` emits
``repr``-precision), which is what lets the round-trip property test
demand equality, not approximation.

The same class renders captures for humans (a flamegraph-style span
summary plus a metrics table) and diffs two captures metric-by-metric —
the ``python -m repro obs`` verbs are thin wrappers over these methods.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ReproError
from .metrics import MetricsRegistry
from .trace import Span

FORMAT_VERSION = 1


def _span_to_lines(span: Span, parent: Optional[int],
                   lines: List[Dict[str, Any]]) -> None:
    my_id = len(lines)  # depth-first ids; lines holds only span dicts
    lines.append({
        "type": "span", "id": my_id, "parent": parent, "name": span.name,
        "start": span.start, "end": span.end, "attrs": span.attributes,
    })
    for child in span.children:
        _span_to_lines(child, my_id, lines)


class Capture:
    """An exported observability snapshot: metrics + span trees."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[List[Span]] = None, label: str = ""):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: List[Span] = list(spans or [])
        self.label = label

    @classmethod
    def from_obs(cls, obs: Any, label: str = "") -> "Capture":
        """Freeze an :class:`~repro.obs.Observability` into a capture."""
        metrics = MetricsRegistry()
        if obs.metrics.enabled:
            metrics.merge(obs.metrics)
        return cls(metrics, list(obs.tracer.roots), label)

    # -- serialization ---------------------------------------------------
    def to_lines(self) -> List[Dict[str, Any]]:
        lines: List[Dict[str, Any]] = [
            {"type": "meta", "version": FORMAT_VERSION, "label": self.label},
        ]
        lines.extend(self.metrics.to_lines())
        span_lines: List[Dict[str, Any]] = []
        for root in self.spans:
            _span_to_lines(root, None, span_lines)
        lines.extend(span_lines)
        return lines

    def dumps(self) -> str:
        return "\n".join(
            json.dumps(line, sort_keys=True) for line in self.to_lines()
        ) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "Capture":
        capture = cls()
        by_id: Dict[int, Span] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"capture line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(line, dict):
                raise ReproError(
                    f"capture line {lineno}: expected a JSON object, got "
                    f"{type(line).__name__}")
            try:
                capture._load_line(line, by_id, lineno)
            except (KeyError, TypeError, ValueError) as exc:
                raise ReproError(
                    f"capture line {lineno}: malformed "
                    f"{line.get('type')!r} line ({type(exc).__name__}: "
                    f"{exc})") from exc
        return capture

    def _load_line(self, line: Dict[str, Any], by_id: Dict[int, Span],
                   lineno: int) -> None:
        kind = line.get("type")
        if kind == "meta":
            version = line.get("version")
            if version != FORMAT_VERSION:
                raise ReproError(
                    f"capture version {version!r} not supported "
                    f"(expected {FORMAT_VERSION})")
            self.label = line.get("label", "")
        elif kind in ("counter", "gauge", "histogram"):
            self.metrics.load_line(line)
        elif kind == "span":
            span = Span(line["name"], start=line["start"],
                        end=line["end"],
                        attributes=dict(line.get("attrs", {})))
            by_id[line["id"]] = span
            parent = line.get("parent")
            if parent is None:
                self.spans.append(span)
            else:
                try:
                    by_id[parent].children.append(span)
                except KeyError:
                    raise ReproError(
                        f"capture line {lineno}: span parent {parent} "
                        f"not seen yet") from None
        else:
            raise ReproError(
                f"capture line {lineno}: unknown type {kind!r}")

    @classmethod
    def load(cls, path: str) -> "Capture":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    # -- analysis --------------------------------------------------------
    def subsystems(self) -> List[str]:
        """Sorted first-dotted-segment names seen in metrics and spans."""
        seen = {inst.name.split(".", 1)[0] for inst in self.metrics}
        for root in self.spans:
            for span in root.walk():
                seen.add(span.name.split(".", 1)[0])
        return sorted(seen)

    def span_rollup(self) -> Dict[Tuple[str, ...], Tuple[int, float]]:
        """Aggregate spans by path: ``{path: (count, total duration)}``."""
        rollup: Dict[Tuple[str, ...], Tuple[int, float]] = {}

        def visit(span: Span, prefix: Tuple[str, ...]) -> None:
            path = prefix + (span.name,)
            count, total = rollup.get(path, (0, 0.0))
            rollup[path] = (count + 1, total + span.duration)
            for child in span.children:
                visit(child, path)

        for root in self.spans:
            visit(root, ())
        return rollup

    # -- rendering -------------------------------------------------------
    def render(self, show_spans: bool = True, show_metrics: bool = True,
               **_opts: Any) -> str:
        out: List[str] = [f"capture: {self.label or '(unlabelled)'}"]
        if show_spans:
            out.append("")
            out.extend(self._render_spans())
        if show_metrics:
            out.append("")
            out.extend(self._render_metrics())
        return "\n".join(out)

    def _render_spans(self) -> List[str]:
        rollup = self.span_rollup()
        if not rollup:
            return ["spans: (none recorded)"]
        out = ["spans (sim-time, aggregated by path):"]
        # Depth-first order falls out of sorting the path tuples because
        # every child path extends its parent's tuple.
        paths = sorted(rollup)
        width = max(2 * (len(p) - 1) + len(p[-1]) for p in paths)
        for path in paths:
            count, total = rollup[path]
            indent = "  " * (len(path) - 1)
            label = f"{indent}{path[-1]}".ljust(width)
            parent = path[:-1]
            share = ""
            if parent in rollup and rollup[parent][1] > 0:
                share = f"  {100 * total / rollup[parent][1]:5.1f}%"
            out.append(f"  {label}  x{count:<4d} total {total:10.4f}s"
                       f"{share}")
        return out

    def _render_metrics(self) -> List[str]:
        instruments = list(self.metrics)
        if not instruments:
            return ["metrics: (none recorded)"]
        out = ["metrics:"]
        rows = []
        for inst in instruments:
            labels = ",".join(f"{k}={v}" for k, v in inst.labels)
            if inst.kind == "counter":
                detail = f"{inst.value:g}"
            elif inst.kind == "gauge":
                detail = f"{inst.value:g} (high {inst.high:g})"
            else:
                detail = (f"n={inst.count} sum={inst.sum:g}"
                          + (f" min={inst.min:g} max={inst.max:g}"
                             if inst.count else ""))
            rows.append((inst.kind, inst.name, labels, detail))
        widths = [max(len(row[i]) for row in rows) for i in range(3)]
        for kind, name, labels, detail in rows:
            out.append(f"  {kind.ljust(widths[0])}  {name.ljust(widths[1])}"
                       f"  {labels.ljust(widths[2])}  {detail}")
        return out

    # -- diffing ---------------------------------------------------------
    def diff(self, other: "Capture") -> str:
        """Metric-by-metric and span-rollup comparison, text formatted."""
        out = [f"diff: {self.label or 'a'} -> {other.label or 'b'}", ""]
        out.extend(self._diff_metrics(other))
        out.append("")
        out.extend(self._diff_spans(other))
        return "\n".join(out)

    def _metric_values(self) -> Dict[Tuple[str, str], float]:
        values: Dict[Tuple[str, str], float] = {}
        for inst in self.metrics:
            labels = ",".join(f"{k}={v}" for k, v in inst.labels)
            key = (inst.name, labels)
            values[key] = inst.sum if inst.kind == "histogram" else inst.value
        return values

    def _diff_metrics(self, other: "Capture") -> List[str]:
        mine, theirs = self._metric_values(), other._metric_values()
        keys = sorted(set(mine) | set(theirs))
        changed = [(k, mine.get(k, 0.0), theirs.get(k, 0.0))
                   for k in keys if mine.get(k, 0.0) != theirs.get(k, 0.0)]
        if not changed:
            return ["metrics: identical"]
        out = [f"metrics ({len(changed)} changed of {len(keys)}):"]
        width = max(len(name) + bool(labels) + len(labels)
                    for (name, labels), _, _ in changed)
        for (name, labels), a, b in changed:
            shown = f"{name}{{{labels}}}" if labels else name
            out.append(f"  {shown.ljust(width)}  {a:g} -> {b:g} "
                       f"({b - a:+g})")
        return out

    def _diff_spans(self, other: "Capture") -> List[str]:
        mine, theirs = self.span_rollup(), other.span_rollup()
        keys = sorted(set(mine) | set(theirs))
        if not keys:
            return ["spans: (none in either capture)"]
        changed = []
        for key in keys:
            a_count, a_total = mine.get(key, (0, 0.0))
            b_count, b_total = theirs.get(key, (0, 0.0))
            if (a_count, a_total) != (b_count, b_total):
                changed.append((key, a_count, a_total, b_count, b_total))
        if not changed:
            return ["spans: identical"]
        out = [f"spans ({len(changed)} changed of {len(keys)} paths):"]
        for key, a_count, a_total, b_count, b_total in changed:
            path = "/".join(key)
            out.append(f"  {path}  x{a_count} {a_total:.4f}s -> "
                       f"x{b_count} {b_total:.4f}s")
        return out
