"""Incremental neighborhood-search state shared by the portfolio.

Before this module, every local-search round re-scanned all C×H candidate
moves, and each legality probe cost O(C) inside the object constraint path
— O(C²·H) per round around kernels that already answer a move delta in
O(degree).  :class:`SearchState` turns the round into O(affected):

* **Constraint checkers.**  :func:`make_checker` resolves either the
  compiled fast path (:class:`CompiledConstraintChecker`, O(1) ``allows``
  over :class:`~repro.core.constraints_compiled.CompiledConstraintSet`) or
  the object fallback (:class:`ObjectConstraintChecker`) when a constraint
  type is not compilable.  Both expose the same protocol, count their
  queries into ``EvaluationStats.constraint_checks``, and are equivalent by
  construction/property test — which is what makes the fast path safe to
  choose whenever the constraint set compiles.  Both also run the
  constructive greedy fill (``fill``): in bulk on the compiled path, one
  probe at a time on the object path, with equal probe counts.

* **Legal-move frontier with dirty-move invalidation.**  The frontier
  caches each component's best improving move and the per-move deltas.
  After component *c* moves h₁→h₂, only the affected slice is re-scored:
  rows {c} ∪ neighbors(c) (their deltas reference c's host), rows coupled
  through collocation groups or through traffic into h₁/h₂ (their
  *legality* may have changed), and columns h₁/h₂ for every row (residual
  capacity changed there).  Rows whose cached best survives are served
  from the cache (``frontier_hits``); rows with no improving move stay
  parked until an invalidation touches them — the classic don't-look bit.
  A lazy best-move heap orders the surviving row bests.

* **Exactness.**  Deltas always come from the evaluation engine's kernels
  (`move_delta_indexed`), in both checker modes, so fixed-seed trajectories
  are identical between the compiled and object constraint paths — the
  regression suite asserts byte-identical assignments and move logs.
  Objectives whose deltas are not neighbor-local
  (``Objective.local_delta`` False, e.g. throughput's bottleneck max)
  invalidate the whole frontier each move: still a win, because legality
  stays O(1) and deltas skip the per-call re-encode.

See ``docs/PERFORMANCE.md`` (search-engine section) for the invalidation
rules and the measured speedups (``BENCH_search.json``).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.compiled import UNDEPLOYED, CompiledModel, compiled_model
from repro.algorithms.engine import EvaluationEngine, EvaluationStats
from repro.core.constraints import ConstraintSet
from repro.core.constraints_compiled import (
    CompiledConstraintSet, compile_constraints,
)
from repro.core.model import DeploymentModel
from repro.core.objectives import Objective

#: Minimum gain for a move to count as strictly improving (matches the
#: historical scan-loop tolerance).
GAIN_EPS = 1e-12

#: Sentinel for "component was absent" in object-checker undo tokens.
_ABSENT = object()


class ObjectConstraintChecker:
    """Constraint checker over the object ``ConstraintSet`` path.

    The semantics of record: ``allows`` is ``ConstraintSet.allows`` on the
    mirrored partial assignment.  Used when a constraint type cannot be
    compiled, and by the regression/property suites as the ground truth the
    compiled checker must match.
    """

    compiled = False

    def __init__(self, model: DeploymentModel, constraints: ConstraintSet,
                 stats: Optional[EvaluationStats] = None,
                 cm: Optional[CompiledModel] = None):
        self.model = model
        self.constraints = constraints
        self.stats = stats if stats is not None else EvaluationStats()
        self.cm = cm if cm is not None else compiled_model(model)
        self.partial: Dict[str, str] = {}

    def reset(self, mapping: Mapping[str, str]) -> None:
        self.partial = dict(mapping)

    # -- id lane ---------------------------------------------------------
    def allows(self, component: str, host: str) -> bool:
        self.stats.constraint_checks += 1
        return self.constraints.allows(self.model, self.partial, component,
                                       host)

    def place(self, component: str, host: Optional[str]):
        token = (component, self.partial.get(component, _ABSENT))
        if host is None:
            self.partial.pop(component, None)
        else:
            self.partial[component] = host
        return token

    def undo(self, token) -> None:
        component, old = token
        if old is _ABSENT:
            self.partial.pop(component, None)
        else:
            self.partial[component] = old

    def satisfied(self) -> bool:
        self.stats.constraint_checks += 1
        return self.constraints.is_satisfied(self.model, self.partial)

    def satisfied_partial(self) -> bool:
        self.stats.constraint_checks += 1
        return self.constraints.is_satisfied_partial(self.model, self.partial)

    def violation_count(self, mapping: Optional[Mapping[str, str]] = None,
                        ) -> int:
        self.stats.constraint_checks += 1
        target = self.partial if mapping is None else mapping
        return len(self.constraints.violations(self.model, target))

    # -- index lane ------------------------------------------------------
    def allows_index(self, ci: int, hi: int) -> bool:
        return self.allows(self.cm.component_ids[ci], self.cm.host_ids[hi])

    def place_index(self, ci: int, hi: int):
        host = None if hi == UNDEPLOYED else self.cm.host_ids[hi]
        return self.place(self.cm.component_ids[ci], host)

    def fill(self, host_order: Sequence[int], comp_order: Sequence[int],
             ) -> Optional[List[Tuple[int, int]]]:
        """Greedy host-by-host fill, one :meth:`allows` probe at a time.

        Same contract as :meth:`CompiledConstraintChecker.fill`.
        """
        component_ids, host_ids = self.cm.component_ids, self.cm.host_ids
        self.partial = {}
        placements: List[Tuple[int, int]] = []
        remaining = list(comp_order)
        for hi in host_order:
            if not remaining:
                break
            host = host_ids[hi]
            kept: List[int] = []
            for ci in remaining:
                if self.allows(component_ids[ci], host):
                    self.partial[component_ids[ci]] = host
                    placements.append((ci, hi))
                else:
                    kept.append(ci)
            remaining = kept
        return None if remaining else placements


class CompiledConstraintChecker:
    """O(1) checker over a bound :class:`CompiledConstraintSet`."""

    compiled = True

    def __init__(self, cm: CompiledModel, compiled_set: CompiledConstraintSet,
                 stats: Optional[EvaluationStats] = None):
        self.cm = cm
        self.ccs = compiled_set
        self.stats = stats if stats is not None else EvaluationStats()

    def reset(self, mapping: Mapping[str, str]) -> None:
        self.ccs.bind(mapping)

    # -- id lane ---------------------------------------------------------
    def allows(self, component: str, host: str) -> bool:
        self.stats.constraint_checks += 1
        return self.ccs.allows(self.cm.component_index[component],
                               self.cm.host_index[host])

    def place(self, component: str, host: Optional[str]):
        hi = UNDEPLOYED if host is None else self.cm.host_index[host]
        return self.ccs.place(self.cm.component_index[component], hi)

    def undo(self, token) -> None:
        self.ccs.undo(token)

    def satisfied(self) -> bool:
        self.stats.constraint_checks += 1
        return self.ccs.satisfied()

    def satisfied_partial(self) -> bool:
        self.stats.constraint_checks += 1
        return self.ccs.satisfied_partial()

    def violation_count(self, mapping: Optional[Mapping[str, str]] = None,
                        ) -> int:
        """Violation count; passing *mapping* rebinds the checker to it."""
        self.stats.constraint_checks += 1
        if mapping is not None:
            self.ccs.bind(mapping)
        return self.ccs.violation_count()

    # -- index lane ------------------------------------------------------
    def allows_index(self, ci: int, hi: int) -> bool:
        self.stats.constraint_checks += 1
        return self.ccs.allows(ci, hi)

    def place_index(self, ci: int, hi: int):
        return self.ccs.place(ci, hi)

    def fill(self, host_order: Sequence[int], comp_order: Sequence[int],
             ) -> Optional[List[Tuple[int, int]]]:
        """Greedy host-by-host fill from the empty assignment.

        Each host of *host_order* in turn takes every still-unplaced
        component of *comp_order* that it allows, in order (the Stochastic
        algorithm's constructive step).  Returns the ``(ci, hi)``
        placements in placement order, or ``None`` when some component
        fits nowhere; the checker is left holding the filled state.  Every
        probe counts as one constraint check, as on the object path.
        """
        placements, probes = self.ccs.fill(host_order, comp_order)
        self.stats.constraint_checks += probes
        return placements if len(placements) == len(comp_order) else None


def make_checker(model: DeploymentModel, constraints: ConstraintSet,
                 stats: Optional[EvaluationStats] = None):
    """The fastest applicable constraint checker for *constraints*.

    Compiled when every member constraint is a built-in type (by exact
    type); the object path otherwise.
    """
    cm = compiled_model(model)
    compiled_set = compile_constraints(constraints, cm)
    if compiled_set is not None:
        return CompiledConstraintChecker(cm, compiled_set, stats)
    return ObjectConstraintChecker(model, constraints, stats, cm)


class SearchState:
    """Shared incremental state for one local-search run.

    Owns the assignment (as id mapping *and* compiled index array, kept in
    lock-step), the constraint checker, the legal-move frontier, and the
    move log.  Algorithms drive it through :meth:`best_move` /
    :meth:`apply` (steepest-ascent), :meth:`allows` / :meth:`delta`
    (stochastic proposals), and the swap helpers.
    """

    def __init__(self, model: DeploymentModel, constraints: ConstraintSet,
                 engine: Optional[EvaluationEngine], objective: Objective,
                 assignment: Mapping[str, str], *,
                 count: Optional[Callable[[int], None]] = None):
        self.model = model
        self.constraints = constraints
        self.engine = engine
        self.objective = objective
        self.cm = compiled_model(model)
        self._count = count
        self.stats = engine.stats if engine is not None else EvaluationStats()
        self.mapping: Dict[str, str] = dict(assignment)
        encoded = self.cm.encode(self.mapping)
        if encoded is None:
            raise ValueError("assignment references unknown hosts")
        # One compilation serves both the checker and the invalidation
        # metadata (collocation closures, bandwidth presence).
        info = compile_constraints(constraints, self.cm)
        self._compilable = info is not None
        if info is not None:
            self.checker = CompiledConstraintChecker(self.cm, info,
                                                     self.stats)
            self.checker.reset(encoded)
            #: The checker's array IS our array — one mutation source.
            self.array: List[int] = info.assignment
        else:
            self.checker = ObjectConstraintChecker(model, constraints,
                                                   self.stats, self.cm)
            self.checker.reset(self.mapping)
            self.array = encoded
        self._partners: List[Tuple[int, ...]] = (
            info.colloc_partners if info is not None
            else [()] * self.cm.n_components)
        self._has_bandwidth = info.has_bandwidth if info is not None else True
        self._maximize = objective.direction == "max"
        self.local_delta = bool(getattr(objective, "local_delta", False))
        #: Applied placements, in order: (component_id, host_id).
        self.moves: List[Tuple[str, str]] = []
        self._on_host: List[set] = [set() for _ in range(self.cm.n_hosts)]
        for ci, hi in enumerate(self.array):
            if hi != UNDEPLOYED:
                self._on_host[hi].add(ci)
        # -- frontier ----------------------------------------------------
        self._built = False
        self._deltas: List[List[Optional[float]]] = []
        self._row_best: List[Optional[Tuple[float, int]]] = []
        self._heap: List[Tuple[float, int, int]] = []
        self._clear: set = set()      # rows whose delta caches are stale
        self._rescan: set = set()     # rows whose legality is stale
        self._cols: set = set()       # host columns with legality changes
        self._all_dirty = False       # non-local objective: rebuild all
        self._legal_all = False       # uncompilable constraints: rescan all
        self._base_ok = True

    # -- id/index translation --------------------------------------------
    def component_index(self, component: str) -> int:
        return self.cm.component_index[component]

    def host_index(self, host: str) -> int:
        return self.cm.host_index[host]

    # -- primitive queries -------------------------------------------------
    def allows(self, ci: int, hi: int) -> bool:
        """Constraint legality of moving component *ci* to host *hi*."""
        return self.checker.allows_index(ci, hi)

    def delta(self, ci: int, hi: int) -> float:
        """Raw objective delta for the move, via the engine's kernels."""
        return self._score(ci, hi)

    def satisfied(self) -> bool:
        return self.checker.satisfied()

    def _score(self, ci: int, hi: int) -> float:
        if self._count is not None:
            self._count(1)
        if self.engine is not None:
            return self.engine.move_delta_indexed(self.model, self.mapping,
                                                  self.array, ci, hi)
        return self.objective.move_delta(self.model, self.mapping,
                                         self.cm.component_ids[ci],
                                         self.cm.host_ids[hi])

    # -- mutation ----------------------------------------------------------
    def apply(self, ci: int, hi: int) -> None:
        """Commit the move of component *ci* to host *hi*."""
        old = self.array[ci]
        if old == hi:
            return
        component_id = self.cm.component_ids[ci]
        host_id = self.cm.host_ids[hi]
        self.checker.place_index(ci, hi)
        if not self._compilable:  # else the checker moved the shared array
            self.array[ci] = hi
        self.mapping[component_id] = host_id
        if old != UNDEPLOYED:
            self._on_host[old].discard(ci)
        self._on_host[hi].add(ci)
        self.moves.append((component_id, host_id))
        if self._built:
            self._invalidate(ci, old, hi)

    def apply_swap(self, ca: int, cb: int) -> None:
        """Commit the exchange of two components' hosts."""
        ha, hb = self.array[ca], self.array[cb]
        self.checker.place_index(ca, hb)
        self.checker.place_index(cb, ha)
        if not self._compilable:
            self.array[ca], self.array[cb] = hb, ha
        ca_id, cb_id = self.cm.component_ids[ca], self.cm.component_ids[cb]
        self.mapping[ca_id] = self.cm.host_ids[hb]
        self.mapping[cb_id] = self.cm.host_ids[ha]
        self._on_host[ha].discard(ca)
        self._on_host[hb].add(ca)
        self._on_host[hb].discard(cb)
        self._on_host[ha].add(cb)
        self.moves.append((ca_id, self.cm.host_ids[hb]))
        self.moves.append((cb_id, self.cm.host_ids[ha]))
        if self._built:
            self._invalidate(ca, ha, hb)
            self._invalidate(cb, hb, ha)

    # -- swap probes -------------------------------------------------------
    def swap_allowed(self, ca: int, cb: int) -> bool:
        """Feasibility of exchanging *ca* and *cb* (each side checked with
        the other hypothetically removed — exact-fit exchanges pass)."""
        ha, hb = self.array[ca], self.array[cb]
        removed = self.checker.place_index(cb, UNDEPLOYED)
        ok = self.checker.allows_index(ca, hb)
        self.checker.undo(removed)
        if not ok:
            return False
        first = self.checker.place_index(ca, hb)
        second = self.checker.place_index(cb, ha)
        ok = self.checker.satisfied_partial()
        self.checker.undo(second)
        self.checker.undo(first)
        return ok

    def swap_delta(self, ca: int, cb: int) -> float:
        """Objective delta of the exchange: two sequential move deltas."""
        ha, hb = self.array[ca], self.array[cb]
        ca_id = self.cm.component_ids[ca]
        first = self._score(ca, hb)
        self.array[ca] = hb  # temporarily apply (checker state untouched —
        self.mapping[ca_id] = self.cm.host_ids[hb]  # no legality probes here)
        second = self._score(cb, ha)
        self.array[ca] = ha
        self.mapping[ca_id] = self.cm.host_ids[ha]
        return first + second

    # -- frontier ----------------------------------------------------------
    def best_move(self) -> Optional[Tuple[int, int, float]]:
        """The best strictly-improving legal move, or ``None``.

        Deterministic selection rule (identical in both checker modes):
        maximum direction-adjusted gain > 1e-12, ties broken by lowest
        component index then lowest host index.
        """
        self._refresh()
        heap = self._heap
        while heap:
            neg_gain, ci, hi = heap[0]
            row = self._row_best[ci]
            if row is not None and row[0] == -neg_gain and row[1] == hi:
                return ci, hi, self._deltas[ci][hi]
            heapq.heappop(heap)  # stale entry
        return None

    def _refresh(self) -> None:
        n = self.cm.n_components
        if not self._built:
            self._deltas = [[None] * self.cm.n_hosts for _ in range(n)]
            self._row_best = [None] * n
            for ci in range(n):
                self._rescan_row(ci)
            if self._has_bandwidth:
                self._base_ok = self.checker.satisfied()
            self._built = True
            return
        if self._all_dirty:
            for ci in range(n):
                row = self._deltas[ci]
                for hi in range(self.cm.n_hosts):
                    row[hi] = None
                self._rescan_row(ci)
        elif self._legal_all or self._clear or self._rescan or self._cols:
            for ci in self._clear:
                row = self._deltas[ci]
                for hi in range(self.cm.n_hosts):
                    row[hi] = None
            stale = self._clear | self._rescan
            if self._legal_all:
                for ci in range(n):
                    self._rescan_row(ci)
            else:
                for ci in stale:
                    self._rescan_row(ci)
                if self._cols:
                    cols = self._cols
                    for ci in range(n):
                        if ci not in stale:
                            self._column_update(ci, cols)
        self._all_dirty = False
        self._legal_all = False
        self._clear.clear()
        self._rescan.clear()
        self._cols.clear()
        if len(self._heap) > 4 * n + 16:  # compact stale heap entries
            self._heap = [(-gain, ci, hi)
                          for ci, row in enumerate(self._row_best)
                          if row is not None
                          for gain, hi in [row]]
            heapq.heapify(self._heap)

    def _rescan_row(self, ci: int) -> None:
        deltas = self._deltas[ci]
        cur = self.array[ci]
        checker = self.checker
        stats = self.stats
        best: Optional[Tuple[float, int]] = None
        for hi in range(self.cm.n_hosts):
            if hi == cur:
                continue
            if not checker.allows_index(ci, hi):
                continue
            value = deltas[hi]
            if value is None:
                value = self._score(ci, hi)
                deltas[hi] = value
                stats.moves_rescored += 1
            else:
                stats.frontier_hits += 1
            gain = value if self._maximize else -value
            if gain > GAIN_EPS and (best is None or gain > best[0]):
                best = (gain, hi)
        self._row_best[ci] = best
        if best is not None:
            heapq.heappush(self._heap, (-best[0], ci, best[1]))

    def _column_update(self, ci: int, cols: set) -> None:
        best = self._row_best[ci]
        if best is not None and best[1] in cols:
            # The cached best targets a changed column — rescan the row
            # (delta cache intact, only legality is re-derived).
            self._rescan_row(ci)
            return
        cur = self.array[ci]
        deltas = self._deltas[ci]
        improved = False
        for hi in cols:
            if hi == cur or hi == UNDEPLOYED:
                continue
            if not self.checker.allows_index(ci, hi):
                continue
            value = deltas[hi]
            if value is None:
                value = self._score(ci, hi)
                deltas[hi] = value
                self.stats.moves_rescored += 1
            else:
                self.stats.frontier_hits += 1
            gain = value if self._maximize else -value
            if gain > GAIN_EPS and (
                    best is None or gain > best[0]
                    or (gain == best[0] and hi < best[1])):
                best = (gain, hi)
                improved = True
        if improved:
            self._row_best[ci] = best
            heapq.heappush(self._heap, (-best[0], ci, best[1]))

    def _invalidate(self, ci: int, old: int, new: int) -> None:
        if not self.local_delta:
            # Bottleneck-shaped objective: any move can shift every delta.
            self._all_dirty = True
            return
        cm = self.cm
        clear = self._clear
        clear.add(ci)
        for k in cm.neighbors(ci):
            clear.add(cm.adj_neighbor[k])
        if not self._compilable:
            # Unknown constraint types may couple arbitrary components:
            # re-derive every row's legality (delta caches stay valid).
            self._legal_all = True
        else:
            rescan = self._rescan
            for partner in self._partners[ci]:
                rescan.add(partner)
            if self._has_bandwidth:
                # Legality of (x, h) depends on pair demands touching the
                # changed hosts: rows on old/new plus their neighbors.
                for host in (old, new):
                    if host == UNDEPLOYED:
                        continue
                    for member in self._on_host[host]:
                        rescan.add(member)
                        for k in cm.neighbors(member):
                            rescan.add(cm.adj_neighbor[k])
                # The global overload tally enters every allows() answer;
                # if base feasibility changed, nothing cached is safe.
                ok = self.checker.satisfied()
                if not ok or not self._base_ok:
                    self._legal_all = True
                self._base_ok = ok
        if old != UNDEPLOYED:
            self._cols.add(old)
        self._cols.add(new)
