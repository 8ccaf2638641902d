"""Memoized incremental evaluation and parallel algorithm portfolios.

Two hot-path observations drive this module:

* The analyzer runs *several* redeployment algorithms per improvement cycle
  (Section 4.3) against the same model, and those algorithms keep re-scoring
  the same deployments — the initial deployment, elite genetic individuals,
  revisited local-search states.  :class:`EvaluationEngine` memoizes
  ``Objective.evaluate`` on the hashable
  :class:`~repro.core.model.Deployment` and serves single-component moves
  from the objective's compiled kernel, in O(degree), when it has one.

* One slow or crashing algorithm must not stall the monitor→analyze→effect
  loop.  :class:`PortfolioRunner` executes a portfolio of algorithms
  concurrently with per-algorithm timeouts; failed or timed-out algorithms
  degrade to a skipped :class:`PortfolioOutcome` instead of aborting the
  cycle, and per-run budgets make overrunning algorithms truncate
  gracefully inside their own thread.

Evaluation counters (cache hits/misses, full vs delta evaluations, wall
time against budget) are recorded into ``AlgorithmResult.extra["engine"]``
so benchmarks can prove the savings.
"""

from __future__ import annotations

import contextlib
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.compiled import (
    CompiledModel, Kernel, compile_kernel, compiled_model, has_kernel,
)
from repro.core.constraints import ConstraintSet
from repro.core.errors import AlgorithmError, EvaluationBudgetExceeded
from repro.core.model import DEPLOYMENT_CHANGED, Deployment, DeploymentModel
from repro.core.objectives import Objective
from repro.core.report import ReportBase, deprecated_alias

AlgorithmFactory = Callable[[], "Any"]


def _overrides_move_delta(objective: Objective) -> bool:
    """True when *objective*'s class supplies its own ``move_delta``."""
    return type(objective).move_delta is not Objective.move_delta


class DeploymentCache:
    """Thread-safe memo of objective values, keyed on (objective, deployment).

    The cache binds to one model at a time and registers itself as a model
    listener: any topology or parameter change — in particular monitors
    writing fresh observations through ``set_*_param`` — invalidates every
    entry, so stale values can never be served after the monitored system
    drifts.  ``DEPLOYMENT_CHANGED`` events do *not* invalidate: evaluation
    takes the deployment as an explicit argument, so the model's current
    deployment is irrelevant to cached scores.

    Keys include the objective instance itself, so one cache can be shared
    by a whole portfolio even when algorithms score different objectives
    (e.g. BIP's hard-wired communication cost next to the analyzer's
    availability).
    """

    def __init__(self, max_entries: int = 200_000):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._values: Dict[Tuple[int, Deployment], float] = {}
        # Strong refs to keyed objectives so id() keys cannot be recycled.
        self._objectives: Dict[int, Objective] = {}
        self._model_ref: Optional[weakref.ref] = None
        #: Number of times the whole cache was dropped (model change/rebind).
        self.invalidations = 0

    # -- model binding ------------------------------------------------------
    def _on_model_event(self, event: str, payload: Dict[str, Any]) -> None:
        if event == DEPLOYMENT_CHANGED:
            return
        self.invalidate()

    def bind(self, model: DeploymentModel) -> None:
        """Attach to *model*, dropping entries memoized against another."""
        with self._lock:
            current = self._model_ref() if self._model_ref is not None else None
            if current is model:
                return
            if current is not None:
                with contextlib.suppress(ValueError):
                    current.remove_listener(self._on_model_event)
            self._drop_entries()
            model.add_listener(self._on_model_event)
            self._model_ref = weakref.ref(model)

    def invalidate(self) -> None:
        """Drop every entry (called on any model/parameter mutation)."""
        with self._lock:
            self._drop_entries()

    def _drop_entries(self) -> None:
        if self._values:
            self._values.clear()
            self._objectives.clear()
        self.invalidations += 1

    # -- memo ---------------------------------------------------------------
    def lookup(self, objective: Objective,
               deployment: Deployment) -> Optional[float]:
        with self._lock:
            return self._values.get((id(objective), deployment))

    def store(self, objective: Objective, deployment: Deployment,
              value: float) -> None:
        with self._lock:
            if len(self._values) >= self.max_entries:
                # Wholesale drop: cheap, and correct for a memo cache.
                self._values.clear()
                self._objectives.clear()
            self._values[(id(objective), deployment)] = value
            self._objectives[id(objective)] = objective

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)


@dataclass
class EvaluationStats:
    """Per-run evaluation counters, reported in ``AlgorithmResult.extra``."""

    full_evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    delta_evaluations: int = 0
    #: move_delta requests served by two full evaluations because the
    #: objective has neither a kernel nor its own ``move_delta``.
    delta_fallbacks: int = 0
    #: Full evaluations served by a compiled kernel instead of the
    #: object-path ``Objective.evaluate`` (subset of ``full_evaluations``).
    kernel_evaluations: int = 0
    #: Delta evaluations served by a compiled kernel (subset of
    #: ``delta_evaluations``).
    kernel_deltas: int = 0
    #: ``allows``/``is_satisfied`` queries answered by the run's constraint
    #: checker (compiled or object path) — the search loop's legality work.
    constraint_checks: int = 0
    #: Move candidates whose delta was (re)computed by the search frontier.
    moves_rescored: int = 0
    #: Move candidates served from the frontier's cached score without
    #: rescoring — the work dirty-move invalidation avoided.
    frontier_hits: int = 0
    truncated: bool = False

    @property
    def charged(self) -> int:
        """Budget-charged work: full evaluations plus delta evaluations."""
        return self.full_evaluations + self.delta_evaluations


class EvaluationEngine:
    """Budgeted, memoized evaluation facade over one objective.

    One engine serves one algorithm run at a time (call :meth:`reset`
    between runs); several engines may share a :class:`DeploymentCache`, in
    which case memoized values flow between the algorithms of a portfolio
    while counters and budgets stay per-run.

    Args:
        objective: The objective to score deployments with.
        constraints: Constraint set (carried for callers; evaluation itself
            is unconstrained).
        cache: Shared memo; a private one is created when omitted.
        max_evaluations: Budget on charged evaluations (full + delta) per
            run; ``None`` means unlimited.
        max_seconds: Wall-clock budget per run; ``None`` means unlimited.

    Evaluation goes through the compiled kernel of
    :mod:`repro.algorithms.compiled` when the objective has one (the
    built-ins do; custom objectives use the object path).  Kernel values
    are bit-compatible with ``Objective.evaluate``, so memoized scores mix
    freely.
    """

    def __init__(self, objective: Objective,
                 constraints: Optional[ConstraintSet] = None, *,
                 cache: Optional[DeploymentCache] = None,
                 max_evaluations: Optional[int] = None,
                 max_seconds: Optional[float] = None):
        self.objective = objective
        self.constraints = constraints if constraints is not None else ConstraintSet()
        self.cache = cache if cache is not None else DeploymentCache()
        self.max_evaluations = max_evaluations
        self.max_seconds = max_seconds
        self.stats = EvaluationStats()
        self._started = time.perf_counter()
        self._best: Optional[Tuple[Deployment, float]] = None
        # (model weakref, CompiledModel the kernel was built against,
        #  kernel or None): one kernel per model generation per engine, so
        # stateful kernels are never shared across portfolio threads.
        self._kernel_state: Optional[
            Tuple[weakref.ref, CompiledModel, Optional[Kernel]]] = None

    # -- run lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh run: zero the counters, restart the clock."""
        self.stats = EvaluationStats()
        self._started = time.perf_counter()
        self._best = None

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    @property
    def exhausted(self) -> bool:
        if (self.max_evaluations is not None
                and self.stats.charged >= self.max_evaluations):
            return True
        return self.max_seconds is not None and self.elapsed >= self.max_seconds

    def _charge(self) -> None:
        if self.max_evaluations is not None \
                and self.stats.charged >= self.max_evaluations:
            self.stats.truncated = True
            raise EvaluationBudgetExceeded(
                f"{self.objective.name}: evaluation budget "
                f"{self.max_evaluations} exhausted")
        if self.max_seconds is not None and self.elapsed >= self.max_seconds:
            self.stats.truncated = True
            raise EvaluationBudgetExceeded(
                f"{self.objective.name}: time budget "
                f"{self.max_seconds:.3f}s exhausted")

    # -- compiled-kernel routing --------------------------------------------
    def _kernel_for(self, model: DeploymentModel) -> Optional[Kernel]:
        """The engine's kernel for *model*'s current generation, or None.

        Compiles at most once per (engine, model generation): the model
        snapshot itself is shared process-wide through
        :func:`~repro.algorithms.compiled.compiled_model`, while the kernel
        (which may hold per-base accumulator state) stays private to this
        engine.  Returns None when the objective has no kernel — callers
        then use the object path.
        """
        snapshot = compiled_model(model)
        cached = self._kernel_state
        if cached is not None and cached[0]() is model \
                and cached[1] is snapshot:
            return cached[2]
        kernel = compile_kernel(self.objective, snapshot)
        self._kernel_state = (weakref.ref(model), snapshot, kernel)
        return kernel

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, model: DeploymentModel,
                 deployment: Mapping[str, str], *,
                 charge: bool = True) -> float:
        """Memoized ``objective.evaluate`` keyed on the deployment.

        Cache hits are free; misses are charged against the budget (unless
        ``charge`` is False, used for final result scoring) and served by
        the objective's compiled kernel when one exists.
        """
        return self.evaluate_encoded(model, deployment, None, charge=charge)

    def evaluate_encoded(self, model: DeploymentModel,
                         deployment: Mapping[str, str],
                         assignment: Optional[Sequence[int]], *,
                         charge: bool = True) -> float:
        """:meth:`evaluate` for callers that hold the encoded form.

        *assignment* is *deployment* as a compiled host-index array (the
        Stochastic algorithm builds both in one pass), so a kernel-served
        miss skips ``CompiledModel.encode``; ``None`` encodes on a miss.
        Memo, budget charging and counters are :meth:`evaluate`'s — this
        is its implementation.
        """
        self.cache.bind(model)
        key = (deployment if isinstance(deployment, Deployment)
               else Deployment(deployment))
        cached = self.cache.lookup(self.objective, key)
        if cached is not None:
            self.stats.cache_hits += 1
            self._track_best(key, cached)
            return cached
        if charge:
            self._charge()
        self.stats.cache_misses += 1
        self.stats.full_evaluations += 1
        value: Optional[float] = None
        kernel = self._kernel_for(model)
        if kernel is not None:
            if assignment is None:
                assignment = kernel.cm.encode(key)
            if assignment is not None:
                value = kernel.evaluate(assignment)
                self.stats.kernel_evaluations += 1
        if value is None:
            value = self.objective.evaluate(model, key)
        self.cache.store(self.objective, key, value)
        self._track_best(key, value)
        return value

    def move_delta(self, model: DeploymentModel,
                   deployment: Mapping[str, str], component: str,
                   new_host: str) -> float:
        """Objective change for one component move.

        Served by the objective's compiled kernel when one exists, else by
        its own ``move_delta`` override, else by two (memoized) full
        evaluations.
        """
        kernel = self._kernel_for(model)
        if kernel is not None:
            compiled = kernel.cm
            component_index = compiled.component_index.get(component)
            host_index = compiled.host_index.get(new_host)
            if component_index is not None and host_index is not None:
                assignment = compiled.encode(deployment)
                if assignment is not None:
                    return self._kernel_delta(kernel, assignment,
                                              component_index, host_index)
        return self._object_delta(model, deployment, component, new_host)

    def move_delta_indexed(self, model: DeploymentModel,
                           deployment: Mapping[str, str],
                           assignment: Sequence[int], component_index: int,
                           host_index: int) -> float:
        """:meth:`move_delta` for callers that maintain the encoded form.

        ``repro.algorithms.search.SearchState`` keeps *assignment* (the
        compiled host-index array) in lock-step with *deployment*, so the
        per-call ``CompiledModel.encode`` — O(components) — is skipped and
        a kernel delta costs only O(degree).  Budget charging and counters
        are identical to :meth:`move_delta`.
        """
        kernel = self._kernel_for(model)
        if kernel is not None:
            return self._kernel_delta(kernel, assignment, component_index,
                                      host_index)
        compiled = compiled_model(model)
        return self._object_delta(model, deployment,
                                  compiled.component_ids[component_index],
                                  compiled.host_ids[host_index])

    def _kernel_delta(self, kernel: Kernel, assignment: Sequence[int],
                      component_index: int, host_index: int) -> float:
        self._charge()
        self.stats.delta_evaluations += 1
        self.stats.kernel_deltas += 1
        return kernel.move_delta(assignment, component_index, host_index)

    def _object_delta(self, model: DeploymentModel,
                      deployment: Mapping[str, str], component: str,
                      new_host: str) -> float:
        if _overrides_move_delta(self.objective):
            self._charge()
            self.stats.delta_evaluations += 1
            return self.objective.move_delta(model, deployment, component,
                                             new_host)
        self.stats.delta_fallbacks += 1
        base = self.evaluate(model, deployment)
        moved = dict(deployment)
        moved[component] = new_host
        return self.evaluate(model, moved) - base

    def evaluate_move(self, model: DeploymentModel,
                      deployment: Mapping[str, str], component: str,
                      new_host: str, current_value: float) -> float:
        return current_value + self.move_delta(model, deployment, component,
                                               new_host)

    # -- best-so-far (graceful truncation) ----------------------------------
    def _track_best(self, deployment: Deployment, value: float) -> None:
        if self._best is None or self.objective.is_better(value,
                                                          self._best[1]):
            self._best = (deployment, value)

    def best_seen(self) -> Optional[Tuple[Deployment, float]]:
        """Best fully-evaluated deployment of this run (for truncation)."""
        return self._best

    # -- reporting ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Counters + budget state, merged into ``AlgorithmResult.extra``."""
        return {
            "full_evaluations": self.stats.full_evaluations,
            "cache_hits": self.stats.cache_hits,
            "cache_misses": self.stats.cache_misses,
            "delta_evaluations": self.stats.delta_evaluations,
            "delta_fallbacks": self.stats.delta_fallbacks,
            "kernel_evaluations": self.stats.kernel_evaluations,
            "kernel_deltas": self.stats.kernel_deltas,
            "constraint_checks": self.stats.constraint_checks,
            "moves_rescored": self.stats.moves_rescored,
            "frontier_hits": self.stats.frontier_hits,
            # Moves are served incrementally: by a kernel, or by the
            # objective's own move_delta override.
            "supports_delta": (has_kernel(self.objective)
                               or _overrides_move_delta(self.objective)),
            "truncated": self.stats.truncated,
            "elapsed": self.elapsed,
            "max_evaluations": self.max_evaluations,
            "max_seconds": self.max_seconds,
        }

    def __repr__(self) -> str:
        return (f"EvaluationEngine(objective={self.objective.name}, "
                f"cache={len(self.cache)} entries, "
                f"charged={self.stats.charged})")


# ---------------------------------------------------------------------------
# Portfolio execution
# ---------------------------------------------------------------------------

#: Outcome statuses.
OK = "ok"
SKIPPED = "skipped"     # AlgorithmError (e.g. exact's space guard, no valid)
ERROR = "error"         # unexpected exception inside the algorithm
TIMEOUT = "timeout"     # per-algorithm wall-clock deadline passed


@dataclass
class PortfolioOutcome:
    """One algorithm's fate within a portfolio run."""

    name: str
    status: str
    result: Optional[Any] = None  # AlgorithmResult when status == OK
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == OK


@dataclass
class PortfolioReport(ReportBase):
    """All outcomes of one portfolio run, in submission order."""

    outcomes: List[PortfolioOutcome] = field(default_factory=list)
    elapsed: float = 0.0

    def results(self) -> List[Any]:
        return [o.result for o in self.outcomes if o.result is not None]

    def outcome(self, name: str) -> PortfolioOutcome:
        for candidate in self.outcomes:
            if candidate.name == name:
                return candidate
        raise KeyError(name)

    @property
    def succeeded(self) -> Tuple[str, ...]:
        return tuple(o.name for o in self.outcomes if o.ok)

    @property
    def degraded(self) -> Tuple[str, ...]:
        return tuple(o.name for o in self.outcomes if not o.ok)

    def counters(self) -> Dict[str, int]:
        """Aggregate engine counters across the portfolio's results."""
        totals = {"full_evaluations": 0, "cache_hits": 0, "cache_misses": 0,
                  "delta_evaluations": 0, "delta_fallbacks": 0,
                  "kernel_evaluations": 0, "kernel_deltas": 0,
                  "constraint_checks": 0, "moves_rescored": 0,
                  "frontier_hits": 0}
        for outcome in self.outcomes:
            if outcome.result is None:
                continue
            engine = outcome.result.extra.get("engine", {})
            for key in totals:
                totals[key] += int(engine.get(key, 0))
        return totals

    def summary_line(self) -> str:
        parts = [f"{o.name}:{o.status}" for o in self.outcomes]
        return f"portfolio[{', '.join(parts)}] in {self.elapsed * 1000:.1f} ms"

    def to_dict(self, include_timing: bool = True,
                **opts: Any) -> Dict[str, Any]:
        outcomes = []
        for o in self.outcomes:
            entry: Dict[str, Any] = {"name": o.name, "status": o.status,
                                     "error": o.error}
            if o.result is not None:
                entry["result"] = o.result.to_dict(
                    include_timing=include_timing)
            if include_timing:
                entry["elapsed"] = o.elapsed
            outcomes.append(entry)
        payload: Dict[str, Any] = {"outcomes": outcomes,
                                   "counters": self.counters()}
        if include_timing:
            payload["elapsed"] = self.elapsed
        return payload

    def render(self, **opts: Any) -> str:
        lines = [self.summary_line()]
        for o in self.outcomes:
            if o.result is not None:
                lines.append(f"  {o.result.summary_line()}")
            else:
                lines.append(f"  {o.name}: {o.status}"
                             + (f" ({o.error})" if o.error else ""))
        return "\n".join(lines)

    summary = deprecated_alias("summary_line", "summary")


class PortfolioRunner:
    """Run a portfolio of algorithms against one model, concurrently.

    Every algorithm gets a fresh instance (from its factory) and a private
    :class:`EvaluationEngine`; all engines share one
    :class:`DeploymentCache`, so a deployment scored by any portfolio
    member is free for every other member — and for later runs of the same
    runner, until the model changes.

    A timed-out algorithm cannot be killed mid-thread, so the runner also
    arms each engine's ``max_seconds`` with the per-algorithm timeout: the
    overrunning algorithm truncates itself at its next evaluation while the
    portfolio has already moved on.

    Args:
        algorithm_timeout: Per-algorithm wall-clock deadline in seconds
            (None = unlimited).
        max_evaluations / max_seconds: Per-algorithm engine budgets.
        max_workers: Thread-pool width; defaults to the portfolio size.
        parallel: Run sequentially (sharing the cache) when False.
        cache: Shared memo; a private persistent one is created when
            omitted.
    """

    def __init__(self, *, algorithm_timeout: Optional[float] = None,
                 max_evaluations: Optional[int] = None,
                 max_seconds: Optional[float] = None,
                 max_workers: Optional[int] = None,
                 parallel: bool = True,
                 cache: Optional[DeploymentCache] = None):
        self.algorithm_timeout = algorithm_timeout
        self.max_evaluations = max_evaluations
        self.max_seconds = max_seconds
        self.max_workers = max_workers
        self.parallel = parallel
        self.cache = cache if cache is not None else DeploymentCache()

    # ------------------------------------------------------------------
    def _engine_for(self, algorithm: Any) -> EvaluationEngine:
        max_seconds = self.max_seconds
        if self.algorithm_timeout is not None:
            max_seconds = (self.algorithm_timeout if max_seconds is None
                           else min(max_seconds, self.algorithm_timeout))
        return EvaluationEngine(
            algorithm.objective, algorithm.constraints, cache=self.cache,
            max_evaluations=self.max_evaluations, max_seconds=max_seconds)

    def _run_one(self, name: str, factory: AlgorithmFactory,
                 model: DeploymentModel,
                 initial: Optional[Mapping[str, str]]) -> PortfolioOutcome:
        started = time.perf_counter()
        try:
            algorithm = factory()
            engine = self._engine_for(algorithm)
            result = algorithm.run(model, initial=initial, engine=engine)
            return PortfolioOutcome(name, OK, result=result,
                                    elapsed=time.perf_counter() - started)
        except AlgorithmError as exc:
            return PortfolioOutcome(name, SKIPPED, error=str(exc),
                                    elapsed=time.perf_counter() - started)
        except Exception as exc:  # noqa: BLE001 — degrade, never abort
            return PortfolioOutcome(name, ERROR,
                                    error=f"{type(exc).__name__}: {exc}",
                                    elapsed=time.perf_counter() - started)

    def run(self, model: DeploymentModel,
            factories: Mapping[str, AlgorithmFactory],
            initial: Optional[Mapping[str, str]] = None) -> PortfolioReport:
        """Execute every factory against *model*; never raises per-algorithm
        failures — each is captured as a degraded outcome."""
        started = time.perf_counter()
        ordered = list(factories.items())
        report = PortfolioReport()
        if not ordered:
            return report
        if not self.parallel or len(ordered) == 1:
            for name, factory in ordered:
                report.outcomes.append(
                    self._run_one(name, factory, model, initial))
            report.elapsed = time.perf_counter() - started
            return report

        workers = self.max_workers or len(ordered)
        pool = ThreadPoolExecutor(max_workers=workers,
                                  thread_name_prefix="portfolio")
        try:
            futures = [(name, pool.submit(self._run_one, name, factory,
                                          model, initial))
                       for name, factory in ordered]
            for name, future in futures:
                if self.algorithm_timeout is None:
                    report.outcomes.append(future.result())
                    continue
                # Deadline measured from portfolio start (plus scheduling
                # grace): members run concurrently, so the whole cycle's
                # wall clock stays bounded by one timeout, not their sum.
                remaining = (started + self.algorithm_timeout + 0.05
                             - time.perf_counter())
                try:
                    report.outcomes.append(
                        future.result(timeout=max(0.0, remaining)))
                except _FutureTimeout:
                    future.cancel()
                    report.outcomes.append(PortfolioOutcome(
                        name, TIMEOUT,
                        error=f"exceeded {self.algorithm_timeout:.3f}s",
                        elapsed=time.perf_counter() - started))
        finally:
            # wait=False: a hung member must not stall the cycle — its
            # engine's max_seconds makes it truncate itself in-thread.
            pool.shutdown(wait=False)
        report.elapsed = time.perf_counter() - started
        return report


def run_portfolio(model: DeploymentModel,
                  factories: Mapping[str, AlgorithmFactory], *,
                  algorithm_timeout: Optional[float] = None,
                  max_evaluations: Optional[int] = None,
                  parallel: bool = True,
                  initial: Optional[Mapping[str, str]] = None,
                  ) -> PortfolioReport:
    """One-shot convenience wrapper around :class:`PortfolioRunner`."""
    runner = PortfolioRunner(algorithm_timeout=algorithm_timeout,
                             max_evaluations=max_evaluations,
                             parallel=parallel)
    return runner.run(model, factories, initial=initial)
