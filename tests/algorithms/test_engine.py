"""Tests for the evaluation engine and the portfolio runner.

Covers the memo cache's model-listener invalidation, the delta fast path
and its fallback, budget-exhaustion truncation, and the portfolio's
degrade-don't-abort guarantees (crash, give-up, timeout).
"""

from __future__ import annotations

import time

import pytest

from repro.algorithms import (
    AvalaAlgorithm, HillClimbingAlgorithm, StochasticAlgorithm,
)
from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.engine import (
    ERROR, OK, SKIPPED, TIMEOUT, DeploymentCache, EvaluationEngine,
    PortfolioRunner, run_portfolio,
)
from repro.core.analyzer import Analyzer
from repro.core.errors import EvaluationBudgetExceeded, NoValidDeploymentError
from repro.core.objectives import (
    AvailabilityObjective, CommunicationCostObjective, Objective,
)


class CrashingAlgorithm(DeploymentAlgorithm):
    """Simulates an algorithm with a genuine bug."""

    name = "crashing"

    def _search(self, model, initial):
        raise RuntimeError("boom")


class GivingUpAlgorithm(DeploymentAlgorithm):
    """Simulates an algorithm that finds nothing valid."""

    name = "giving_up"

    def _search(self, model, initial):
        raise NoValidDeploymentError("nothing satisfies the constraints")


class SleepyAlgorithm(DeploymentAlgorithm):
    """Simulates an algorithm that blows its deadline."""

    name = "sleepy"

    def __init__(self, objective, constraints=None, seed=None,
                 naptime: float = 1.0):
        super().__init__(objective, constraints, seed)
        self.naptime = naptime

    def _search(self, model, initial):
        time.sleep(self.naptime)
        return initial, {}


class TestDeploymentCache:
    def test_second_evaluation_is_a_hit(self, tiny_model, availability):
        engine = EvaluationEngine(availability)
        first = engine.evaluate(tiny_model, tiny_model.deployment)
        second = engine.evaluate(tiny_model, tiny_model.deployment)
        assert first == second
        assert engine.stats.full_evaluations == 1
        assert engine.stats.cache_hits == 1

    def test_parameter_change_invalidates(self, tiny_model, availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        stale = engine.evaluate(tiny_model, deployment)
        tiny_model.set_physical_link_param("hA", "hB", "reliability", 0.9)
        fresh = engine.evaluate(tiny_model, deployment)
        assert fresh != stale  # c2--c3 crosses the now-better link
        assert fresh == availability.evaluate(tiny_model, deployment)
        assert engine.stats.full_evaluations == 2
        assert engine.cache.invalidations >= 1

    def test_topology_change_invalidates(self, tiny_model, availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        engine.evaluate(tiny_model, deployment)
        tiny_model.add_host("hC", memory=50.0)
        assert len(engine.cache) == 0

    def test_deployment_change_does_not_invalidate(self, tiny_model,
                                                   availability):
        # evaluate() takes the deployment explicitly, so the model's
        # *current* deployment is irrelevant to cached scores.
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        engine.evaluate(tiny_model, deployment)
        tiny_model.deploy("c1", "hB")
        assert len(engine.cache) == 1
        engine.evaluate(tiny_model, deployment)
        assert engine.stats.cache_hits == 1

    def test_objectives_do_not_cross_talk(self, tiny_model):
        cache = DeploymentCache()
        availability = EvaluationEngine(AvailabilityObjective(), cache=cache)
        cost = EvaluationEngine(CommunicationCostObjective(), cache=cache)
        deployment = dict(tiny_model.deployment)
        a = availability.evaluate(tiny_model, deployment)
        c = cost.evaluate(tiny_model, deployment)
        assert a != c
        assert len(cache) == 2
        assert availability.evaluate(tiny_model, deployment) == a
        assert cost.evaluate(tiny_model, deployment) == c
        assert availability.stats.cache_hits == 1
        assert cost.stats.cache_hits == 1

    def test_overflow_drops_wholesale(self, tiny_model, availability):
        cache = DeploymentCache(max_entries=2)
        engine = EvaluationEngine(availability, cache=cache)
        for c1_host, c2_host in [("hA", "hA"), ("hB", "hA"), ("hB", "hB")]:
            engine.evaluate(tiny_model,
                            {"c1": c1_host, "c2": c2_host, "c3": "hB"})
        assert len(cache) == 1  # third store cleared the full cache first


class TestEvaluationEngine:
    def test_delta_fast_path_is_charged_as_delta(self, tiny_model,
                                                 availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        base = engine.evaluate(tiny_model, deployment)
        delta = engine.move_delta(tiny_model, deployment, "c1", "hB")
        assert engine.stats.delta_evaluations == 1
        assert engine.stats.full_evaluations == 1  # only the base
        moved = dict(deployment, c1="hB")
        assert base + delta == pytest.approx(
            availability.evaluate(tiny_model, moved), abs=1e-9)

    def test_delta_fallback_for_non_delta_objectives(self, tiny_model):
        class FullOnly(Objective):
            name = "full_only"

            def evaluate(self, model, deployment):
                return float(len(set(deployment.values())))

        objective = FullOnly()
        engine = EvaluationEngine(objective)
        deployment = dict(tiny_model.deployment)
        delta = engine.move_delta(tiny_model, deployment, "c1", "hB")
        assert engine.stats.delta_fallbacks == 1
        assert engine.stats.delta_evaluations == 0
        assert engine.stats.full_evaluations == 2  # base + moved, memoized
        moved = dict(deployment, c1="hB")
        assert delta == pytest.approx(
            objective.evaluate(tiny_model, moved)
            - objective.evaluate(tiny_model, deployment), abs=1e-9)

    def test_evaluation_budget_raises_when_exhausted(self, tiny_model,
                                                     availability):
        engine = EvaluationEngine(availability, max_evaluations=2)
        engine.evaluate(tiny_model, {"c1": "hA", "c2": "hA", "c3": "hA"})
        engine.evaluate(tiny_model, {"c1": "hB", "c2": "hA", "c3": "hA"})
        with pytest.raises(EvaluationBudgetExceeded):
            engine.evaluate(tiny_model, {"c1": "hA", "c2": "hB", "c3": "hA"})
        assert engine.stats.truncated is True
        # Cache hits stay free even after exhaustion.
        assert engine.evaluate(
            tiny_model, {"c1": "hA", "c2": "hA", "c3": "hA"}) is not None

    def test_algorithm_truncates_gracefully(self, medium_model, availability,
                                            memory_constraints):
        algorithm = StochasticAlgorithm(availability, memory_constraints,
                                        seed=7, iterations=200)
        engine = EvaluationEngine(availability, memory_constraints,
                                  max_evaluations=10)
        result = algorithm.run(medium_model.copy(), engine=engine)
        assert result.extra["engine"]["truncated"] is True
        assert result.extra.get("truncated") is True
        assert result.deployment  # degraded to best-seen, not aborted
        counters = result.extra["engine"]
        assert counters["full_evaluations"] <= 10 + 1  # +1 final (uncharged)

    def test_snapshot_reports_budgets(self, tiny_model, availability):
        engine = EvaluationEngine(availability, max_evaluations=50,
                                  max_seconds=2.0)
        engine.evaluate(tiny_model, tiny_model.deployment)
        snapshot = engine.snapshot()
        assert snapshot["full_evaluations"] == 1
        assert snapshot["max_evaluations"] == 50
        assert snapshot["max_seconds"] == 2.0
        assert snapshot["supports_delta"] is True
        assert snapshot["elapsed"] >= 0.0


class TestPortfolioRunner:
    def _factories(self, availability, memory_constraints):
        return {
            "avala": lambda: AvalaAlgorithm(availability, memory_constraints,
                                            seed=1),
            "stochastic": lambda: StochasticAlgorithm(
                availability, memory_constraints, seed=1, iterations=20),
        }

    def test_all_ok(self, small_model, availability, memory_constraints):
        report = run_portfolio(
            small_model, self._factories(availability, memory_constraints))
        assert [o.status for o in report.outcomes] == [OK, OK]
        assert set(report.succeeded) == {"avala", "stochastic"}
        assert len(report.results()) == 2

    def test_crashing_member_degrades_to_error(self, small_model,
                                               availability,
                                               memory_constraints):
        factories = self._factories(availability, memory_constraints)
        factories["crashing"] = lambda: CrashingAlgorithm(
            availability, memory_constraints)
        report = run_portfolio(small_model, factories)
        assert report.outcome("crashing").status == ERROR
        assert "boom" in report.outcome("crashing").error
        assert set(report.succeeded) == {"avala", "stochastic"}

    def test_giving_up_member_degrades_to_skipped(self, small_model,
                                                  availability,
                                                  memory_constraints):
        factories = self._factories(availability, memory_constraints)
        factories["giving_up"] = lambda: GivingUpAlgorithm(
            availability, memory_constraints)
        report = run_portfolio(small_model, factories)
        assert report.outcome("giving_up").status == SKIPPED
        assert set(report.succeeded) == {"avala", "stochastic"}

    def test_slow_member_times_out(self, small_model, availability,
                                   memory_constraints):
        factories = self._factories(availability, memory_constraints)
        factories["sleepy"] = lambda: SleepyAlgorithm(
            availability, memory_constraints, naptime=1.0)
        runner = PortfolioRunner(algorithm_timeout=0.2)
        report = runner.run(small_model, factories)
        assert report.outcome("sleepy").status == TIMEOUT
        assert set(report.succeeded) == {"avala", "stochastic"}
        # The cycle's wall clock is bounded by the timeout, not the nap.
        assert report.elapsed < 1.0

    def test_shared_cache_saves_full_evaluations(self, small_model,
                                                 availability,
                                                 memory_constraints):
        factories = {
            "hillclimb": lambda: HillClimbingAlgorithm(
                availability, memory_constraints, seed=3, max_rounds=10),
            "stochastic": lambda: StochasticAlgorithm(
                availability, memory_constraints, seed=3, iterations=20),
            "avala": lambda: AvalaAlgorithm(availability, memory_constraints,
                                            seed=3),
        }
        runner = PortfolioRunner(parallel=False)  # deterministic ordering
        report = runner.run(small_model, factories)
        assert [o.status for o in report.outcomes] == [OK, OK, OK]
        counters = report.counters()
        logical = sum(r.evaluations for r in report.results())
        # The memoized/delta engine pays for measurably fewer full
        # Objective.evaluate calls than the algorithms logically request.
        assert counters["full_evaluations"] < logical
        assert counters["cache_hits"] + counters["delta_evaluations"] > 0
        # The search-engine counters surface through the same report (and
        # from there into repro.obs via the analyzer's promotion loop).
        assert counters["constraint_checks"] > 0
        assert "moves_rescored" in counters and "frontier_hits" in counters

    def test_empty_portfolio(self, small_model):
        report = PortfolioRunner().run(small_model, {})
        assert report.outcomes == []


class TestAnalyzerResilience:
    def test_crashing_algorithm_does_not_abort_analyze(self, medium_model):
        analyzer = Analyzer(AvailabilityObjective(), seed=5)
        analyzer.registry.register(
            "crashing", lambda: CrashingAlgorithm(analyzer.objective,
                                                  analyzer.constraints),
            tier="thorough")
        decision = analyzer.analyze(medium_model)
        assert decision.action in ("redeploy", "no_action")
        assert decision.portfolio is not None
        assert decision.portfolio.outcome("crashing").status == ERROR
        assert "crashing" in decision.portfolio.degraded

    def test_timed_out_algorithm_does_not_abort_analyze(self, medium_model):
        analyzer = Analyzer(AvailabilityObjective(), seed=5,
                            algorithm_timeout=0.25)
        analyzer.registry.register(
            "sleepy", lambda: SleepyAlgorithm(analyzer.objective,
                                              analyzer.constraints,
                                              naptime=1.5),
            tier="thorough")
        decision = analyzer.analyze(medium_model)
        assert decision.action in ("redeploy", "no_action")
        assert decision.portfolio.outcome("sleepy").status == TIMEOUT

    def test_decision_matches_sequential_analysis(self, medium_model):
        parallel = Analyzer(AvailabilityObjective(), seed=5, parallel=True)
        sequential = Analyzer(AvailabilityObjective(), seed=5, parallel=False)
        a = parallel.analyze(medium_model.copy())
        b = sequential.analyze(medium_model.copy())
        assert a.action == b.action
        if a.selected is not None:
            assert a.selected.value == pytest.approx(b.selected.value)
            assert a.selected.deployment == b.selected.deployment


class TestKernelRouting:
    def test_full_evaluations_served_by_kernel(self, tiny_model,
                                               availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        value = engine.evaluate(tiny_model, deployment)
        assert engine.stats.kernel_evaluations == 1
        # Kernel values are bit-identical to the object path.
        assert value == availability.evaluate(tiny_model, deployment)

    def test_deltas_served_by_kernel(self, tiny_model, availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        base = engine.evaluate(tiny_model, deployment)
        delta = engine.move_delta(tiny_model, deployment, "c1", "hB")
        assert engine.stats.kernel_deltas == 1
        assert engine.stats.delta_evaluations == 1
        moved = dict(deployment, c1="hB")
        assert base + delta == pytest.approx(
            availability.evaluate(tiny_model, moved), abs=1e-9)

    def test_builtin_subclass_takes_object_path(self, tiny_model,
                                                availability):
        class Opaque(AvailabilityObjective):
            """Exact-type dispatch gives a subclass no kernel."""

        engine = EvaluationEngine(Opaque())
        deployment = dict(tiny_model.deployment)
        value = engine.evaluate(tiny_model, deployment)
        delta = engine.move_delta(tiny_model, deployment, "c1", "hB")
        assert engine.stats.kernel_evaluations == 0
        assert engine.stats.kernel_deltas == 0
        assert value == availability.evaluate(tiny_model, deployment)
        kernel_engine = EvaluationEngine(availability)
        assert delta == pytest.approx(kernel_engine.move_delta(
            tiny_model, deployment, "c1", "hB"), abs=1e-9)

    def test_custom_objective_falls_back(self, tiny_model):
        class Custom(Objective):
            name = "custom"

            def evaluate(self, model, deployment):
                return float(len(deployment))

        engine = EvaluationEngine(Custom())
        engine.evaluate(tiny_model, dict(tiny_model.deployment))
        assert engine.stats.full_evaluations == 1
        assert engine.stats.kernel_evaluations == 0

    def test_unknown_host_falls_back_to_object_path(self, tiny_model,
                                                    availability):
        engine = EvaluationEngine(availability)
        deployment = {"c1": "hA", "c2": "hA", "c3": "ghost"}
        value = engine.evaluate(tiny_model, deployment)
        assert engine.stats.kernel_evaluations == 0
        assert value == availability.evaluate(tiny_model, deployment)

    def test_parameter_change_recompiles_kernel(self, tiny_model,
                                                availability):
        engine = EvaluationEngine(availability)
        deployment = dict(tiny_model.deployment)
        engine.evaluate(tiny_model, deployment)
        tiny_model.set_physical_link_param("hA", "hB", "reliability", 0.95)
        fresh = engine.evaluate(tiny_model, deployment)
        assert engine.stats.kernel_evaluations == 2
        assert fresh == availability.evaluate(tiny_model, deployment)

    def test_snapshot_reports_kernel_counters(self, tiny_model,
                                              availability):
        engine = EvaluationEngine(availability)
        engine.evaluate(tiny_model, dict(tiny_model.deployment))
        snapshot = engine.snapshot()
        assert snapshot["kernel_evaluations"] == 1
        assert snapshot["kernel_deltas"] == 0


class TestDeploymentHash:
    def test_hash_is_order_independent(self):
        from repro.core.model import Deployment

        items = [(f"c{i}", f"h{i % 7}") for i in range(50)]
        forward = Deployment(dict(items))
        backward = Deployment(dict(reversed(items)))
        assert forward == backward
        assert hash(forward) == hash(backward)

    def test_moved_derives_hash_incrementally(self):
        from repro.core.model import Deployment

        base = Deployment({f"c{i}": f"h{i % 5}" for i in range(30)})
        hash(base)  # prime the parent hash
        child = base.moved("c3", "h4")
        assert child._hash is not None  # derived, not recomputed
        assert hash(child) == hash(Deployment(dict(child)))
        # No-op move keeps the hash unchanged.
        same = base.moved("c3", base["c3"])
        assert hash(same) == hash(base)

    def test_hash_microbenchmark_beats_frozenset(self):
        """Guard for the incremental hash: on the search hot path (hashing
        a chain of moved() children) the O(1) derived hash must beat the
        old rehash-everything-via-frozenset scheme."""
        import time

        from repro.core.model import Deployment

        mapping = {f"component-{i}": f"host-{i % 40}" for i in range(400)}
        components = list(mapping)
        hosts = [f"host-{i}" for i in range(40)]

        def incremental():
            base = Deployment(mapping)
            hash(base)
            total = 0
            for index in range(300):
                child = base.moved(components[index % 400],
                                   hosts[index % 40])
                total ^= hash(child)
            return total

        def frozenset_rehash():
            base = Deployment(mapping)
            hash(base)
            total = 0
            for index in range(300):
                child = base.moved(components[index % 400],
                                   hosts[index % 40])
                total ^= hash(frozenset(child._map.items()))
            return total

        def best_of(repeats, func):
            best = float("inf")
            for __ in range(repeats):
                started = time.perf_counter()
                func()
                best = min(best, time.perf_counter() - started)
            return best

        incremental_time = best_of(5, incremental)
        frozenset_time = best_of(5, frozenset_rehash)
        # The derived hash is ~5x faster in practice; require merely
        # "not slower" with margin so CI noise cannot flake the guard.
        assert incremental_time < frozenset_time * 1.2, \
            f"incremental {incremental_time:.6f}s vs " \
            f"frozenset {frozenset_time:.6f}s"
