"""Tests for the Stochastic and Avala approximative algorithms (§5.1)."""

import pytest

from repro.algorithms import (
    AvalaAlgorithm, ExactAlgorithm, StochasticAlgorithm,
)
from repro.core import (
    AvailabilityObjective, ConstraintSet, DeploymentModel, MemoryConstraint,
)
from repro.core.constraints import (
    BandwidthConstraint, CollocationConstraint, LocationConstraint,
)
from repro.desi import Generator, GeneratorConfig
from repro.scenarios import (
    CrisisConfig, build_crisis_scenario, build_sensor_field,
)


class TestStochastic:
    def test_produces_valid_deployment(self, medium_model, availability,
                                       memory_constraints):
        result = StochasticAlgorithm(availability, memory_constraints,
                                     seed=1, iterations=30).run(medium_model)
        assert result.valid
        assert set(result.deployment) == set(medium_model.component_ids)

    def test_deterministic_with_seed(self, small_model, availability,
                                     memory_constraints):
        first = StochasticAlgorithm(availability, memory_constraints,
                                    seed=9, iterations=20).run(small_model)
        second = StochasticAlgorithm(availability, memory_constraints,
                                     seed=9, iterations=20).run(small_model)
        assert first.deployment == second.deployment
        assert first.value == second.value

    def test_more_iterations_never_hurt(self, small_model, availability,
                                        memory_constraints):
        few = StochasticAlgorithm(availability, memory_constraints,
                                  seed=3, iterations=5).run(small_model)
        many = StochasticAlgorithm(availability, memory_constraints,
                                   seed=3, iterations=200).run(small_model)
        assert many.value >= few.value - 1e-12

    def test_iterations_validation(self, availability):
        with pytest.raises(ValueError):
            StochasticAlgorithm(availability, iterations=0)

    def test_respects_location_constraints(self, small_model, availability):
        pinned_host = small_model.host_ids[0]
        component = small_model.component_ids[0]
        constraints = ConstraintSet([
            MemoryConstraint(),
            LocationConstraint(component, allowed=[pinned_host]),
        ])
        result = StochasticAlgorithm(availability, constraints, seed=2,
                                     iterations=20).run(small_model)
        assert result.deployment[component] == pinned_host

    def test_evaluation_count_equals_feasible_iterations(
            self, small_model, availability, memory_constraints):
        algorithm = StochasticAlgorithm(availability, memory_constraints,
                                        seed=4, iterations=25)
        result = algorithm.run(small_model)
        assert result.evaluations == result.extra["feasible_iterations"]
        assert result.evaluations <= 25


class TestAvala:
    def test_produces_valid_deployment(self, medium_model, availability,
                                       memory_constraints):
        result = AvalaAlgorithm(availability, memory_constraints,
                                seed=1).run(medium_model)
        assert result.valid
        assert set(result.deployment) == set(medium_model.component_ids)

    def test_collocates_chatty_cluster(self, availability):
        """Avala must put a tightly-coupled trio on one host."""
        model = DeploymentModel()
        model.add_host("good", memory=100.0)
        model.add_host("bad", memory=100.0)
        model.connect_hosts("good", "bad", reliability=0.1, bandwidth=10.0)
        for component in ("a", "b", "c"):
            model.add_component(component, memory=10.0)
        model.connect_components("a", "b", frequency=10.0)
        model.connect_components("b", "c", frequency=10.0)
        model.connect_components("a", "c", frequency=10.0)
        model.deploy("a", "good")
        model.deploy("b", "bad")
        model.deploy("c", "good")
        result = AvalaAlgorithm(availability,
                                ConstraintSet([MemoryConstraint()]),
                                seed=0).run(model)
        assert len(set(result.deployment.values())) == 1
        assert result.value == pytest.approx(1.0)

    def test_near_optimal_on_small_systems(self, availability,
                                           memory_constraints):
        """Avala should land within 10% of the Exact optimum on average
        (the companion report's headline result)."""
        generator = Generator(GeneratorConfig(hosts=3, components=7),
                              seed=77)
        gaps = []
        for model in generator.generate_many(5):
            exact = ExactAlgorithm(availability,
                                   memory_constraints).run(model)
            avala = AvalaAlgorithm(availability, memory_constraints,
                                   seed=1).run(model)
            assert avala.valid
            gaps.append(exact.value - avala.value)
        assert sum(gaps) / len(gaps) < 0.10

    def test_beats_or_matches_initial_random_deployment(
            self, medium_model, availability, memory_constraints):
        initial_value = availability.evaluate(medium_model,
                                              medium_model.deployment)
        result = AvalaAlgorithm(availability, memory_constraints,
                                seed=1).run(medium_model)
        assert result.value >= initial_value - 1e-12

    def test_respects_collocation_constraints(self, small_model,
                                              availability):
        c0, c1 = small_model.component_ids[:2]
        constraints = ConstraintSet([
            MemoryConstraint(),
            CollocationConstraint([c0, c1], together=False),
        ])
        result = AvalaAlgorithm(availability, constraints,
                                seed=1).run(small_model)
        assert result.deployment[c0] != result.deployment[c1]

    def test_host_ordering_prefers_capacity_and_links(self, availability):
        model = DeploymentModel()
        model.add_host("hub", memory=200.0)
        model.add_host("leaf1", memory=50.0)
        model.add_host("leaf2", memory=50.0)
        model.connect_hosts("hub", "leaf1", reliability=0.9, bandwidth=100.0)
        model.connect_hosts("hub", "leaf2", reliability=0.9, bandwidth=100.0)
        model.connect_hosts("leaf1", "leaf2", reliability=0.2, bandwidth=10.0)
        model.add_component("x", memory=1.0)
        model.deploy("x", "leaf1")
        algorithm = AvalaAlgorithm(availability, ConstraintSet())
        assert algorithm._host_rank(model)[0] == "hub"

    def test_overconstrained_returns_error(self, availability):
        model = DeploymentModel()
        model.add_host("h1", memory=5.0)
        model.add_component("c1", memory=10.0)  # cannot fit anywhere
        model.deploy("c1", "h1")
        from repro.core.errors import NoValidDeploymentError
        with pytest.raises(NoValidDeploymentError):
            AvalaAlgorithm(availability,
                           ConstraintSet([MemoryConstraint()])).run(model)


class TestOrderingOfSuite:
    def test_paper_quality_ordering(self, availability, memory_constraints):
        """E1's shape: Exact >= Avala >= Stochastic(few) on average."""
        generator = Generator(GeneratorConfig(hosts=3, components=7),
                              seed=101)
        exact_sum = avala_sum = stochastic_sum = 0.0
        models = generator.generate_many(5)
        for model in models:
            exact_sum += ExactAlgorithm(
                availability, memory_constraints).run(model).value
            avala_sum += AvalaAlgorithm(
                availability, memory_constraints, seed=1).run(model).value
            stochastic_sum += StochasticAlgorithm(
                availability, memory_constraints, seed=1,
                iterations=10).run(model).value
        assert exact_sum >= avala_sum - 1e-9
        assert exact_sum >= stochastic_sum - 1e-9


def _crisis():
    scenario = build_crisis_scenario(CrisisConfig(
        commanders=3, troops_per_commander=4, seed=0))
    return scenario.model, scenario.constraints


def _crisis_rich():
    model, __ = _crisis()
    comps, hosts = model.component_ids, model.host_ids
    return model, ConstraintSet([
        MemoryConstraint(), BandwidthConstraint(),
        LocationConstraint(comps[1], forbidden=[hosts[0]]),
        CollocationConstraint([comps[2], comps[3]], together=True),
        CollocationConstraint([comps[4], comps[5]], together=False),
    ])


def _sensorfield():
    scenario = build_sensor_field(rows=4, cols=4, aggregators=4, seed=0)
    return scenario.model, scenario.constraints


class _OpaqueMemory(MemoryConstraint):
    """Exact-type dispatch leaves a subclass uncompiled, so a set holding
    one runs on ``ObjectConstraintChecker``."""


def _opaque(constraints):
    """*constraints* with its memory constraint made uncompilable."""
    members = [_OpaqueMemory() if type(c) is MemoryConstraint else c
               for c in constraints]
    assert any(type(c) is _OpaqueMemory for c in members)
    return ConstraintSet(members)


class TestCompiledLaneMatchesObjectPath:
    """The compiled constraint lane (bulk greedy fill, encoded scoring) must
    reproduce the object path exactly, down to the engine counters: bulk
    probe counting equals per-probe counting."""

    @pytest.mark.parametrize("world", [_crisis, _crisis_rich, _sensorfield],
                             ids=["crisis", "crisis-rich", "sensorfield"])
    @pytest.mark.parametrize("make", [
        lambda o, c: StochasticAlgorithm(o, c, seed=5, iterations=60),
        lambda o, c: AvalaAlgorithm(o, c, seed=5),
    ], ids=["stochastic", "avala"])
    def test_results_and_counters_identical(self, world, make):
        model, constraints = world()
        fast, slow = (make(AvailabilityObjective(), member_set).run(model)
                      for member_set in (constraints, _opaque(constraints)))
        assert fast.deployment.as_dict() == slow.deployment.as_dict()
        assert list(fast.deployment) == list(slow.deployment)
        assert fast.value == slow.value
        assert fast.evaluations == slow.evaluations
        for counter in ("constraint_checks", "full_evaluations",
                        "cache_hits"):
            assert (fast.extra["engine"][counter]
                    == slow.extra["engine"][counter]), counter
        assert fast.extra["engine"]["constraint_checks"] > 0
