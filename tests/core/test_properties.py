"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.algorithms.engine import EvaluationEngine
from repro.core import AvailabilityObjective, DeploymentModel
from repro.core.model import Deployment
from repro.core.monitoring import StabilityDetector
from repro.core.objectives import (
    CommunicationCostObjective, LatencyObjective,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def random_models(draw, max_hosts=5, max_components=8):
    """A random deployment model with full physical connectivity and a
    random complete deployment."""
    n_hosts = draw(st.integers(1, max_hosts))
    n_components = draw(st.integers(1, max_components))
    model = DeploymentModel(name="hyp")
    hosts = [f"h{i}" for i in range(n_hosts)]
    components = [f"c{i}" for i in range(n_components)]
    for host in hosts:
        model.add_host(host, memory=draw(st.floats(10.0, 500.0)))
    for component in components:
        model.add_component(component, memory=draw(st.floats(0.0, 10.0)))
    for i in range(n_hosts):
        for j in range(i + 1, n_hosts):
            if draw(st.booleans()):
                model.connect_hosts(
                    hosts[i], hosts[j],
                    reliability=draw(st.floats(0.0, 1.0)),
                    bandwidth=draw(st.floats(1.0, 1000.0)),
                    delay=draw(st.floats(0.0, 0.5)))
    for i in range(n_components):
        for j in range(i + 1, n_components):
            if draw(st.booleans()):
                model.connect_components(
                    components[i], components[j],
                    frequency=draw(st.floats(0.0, 20.0)),
                    evt_size=draw(st.floats(0.0, 10.0)))
    for component in components:
        model.deploy(component, draw(st.sampled_from(hosts)))
    return model


deployment_maps = st.dictionaries(
    st.sampled_from([f"c{i}" for i in range(6)]),
    st.sampled_from([f"h{i}" for i in range(4)]),
    min_size=1, max_size=6)


# ---------------------------------------------------------------------------
# Deployment value semantics
# ---------------------------------------------------------------------------

@given(deployment_maps)
def test_deployment_equals_its_dict(mapping):
    deployment = Deployment(mapping)
    assert dict(deployment) == mapping
    assert deployment == Deployment(mapping)
    assert hash(deployment) == hash(Deployment(dict(mapping)))


@given(deployment_maps, st.sampled_from([f"h{i}" for i in range(4)]))
def test_moved_changes_exactly_one_entry(mapping, new_host):
    deployment = Deployment(mapping)
    component = sorted(mapping)[0]
    moved = deployment.moved(component, new_host)
    assert moved[component] == new_host
    for other in mapping:
        if other != component:
            assert moved[other] == mapping[other]


@given(deployment_maps, deployment_maps)
def test_diff_applied_reaches_target(before_map, after_map):
    """Applying diff moves to `before` matches `after` on shared keys."""
    before = Deployment(before_map)
    after = Deployment(after_map)
    patched = dict(before_map)
    for move in before.diff(after):
        assert patched[move.component] == move.source
        patched[move.component] = move.target
    for component in set(before_map) & set(after_map):
        assert patched[component] == after_map[component]


@given(deployment_maps)
def test_diff_with_self_is_empty(mapping):
    deployment = Deployment(mapping)
    assert deployment.diff(deployment) == ()


# ---------------------------------------------------------------------------
# Objective invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(random_models())
def test_availability_bounded(model):
    value = AvailabilityObjective().evaluate(model, model.deployment)
    assert 0.0 <= value <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(random_models())
def test_full_collocation_dominates(model):
    """Putting everything on one host yields availability 1 and zero
    communication cost — the global upper/lower bounds."""
    host = model.host_ids[0]
    together = {c: host for c in model.component_ids}
    assert AvailabilityObjective().evaluate(model, together) == 1.0
    assert CommunicationCostObjective().evaluate(model, together) == 0.0


@settings(max_examples=30, deadline=None)
@given(random_models(), st.integers(0, 100), st.integers(0, 100))
def test_move_delta_consistency(model, comp_pick, host_pick):
    """For every objective, the engine's move delta == full recompute
    difference."""
    components = model.component_ids
    hosts = model.host_ids
    component = components[comp_pick % len(components)]
    host = hosts[host_pick % len(hosts)]
    deployment = dict(model.deployment)
    for objective in (AvailabilityObjective(), LatencyObjective(),
                      CommunicationCostObjective()):
        base = objective.evaluate(model, deployment)
        delta = EvaluationEngine(objective).move_delta(
            model, deployment, component, host)
        moved = dict(deployment)
        moved[component] = host
        expected = objective.evaluate(model, moved) - base
        # Subtracting two full evaluations cancels catastrophically when
        # UNREACHABLE_COST-scale terms are present, so the comparison
        # tolerance must scale with the magnitudes being subtracted.
        tolerance = max(1e-7, abs(base) * 1e-12)
        assert math.isclose(delta, expected, rel_tol=1e-9, abs_tol=tolerance)


@settings(max_examples=30, deadline=None)
@given(random_models())
def test_model_copy_objective_invariant(model):
    """Copies score identically — nothing observable is lost."""
    clone = model.copy()
    objective = AvailabilityObjective()
    assert objective.evaluate(clone, clone.deployment) == \
        objective.evaluate(model, model.deployment)


@settings(max_examples=30, deadline=None)
@given(random_models())
def test_restricted_view_is_submodel(model):
    keep = model.host_ids[: max(1, len(model.host_ids) // 2)]
    view = model.restricted_to(keep)
    assert set(view.host_ids) == set(keep)
    full_deployment = model.deployment
    for component in view.component_ids:
        assert view.deployment[component] == full_deployment[component]
        assert full_deployment[component] in keep


# ---------------------------------------------------------------------------
# Stability detector
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=20),
       st.floats(0.01, 0.5))
def test_stability_matches_definition(values, epsilon):
    window = 3
    detector = StabilityDetector(epsilon=epsilon, window=window)
    for value in values:
        detector.update(value)
    recent = values[-window:]
    expected = len(values) >= window and \
        (max(recent) - min(recent)) < epsilon
    assert detector.is_stable == expected


@given(st.floats(0.0, 1.0), st.integers(2, 6))
def test_constant_series_always_stabilizes(value, window):
    detector = StabilityDetector(epsilon=1e-9, window=window)
    for __ in range(window):
        detector.update(value)
    assert detector.is_stable
    # The window mean of identical values may differ by one ulp.
    assert math.isclose(detector.stable_value(), value, rel_tol=1e-12,
                        abs_tol=1e-15)
