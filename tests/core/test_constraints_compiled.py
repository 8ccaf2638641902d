"""Property-based equivalence: CompiledConstraintSet == object ConstraintSet.

The compiled checker (``repro.core.constraints_compiled``) must be an exact
drop-in for the object path — same ``allows`` booleans, same
``is_satisfied`` verdicts, same violation *strings* in the same order — or
the fast search path would silently change algorithm trajectories.  These
properties drive randomized models, constraint mixes, deployments, and
place/undo sequences through both implementations and assert equality.

All weights are dyadic rationals (multiples of 1/8) so incremental sums and
fresh re-sums are bit-identical; the equivalence contract is exact, not
approximate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.base import greedy_fill_deployment
from repro.algorithms.compiled import UNDEPLOYED, compiled_model
from repro.algorithms.engine import EvaluationStats
from repro.algorithms.search import ObjectConstraintChecker
from repro.core.constraints import (
    BandwidthConstraint, CollocationConstraint, ConstraintSet, CpuConstraint,
    LocationConstraint, MemoryConstraint,
)
from repro.core.constraints_compiled import compile_constraints
from repro.core.model import DeploymentModel

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Dyadic-rational weights: exact in binary floating point, so the
#: incremental accumulators and the object path's fresh sums agree exactly.
def _dyadic(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda n: n / 8.0)


@st.composite
def constrained_worlds(draw, max_hosts=4, max_components=7):
    """(model, constraint set, deployment) with tight random capacities."""
    n_hosts = draw(st.integers(2, max_hosts))
    n_components = draw(st.integers(1, max_components))
    model = DeploymentModel(name="ccs-hyp")
    hosts = [f"h{i}" for i in range(n_hosts)]
    components = [f"c{i}" for i in range(n_components)]
    for host in hosts:
        model.add_host(host, memory=draw(_dyadic(0, 200)),
                       cpu=draw(_dyadic(0, 100)))
    for component in components:
        model.add_component(component, memory=draw(_dyadic(0, 80)),
                            cpu=draw(_dyadic(0, 40)))
    for i in range(n_hosts):
        for j in range(i + 1, n_hosts):
            if draw(st.booleans()):
                model.connect_hosts(
                    hosts[i], hosts[j],
                    reliability=draw(_dyadic(0, 8)),
                    bandwidth=draw(_dyadic(1, 160)))
    for i in range(n_components):
        for j in range(i + 1, n_components):
            if draw(st.booleans()):
                model.connect_components(
                    components[i], components[j],
                    frequency=draw(_dyadic(0, 40)),
                    evt_size=draw(_dyadic(0, 16)))

    members = st.sampled_from(components)
    constraints = ConstraintSet()
    if draw(st.booleans()):
        constraints.add(MemoryConstraint())
    if draw(st.booleans()):
        constraints.add(CpuConstraint())
    if draw(st.booleans()):
        constraints.add(BandwidthConstraint())
    for __ in range(draw(st.integers(0, 2))):
        component = draw(members)
        subset = draw(st.sets(st.sampled_from(hosts), min_size=1,
                              max_size=n_hosts))
        if draw(st.booleans()):
            constraints.add(LocationConstraint(component,
                                               allowed=sorted(subset)))
        else:
            constraints.add(LocationConstraint(component,
                                               forbidden=sorted(subset)))
    if n_components >= 2:
        for __ in range(draw(st.integers(0, 2))):
            group = draw(st.lists(members, min_size=2,
                                  max_size=min(3, n_components),
                                  unique=True))
            constraints.add(CollocationConstraint(
                group, together=draw(st.booleans())))

    # Partial deployments exercise the UNDEPLOYED handling.
    deployment = {c: draw(st.sampled_from(hosts)) for c in components
                  if draw(st.integers(0, 9)) < 8}
    return model, constraints, deployment


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def _snapshot(compiled):
    """Every piece of incremental state (dict order ignored)."""
    return (
        list(compiled.assignment),
        list(compiled.mem_load), list(compiled.cpu_load),
        dict(compiled.tally),
        [(dict(s["counts"]), s["placed"], s["distinct"])
         for s in compiled.together],
        [(dict(s["counts"]), s["collisions"]) for s in compiled.apart],
        [(dict(s["demand"]), dict(s["count"]), s["over"])
         for s in compiled.bandwidth],
    )


@settings(max_examples=120, deadline=None)
@given(constrained_worlds())
def test_satisfaction_and_violations_match_object_path(world):
    model, constraints, deployment = world
    cm = compiled_model(model)
    compiled = compile_constraints(constraints, cm)
    assert compiled is not None, "all built-in constraints must compile"
    compiled.bind(deployment)
    assert compiled.satisfied() == constraints.is_satisfied(model, deployment)
    assert compiled.violations() == constraints.violations(model, deployment)
    assert compiled.violation_count() == len(
        constraints.violations(model, deployment))


@settings(max_examples=120, deadline=None)
@given(constrained_worlds())
def test_allows_matches_object_path_on_every_pair(world):
    model, constraints, deployment = world
    cm = compiled_model(model)
    compiled = compile_constraints(constraints, cm)
    compiled.bind(deployment)
    for ci, component in enumerate(cm.component_ids):
        for hi, host in enumerate(cm.host_ids):
            assert compiled.allows(ci, hi) == constraints.allows(
                model, deployment, component, host), (component, host)


@settings(max_examples=100, deadline=None)
@given(constrained_worlds(), st.data())
def test_place_undo_roundtrip_restores_exact_state(world, data):
    """Random place/unplace walks, then unwinding every token in reverse,
    must restore bit-identical incremental state."""
    model, constraints, deployment = world
    cm = compiled_model(model)
    compiled = compile_constraints(constraints, cm)
    compiled.bind(deployment)

    pristine = _snapshot(compiled)
    tokens = []
    steps = data.draw(st.integers(1, 12))
    for __ in range(steps):
        ci = data.draw(st.integers(0, cm.n_components - 1))
        hi = data.draw(st.integers(-1, cm.n_hosts - 1))
        tokens.append(compiled.place(
            ci, UNDEPLOYED if hi < 0 else hi))
        # Mid-walk, the incremental state must match a fresh bind of the
        # same assignment (and therefore the object path).
        mapping = {cm.component_ids[i]: cm.host_ids[h]
                   for i, h in enumerate(compiled.assignment)
                   if h != UNDEPLOYED}
        assert compiled.satisfied() == constraints.is_satisfied(
            model, mapping)
    for token in reversed(tokens):
        compiled.undo(token)
    assert _snapshot(compiled) == pristine


@settings(max_examples=60, deadline=None)
@given(constrained_worlds(), st.data())
def test_allows_after_moves_matches_object_path(world, data):
    """After an arbitrary applied move sequence, allows() still agrees."""
    model, constraints, deployment = world
    cm = compiled_model(model)
    compiled = compile_constraints(constraints, cm)
    compiled.bind(deployment)
    for __ in range(data.draw(st.integers(1, 6))):
        ci = data.draw(st.integers(0, cm.n_components - 1))
        hi = data.draw(st.integers(0, cm.n_hosts - 1))
        compiled.place(ci, hi)
    mapping = {cm.component_ids[i]: cm.host_ids[h]
               for i, h in enumerate(compiled.assignment) if h != UNDEPLOYED}
    for ci, component in enumerate(cm.component_ids):
        for hi, host in enumerate(cm.host_ids):
            assert compiled.allows(ci, hi) == constraints.allows(
                model, mapping, component, host), (component, host)
    assert compiled.violations() == constraints.violations(model, mapping)


@settings(max_examples=150, deadline=None)
@given(constrained_worlds(), st.data())
def test_fill_matches_object_greedy_fill(world, data):
    """The bulk compiled fill is the object path's host-by-host greedy fill:
    same placements in the same order, same probe count, and a state that
    answers like a fresh bind of the result."""
    model, constraints, deployment = world
    cm = compiled_model(model)
    host_order = data.draw(st.permutations(range(cm.n_hosts)))
    comp_order = data.draw(st.permutations(range(cm.n_components)))
    compiled = compile_constraints(constraints, cm)
    compiled.bind(deployment)  # fill must start from empty regardless
    placements, probes = compiled.fill(host_order, comp_order)

    stats = EvaluationStats()
    checker = ObjectConstraintChecker(model, constraints, stats, cm)
    expected = greedy_fill_deployment(
        model, constraints, [cm.host_ids[hi] for hi in host_order],
        [cm.component_ids[ci] for ci in comp_order], checker=checker)
    filled = {cm.component_ids[ci]: cm.host_ids[hi] for ci, hi in placements}
    if expected is None:
        assert len(placements) < cm.n_components
        expected = checker.partial
    assert list(filled.items()) == list(expected.items())
    assert probes == stats.constraint_checks

    fresh = compile_constraints(constraints, cm)
    fresh.bind(filled)
    assert _snapshot(compiled) == _snapshot(fresh)
    assert compiled.satisfied() == fresh.satisfied() \
        == constraints.is_satisfied(model, filled)
    assert compiled.violation_count() == fresh.violation_count()
    for ci in range(cm.n_components):
        for hi in range(cm.n_hosts):
            assert compiled.allows(ci, hi) == fresh.allows(ci, hi)


# ---------------------------------------------------------------------------
# Compiler bail-outs
# ---------------------------------------------------------------------------

class _CustomConstraint(MemoryConstraint):
    """A subclass the compiler must refuse (unknown semantics)."""


def test_unknown_constraint_types_fall_back_to_object_path():
    model = DeploymentModel(name="bail")
    model.add_host("h0", memory=10.0)
    model.add_component("c0", memory=1.0)
    cm = compiled_model(model)
    assert compile_constraints(
        ConstraintSet([_CustomConstraint()]), cm) is None
    # Degenerate duplicate-member collocation groups bail out too.
    assert compile_constraints(
        ConstraintSet([CollocationConstraint(["c0", "c0"], together=True)]),
        cm) is None


def test_nested_constraint_sets_are_flattened():
    model = DeploymentModel(name="nest")
    model.add_host("h0", memory=10.0)
    model.add_host("h1", memory=10.0)
    model.add_component("c0", memory=6.0)
    model.add_component("c1", memory=6.0)
    cm = compiled_model(model)
    nested = ConstraintSet([ConstraintSet([MemoryConstraint()])])
    compiled = compile_constraints(nested, cm)
    assert compiled is not None
    compiled.bind({"c0": "h0", "c1": "h0"})
    assert not compiled.satisfied()
    assert compiled.allows(1, 1)
    assert not compiled.allows(1, 0)  # h0 cannot fit both components


def test_unknown_host_binding_raises():
    model = DeploymentModel(name="unknown-host")
    model.add_host("h0", memory=10.0)
    model.add_component("c0", memory=1.0)
    compiled = compile_constraints(ConstraintSet([MemoryConstraint()]),
                                   compiled_model(model))
    with pytest.raises(ValueError):
        compiled.bind({"c0": "nope"})
