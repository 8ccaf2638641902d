"""Unit tests for the incremental search frontier (repro.algorithms.search).

The load-bearing invariant: after any sequence of applied moves,
``SearchState.best_move()`` returns exactly what a brute-force scan over all
(component, host) pairs would pick under the canonical selection rule
(max direction-adjusted gain > 1e-12, earliest component then host wins
ties) — while re-scoring only the invalidated slice.
"""

from __future__ import annotations

import pytest

from repro.algorithms import SearchState, make_checker
from repro.algorithms.engine import EvaluationEngine
from repro.core.constraints import (
    BandwidthConstraint, CollocationConstraint, ConstraintSet,
    LocationConstraint, MemoryConstraint,
)
from repro.core.objectives import (
    AvailabilityObjective, CommunicationCostObjective, ThroughputObjective,
)
from repro.desi import Generator, GeneratorConfig


def _model(seed=5, hosts=5, components=12):
    config = GeneratorConfig(hosts=hosts, components=components,
                             host_memory=(15.0, 30.0),
                             memory_headroom=1.3,
                             reliability=(0.3, 0.95))
    return Generator(config, seed=seed).generate()


class _Opaque(MemoryConstraint):
    """Exact-type dispatch leaves a subclass uncompiled, so a set holding
    one runs on ``ObjectConstraintChecker`` (and rescans every row)."""


def _rich_constraints(model, compilable=True):
    comps = model.component_ids
    return ConstraintSet([
        MemoryConstraint() if compilable else _Opaque(),
        BandwidthConstraint(),
        LocationConstraint(comps[0], forbidden=[model.host_ids[0]]),
        CollocationConstraint([comps[1], comps[2]], together=True),
        CollocationConstraint([comps[3], comps[4]], together=False),
    ])


def _brute_force_best(state):
    """Reference implementation of the canonical selection rule."""
    best = None
    for ci in range(state.cm.n_components):
        for hi in range(state.cm.n_hosts):
            if hi == state.array[ci]:
                continue
            if not state.checker.allows_index(ci, hi):
                continue
            delta = state.delta(ci, hi)
            gain = delta if state.objective.direction == "max" else -delta
            if gain > 1e-12 and (best is None or gain > best[0]):
                best = (gain, ci, hi)
    return None if best is None else (best[1], best[2])


@pytest.mark.parametrize("objective_cls", [
    AvailabilityObjective,        # neighbor-local deltas
    CommunicationCostObjective,   # neighbor-local, minimize
    ThroughputObjective,          # bottleneck: full invalidation per move
])
@pytest.mark.parametrize("compilable", [True, False])
def test_best_move_matches_brute_force_along_trajectory(objective_cls,
                                                        compilable):
    model = _model()
    constraints = _rich_constraints(model, compilable)
    objective = objective_cls()
    engine = EvaluationEngine(objective, constraints)
    state = SearchState(model, constraints, engine, objective,
                        model.deployment)
    assert state.checker.compiled == compilable
    reference = SearchState(model, constraints,
                            EvaluationEngine(objective, constraints),
                            objective, model.deployment)
    for step in range(12):
        move = state.best_move()
        expected = _brute_force_best(reference)
        assert (None if move is None else (move[0], move[1])) == expected, \
            f"diverged at step {step}"
        if move is None:
            break
        state.apply(move[0], move[1])
        reference.apply(move[0], move[1])
        assert state.mapping == reference.mapping


def test_compiled_and_object_frontiers_take_identical_paths():
    model = _model(seed=11)
    objective = AvailabilityObjective()
    states = []
    for compilable in (True, False):
        constraints = _rich_constraints(model, compilable)
        states.append(SearchState(
            model, constraints, EvaluationEngine(objective, constraints),
            objective, model.deployment))
    assert [s.checker.compiled for s in states] == [True, False]
    while True:
        moves = [s.best_move() for s in states]
        assert moves[0] == moves[1]
        if moves[0] is None:
            break
        for s in states:
            s.apply(moves[0][0], moves[0][1])
    assert states[0].mapping == states[1].mapping
    assert states[0].moves == states[1].moves


def test_frontier_reuses_cached_deltas():
    model = _model(seed=7)
    constraints = ConstraintSet([MemoryConstraint()])
    objective = AvailabilityObjective()
    engine = EvaluationEngine(objective, constraints)
    state = SearchState(model, constraints, engine, objective,
                        model.deployment)
    first = state.best_move()
    assert first is not None
    scored_initially = engine.stats.moves_rescored
    assert scored_initially > 0
    state.apply(first[0], first[1])
    state.best_move()
    rescored = engine.stats.moves_rescored - scored_initially
    # Only rows touching the moved component / changed hosts re-score;
    # with 12 components x 5 hosts that must be well under a full rescan.
    assert rescored < scored_initially
    assert engine.stats.frontier_hits > 0
    assert engine.stats.constraint_checks > 0


def test_apply_keeps_checker_mapping_and_array_in_sync():
    model = _model(seed=9)
    constraints = _rich_constraints(model)
    objective = AvailabilityObjective()
    state = SearchState(model, constraints, None, objective,
                        model.deployment)
    for __ in range(6):
        move = state.best_move()
        if move is None:
            break
        state.apply(move[0], move[1])
        assert state.satisfied() == constraints.is_satisfied(
            model, state.mapping)
        for cid, hid in state.mapping.items():
            assert state.array[state.component_index(cid)] == \
                state.host_index(hid)
    assert len(state.moves) > 0


def test_swap_allowed_permits_exact_fit_exchange():
    """Replicates the memory-locked scenario: no single move fits, but the
    pairwise exchange must be judged feasible with each component
    hypothetically removed from its side."""
    from repro.core.model import DeploymentModel
    model = DeploymentModel(name="locked")
    model.add_host("h0", memory=20.0)
    model.add_host("h1", memory=20.0)
    model.connect_hosts("h0", "h1", reliability=0.5, bandwidth=100.0)
    for component in ("x", "y", "u", "v"):
        model.add_component(component, memory=10.0)
    model.deploy("x", "h0")
    model.deploy("v", "h0")
    model.deploy("y", "h1")
    model.deploy("u", "h1")
    for memory in (MemoryConstraint(), _Opaque()):
        constraints = ConstraintSet([memory])
        state = SearchState(model, constraints, None,
                            AvailabilityObjective(), model.deployment)
        ya, vb = state.component_index("y"), state.component_index("v")
        assert state.best_move() is None  # both hosts full: no single move
        assert state.swap_allowed(ya, vb)
        state.apply_swap(ya, vb)
        assert state.mapping["y"] == "h0"
        assert state.mapping["v"] == "h1"
        assert state.satisfied()


def test_make_checker_falls_back_for_unknown_constraint_types():
    model = _model(seed=3, hosts=3, components=5)
    compiled = make_checker(model, ConstraintSet([MemoryConstraint()]))
    fallback = make_checker(model, ConstraintSet([_Opaque()]))
    assert compiled.compiled
    assert not fallback.compiled
    # Both count their probes.
    compiled.reset({})
    fallback.reset({})
    compiled.allows(model.component_ids[0], model.host_ids[0])
    fallback.allows(model.component_ids[0], model.host_ids[0])
    assert compiled.stats.constraint_checks == 1
    assert fallback.stats.constraint_checks == 1


def test_uncompilable_constraints_still_search_correctly():
    """With an unknown constraint type the frontier must stay conservative
    (every row's legality re-derived per move) yet still match brute
    force."""
    model = _model(seed=13, hosts=4, components=8)
    constraints = ConstraintSet([_Opaque()])
    objective = AvailabilityObjective()
    engine = EvaluationEngine(objective, constraints)
    state = SearchState(model, constraints, engine, objective,
                        model.deployment)
    reference = SearchState(model, constraints,
                            EvaluationEngine(objective, constraints),
                            objective, model.deployment)
    assert not state.checker.compiled
    for __ in range(8):
        move = state.best_move()
        expected = _brute_force_best(reference)
        assert (None if move is None else (move[0], move[1])) == expected
        if move is None:
            break
        state.apply(move[0], move[1])
        reference.apply(move[0], move[1])
