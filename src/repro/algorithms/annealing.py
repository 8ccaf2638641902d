"""Simulated annealing over deployments (framework-extension algorithm).

Section 4.3 names "genetic algorithm" alongside "greedy algorithm" as main
bodies the methodology should accommodate; simulated annealing is the other
classic stochastic main body, and exercising it validates that the
Objective/ConstraintSet plug points are genuinely search-strategy agnostic.
It relies on the evaluation engine's move deltas (compiled kernels for the
built-in objectives) for O(degree) neighbor evaluation.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.algorithms.base import DeploymentAlgorithm, random_valid_deployment
from repro.core.model import DeploymentModel


class SimulatedAnnealingAlgorithm(DeploymentAlgorithm):
    """Metropolis search over one-component relocations.

    Args:
        steps: Total proposed moves.
        initial_temperature: Starting temperature, in units of the
            objective (availability lives in [0,1], so the default 0.05
            accepts ~exp(-delta/T) of small regressions early on).
        cooling: Geometric cooling factor applied each step.
    """

    name = "annealing"

    def __init__(self, objective, constraints=None, seed=None,
                 steps: int = 5000, initial_temperature: float = 0.05,
                 cooling: float = 0.999):
        super().__init__(objective, constraints, seed)
        if not 0.0 < cooling <= 1.0:
            raise ValueError("cooling must be in (0, 1]")
        self.steps = steps
        self.initial_temperature = initial_temperature
        self.cooling = cooling

    def _search(self, model: DeploymentModel, initial: Dict[str, str],
                ) -> Tuple[Optional[Mapping[str, str]], Dict[str, Any]]:
        if (len(initial) == len(model.component_ids)
                and self.constraints.is_satisfied(model, initial)):
            current = dict(initial)
        else:
            current = random_valid_deployment(
                model, self.constraints, self.rng,
                checker=self._checker(model))
        if current is None:
            return None, {"accepted": 0}

        components = model.component_ids
        hosts = model.host_ids
        if len(hosts) < 2:
            return current, {"accepted": 0, "note": "single host"}

        # The search state answers allows() in O(1) and deltas without the
        # per-call re-encode; annealing never asks for best_move(), so the
        # frontier is never built and proposals stay O(1).
        state = self._search_state(model, current)
        current_value = self._evaluate(model, state.mapping)
        best = dict(state.mapping)
        best_value = current_value
        temperature = self.initial_temperature
        accepted = 0

        for __ in range(self.steps):
            component = self.rng.choice(components)
            host = self.rng.choice(hosts)
            ci = state.component_index(component)
            hi = state.host_index(host)
            if hi == state.array[ci]:
                continue
            if not state.allows(ci, hi):
                continue
            delta = state.delta(ci, hi)
            gain = delta if self.objective.direction == "max" else -delta
            accept = gain >= 0.0
            if not accept and temperature > 1e-12:
                accept = self.rng.random() < math.exp(gain / temperature)
            if accept:
                state.apply(ci, hi)
                current_value += delta
                accepted += 1
                if self.objective.is_better(current_value, best_value):
                    best_value = current_value
                    best = dict(state.mapping)
            temperature *= self.cooling

        # Guard against drift in the incrementally-maintained value.
        extra = {"accepted": accepted, "final_temperature": temperature,
                 "moves": list(state.moves)}
        if self.constraints.is_satisfied(model, best):
            return best, extra
        return state.mapping, extra
