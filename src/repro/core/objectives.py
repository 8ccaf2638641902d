"""Objective functions over deployment architectures.

Section 3.1 (Algorithm): "Each objective is formally specified and can
either be an optimization problem (e.g., maximize availability, minimize
latency) or constraint satisfaction problem".  This module provides the
optimization side: pluggable :class:`Objective` subclasses that score a
``(model, deployment)`` pair.

Two of them are the paper's worked examples (Section 5.1, with the formal
definitions taken from the companion report [12]):

* :class:`AvailabilityObjective` —
  ``A(D) = sum(freq(ci,cj) * rel(host(ci), host(cj))) / sum(freq(ci,cj))``
* :class:`LatencyObjective` —
  ``L(D) = sum(freq(ci,cj) * cost(ci,cj))`` with
  ``cost = delay + evt_size/bandwidth`` for remote pairs.

The rest demonstrate the framework's extensibility: remote-communication
volume (the I5 baseline's criterion), link security (the paper's recurring
"improve a distributed system's security" example), and a weighted
multi-objective combinator (the future-work direction of Section 6).

Each class here holds the reference ``evaluate``.  Greedy and
annealing-style algorithms score single-component moves through
:class:`repro.algorithms.engine.EvaluationEngine`, which serves the
built-ins from compiled kernels (:mod:`repro.algorithms.compiled`) in time
proportional to the moved component's degree rather than re-scoring the
whole system.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.model import DeploymentModel

MAXIMIZE = "max"
MINIMIZE = "min"

# Finite stand-in for "this pair cannot communicate at all"; keeping it
# finite lets weighted combinations and deltas stay arithmetic-safe.
UNREACHABLE_COST = 1.0e9


class Objective(ABC):
    """A scalar criterion over deployments, to be maximized or minimized.

    **Extension point.**  A subclass implements :meth:`evaluate`, which
    scores a full deployment, and may override :meth:`move_delta` with an
    incremental computation.  ``move_delta`` returns the raw change
    ``evaluate(moved) - evaluate(base)`` for a single-component move and
    MUST agree with two full evaluations to floating-point tolerance (the
    property tests enforce 1e-9).

    The evaluation engine serves a move from the objective's compiled
    kernel when it has one (the built-ins do, by exact type), else from a
    ``move_delta`` override, else from two memoized full evaluations.
    """

    #: Short identifier used in analyzer logs and bench output.
    name: str = "objective"
    #: Either :data:`MAXIMIZE` or :data:`MINIMIZE`.
    direction: str = MAXIMIZE
    #: True when ``move_delta(model, d, c, h)`` depends *only* on the hosts
    #: of ``c`` and its logical neighbors — i.e. moving some other,
    #: non-adjacent component leaves this move's delta unchanged.  Additive
    #: neighbor-sum objectives are local; bottleneck/extremum objectives
    #: (throughput's max, durability's min) are not, because any move can
    #: shift the global extremum.  ``repro.algorithms.search.SearchState``
    #: uses this to decide whether cached move scores survive a move.
    local_delta: bool = False

    @abstractmethod
    def evaluate(self, model: DeploymentModel,
                 deployment: Mapping[str, str]) -> float:
        """Score *deployment* against *model*."""

    # -- comparison helpers -------------------------------------------------
    def is_better(self, candidate: float, incumbent: float) -> bool:
        """True when *candidate* improves on *incumbent*."""
        if self.direction == MAXIMIZE:
            return candidate > incumbent
        return candidate < incumbent

    def worst_value(self) -> float:
        return float("-inf") if self.direction == MAXIMIZE else float("inf")

    def improvement(self, candidate: float, incumbent: float) -> float:
        """Signed improvement of candidate over incumbent (positive = better)."""
        if self.direction == MAXIMIZE:
            return candidate - incumbent
        return incumbent - candidate

    # -- incremental evaluation ----------------------------------------------
    def move_delta(self, model: DeploymentModel, deployment: Mapping[str, str],
                   component: str, new_host: str) -> float:
        """Change in objective value if *component* moved to *new_host*.

        The default recomputes from scratch (two full evaluations);
        subclasses may override it with an incremental computation.  The
        returned delta is raw (new - old), not direction-adjusted.
        """
        old_value = self.evaluate(model, deployment)
        moved = dict(deployment)
        moved[component] = new_host
        return self.evaluate(model, moved) - old_value

    def evaluate_move(self, model: DeploymentModel,
                      deployment: Mapping[str, str], component: str,
                      new_host: str, current_value: float) -> float:
        """Objective value after moving *component*, given the current value."""
        return current_value + self.move_delta(model, deployment, component,
                                               new_host)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(direction={self.direction})"


class AvailabilityObjective(Objective):
    """Ratio of successfully-delivered interactions (paper Section 5.1).

    A deployment maximizes availability when "the most critical, frequent,
    and voluminous interactions occur either locally or over reliable and
    capacious network links".  Interactions between collocated components
    always succeed (reliability 1.0); interactions between hosts with no
    (connected) physical link never do (reliability 0.0).

    When ``use_criticality`` is set, each interaction's frequency is scaled
    by the logical link's ``criticality`` parameter, realizing the
    "critical" part of the quote without changing the formula's shape.
    """

    name = "availability"
    direction = MAXIMIZE
    local_delta = True

    def __init__(self, use_criticality: bool = False):
        self.use_criticality = use_criticality

    def _weight(self, link) -> float:
        weight = link.frequency
        if self.use_criticality:
            weight *= link.params.get("criticality")
        return weight

    def evaluate(self, model: DeploymentModel,
                 deployment: Mapping[str, str]) -> float:
        total = 0.0
        delivered = 0.0
        for comp_a, comp_b, link in model.interaction_pairs():
            weight = self._weight(link)
            if weight <= 0.0:
                continue
            total += weight
            host_a = deployment.get(comp_a)
            host_b = deployment.get(comp_b)
            if host_a is None or host_b is None:
                continue  # undeployed components deliver nothing
            delivered += weight * model.reliability(host_a, host_b)
        if total == 0.0:
            return 1.0  # no interactions: trivially fully available
        return delivered / total


class LatencyObjective(Objective):
    """Total time spent communicating, to be minimized (paper Section 5.1).

    For a remote interaction the per-event cost is the link's transmission
    delay plus serialization time (``evt_size / bandwidth``); local
    interactions cost a small in-process dispatch time.  Pairs with no
    usable link are charged :data:`UNREACHABLE_COST` per event, which keeps
    the objective finite while making disconnection overwhelmingly bad.
    """

    name = "latency"
    direction = MINIMIZE
    local_delta = True

    def __init__(self, local_dispatch_cost: float = 1.0e-5):
        self.local_dispatch_cost = local_dispatch_cost

    def _pair_cost(self, model: DeploymentModel, host_a: str, host_b: str,
                   evt_size: float) -> float:
        if host_a == host_b:
            return self.local_dispatch_cost
        link = model.physical_link(host_a, host_b)
        if link is None or not link.params.get("connected"):
            return UNREACHABLE_COST
        bandwidth = link.bandwidth
        if bandwidth <= 0.0:
            return UNREACHABLE_COST
        serialization = evt_size / bandwidth if bandwidth != float("inf") else 0.0
        return link.delay + serialization

    def evaluate(self, model: DeploymentModel,
                 deployment: Mapping[str, str]) -> float:
        total = 0.0
        for comp_a, comp_b, link in model.interaction_pairs():
            if link.frequency <= 0.0:
                continue
            host_a = deployment.get(comp_a)
            host_b = deployment.get(comp_b)
            if host_a is None or host_b is None:
                total += link.frequency * UNREACHABLE_COST
                continue
            total += link.frequency * self._pair_cost(
                model, host_a, host_b, link.evt_size)
        return total


class CommunicationCostObjective(Objective):
    """Volume of data crossing the network, to be minimized.

    This is the criterion of the I5 baseline ([1] in the paper): "generating
    an optimal deployment ... such that the overall remote communication is
    minimized".  Local interactions are free; remote interactions cost
    ``frequency * evt_size`` regardless of which link carries them.
    """

    name = "communication_cost"
    direction = MINIMIZE
    local_delta = True

    def evaluate(self, model: DeploymentModel,
                 deployment: Mapping[str, str]) -> float:
        total = 0.0
        for comp_a, comp_b, link in model.interaction_pairs():
            host_a = deployment.get(comp_a)
            host_b = deployment.get(comp_b)
            if host_a is None or host_b is None or host_a != host_b:
                total += link.frequency * link.evt_size
        return total


class SecurityObjective(Objective):
    """Weighted security of the links carrying the system's interactions.

    The paper repeatedly uses security as the example of an alternative
    objective requiring alternative parameters ("if the objective is to
    improve a distributed system's security, other parameters, such as
    security of each network link, need to be modelled").  The formula
    mirrors availability with the physical link's ``security`` parameter in
    place of reliability; collocated interactions are perfectly secure.
    """

    name = "security"
    direction = MAXIMIZE
    local_delta = True

    def _pair_security(self, model: DeploymentModel, host_a: str,
                       host_b: str) -> float:
        if host_a == host_b:
            return 1.0
        physical = model.physical_link(host_a, host_b)
        if physical is None:
            return 0.0
        return physical.params.get("security")

    def evaluate(self, model: DeploymentModel,
                 deployment: Mapping[str, str]) -> float:
        total = 0.0
        secured = 0.0
        for comp_a, comp_b, link in model.interaction_pairs():
            weight = link.frequency
            if weight <= 0.0:
                continue
            total += weight
            host_a = deployment.get(comp_a)
            host_b = deployment.get(comp_b)
            if host_a is None or host_b is None:
                continue
            secured += weight * self._pair_security(model, host_a, host_b)
        if total == 0.0:
            return 1.0
        return secured / total


class ThroughputObjective(Objective):
    """Bottleneck link utilization, to be minimized (§6 future work).

    The system's sustainable throughput is gated by its most-loaded link:
    utilization of a physical link is the interaction volume routed over it
    divided by its bandwidth.  Host pairs that interact without any usable
    link count as saturated (utilization :data:`UNREACHABLE_UTILIZATION`).
    Minimizing the maximum utilization maximizes throughput headroom and
    balances traffic across the network.
    """

    name = "throughput"
    direction = MINIMIZE
    #: Utilization charged to interacting host pairs with no usable link.
    UNREACHABLE_UTILIZATION = 1.0e6

    def evaluate(self, model: DeploymentModel,
                 deployment: Mapping[str, str]) -> float:
        demand: Dict[Tuple[str, str], float] = {}
        for comp_a, comp_b, link in model.interaction_pairs():
            host_a = deployment.get(comp_a)
            host_b = deployment.get(comp_b)
            if host_a is None or host_b is None or host_a == host_b:
                continue
            key = (host_a, host_b) if host_a <= host_b else (host_b, host_a)
            demand[key] = demand.get(key, 0.0) + \
                link.frequency * link.evt_size
        worst = 0.0
        for (host_a, host_b), volume in demand.items():
            bandwidth = model.bandwidth(host_a, host_b)
            if bandwidth <= 0.0:
                worst = max(worst, self.UNREACHABLE_UTILIZATION)
            elif bandwidth != float("inf"):
                worst = max(worst, volume / bandwidth)
        return worst


class DurabilityObjective(Objective):
    """Projected system lifetime on battery power, to be maximized (§6).

    Each finite-battery host drains at ``idle_draw`` plus a CPU term
    proportional to the components it runs plus a radio term proportional
    to the remote traffic it originates/terminates.  The system's
    durability is the *minimum* projected lifetime across battery hosts —
    the mission ends when the first battery dies — so the objective pushes
    load off the weakest batteries.  Mains-powered hosts (infinite battery)
    are unconstrained, which is what steers components toward them.
    """

    name = "durability"
    direction = MAXIMIZE

    def __init__(self, idle_draw: float = 1.0, cpu_coefficient: float = 0.1,
                 radio_coefficient: float = 0.05,
                 max_lifetime: float = 1.0e6):
        self.idle_draw = idle_draw
        self.cpu_coefficient = cpu_coefficient
        self.radio_coefficient = radio_coefficient
        self.max_lifetime = max_lifetime

    def host_lifetime(self, model: DeploymentModel,
                      deployment: Mapping[str, str], host_id: str) -> float:
        battery = model.host(host_id).params.get("battery")
        if battery == float("inf"):
            return self.max_lifetime
        cpu_load = sum(
            model.component(c).cpu
            for c, h in deployment.items() if h == host_id)
        radio = 0.0
        for comp_a, comp_b, link in model.interaction_pairs():
            host_a = deployment.get(comp_a)
            host_b = deployment.get(comp_b)
            if host_a == host_b:
                continue
            if host_a == host_id or host_b == host_id:
                radio += link.frequency * link.evt_size
        draw = (self.idle_draw + self.cpu_coefficient * cpu_load
                + self.radio_coefficient * radio)
        if draw <= 0.0:
            return self.max_lifetime
        return min(battery / draw, self.max_lifetime)

    def evaluate(self, model: DeploymentModel,
                 deployment: Mapping[str, str]) -> float:
        lifetimes = [self.host_lifetime(model, deployment, host.id)
                     for host in model.hosts]
        finite = [l for l in lifetimes if l < self.max_lifetime]
        if not finite:
            return self.max_lifetime  # fully mains-powered system
        return min(finite)


class WeightedObjective(Objective):
    """Linear combination of objectives for multi-objective improvement.

    Each term is direction-normalized: maximize-objectives contribute
    ``+weight * value`` and minimize-objectives ``-weight * value``, so the
    combination is always maximized.  Optional per-term scales let callers
    bring differently-dimensioned objectives (availability in [0,1], latency
    in seconds) onto comparable footing.
    """

    name = "weighted"
    direction = MAXIMIZE

    def __init__(self, terms: Sequence[Tuple[Objective, float]],
                 scales: Optional[Sequence[float]] = None):
        if not terms:
            raise ValueError("WeightedObjective requires at least one term")
        self.terms: Tuple[Tuple[Objective, float], ...] = tuple(terms)
        if scales is None:
            scales = [1.0] * len(self.terms)
        if len(scales) != len(self.terms):
            raise ValueError("scales must match terms one-to-one")
        self.scales: Tuple[float, ...] = tuple(scales)
        self.name = "weighted(" + "+".join(o.name for o, __ in self.terms) + ")"
        # A weighted sum of move deltas is neighbor-local iff every term is.
        self.local_delta = all(o.local_delta for o, __ in self.terms)

    def evaluate(self, model: DeploymentModel,
                 deployment: Mapping[str, str]) -> float:
        score = 0.0
        for (objective, weight), scale in zip(self.terms, self.scales, strict=True):
            value = objective.evaluate(model, deployment) / scale
            if objective.direction == MAXIMIZE:
                score += weight * value
            else:
                score -= weight * value
        return score

    def breakdown(self, model: DeploymentModel,
                  deployment: Mapping[str, str]) -> Dict[str, float]:
        """Per-term raw values, useful for analyzer trade-off reporting."""
        return {objective.name: objective.evaluate(model, deployment)
                for objective, __ in self.terms}


def evaluate_all(objectives: Sequence[Objective], model: DeploymentModel,
                 deployment: Mapping[str, str]) -> Dict[str, float]:
    """Evaluate several objectives against one deployment."""
    return {o.name: o.evaluate(model, deployment) for o in objectives}
