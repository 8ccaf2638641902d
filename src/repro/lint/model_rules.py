"""Pillar 1 — the model verifier: static rules over deployment models.

The analyzer/effector pipeline assumes its inputs are well-formed: every
component mapped to exactly one live host, capacities respected, parameters
in range, interacting components mutually reachable, and the hard
constraint set satisfiable.  Nothing in the paper's loop checks any of that
before algorithms search a model or the effector migrates live components —
these rules do, following the static-verification discipline of
constraint-based deployment middleware (arXiv:1006.4733).

Rules are tagged:

* ``deployment`` — judge a (model, deployment) pair; this subset is the
  effector/batch pre-flight gate (:func:`verify_deployment`);
* ``topology`` / ``parameters`` — judge the model itself
  regardless of any particular deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, Mapping, Optional, Set, Tuple, Type,
)

from repro.core.constraints import (
    CollocationConstraint, ConstraintSet, LocationConstraint,
)
from repro.core.model import DeploymentModel
from repro.lint.core import (
    Finding, LintReport, Rule, RuleRegistry, Severity,
)

DEPLOYMENT = "deployment"
TOPOLOGY = "topology"
PARAMETERS = "parameters"


@dataclass
class ModelLintContext:
    """Everything the model rules may inspect.

    ``deployment`` defaults to the model's current deployment;
    ``constraints`` defaults to the constraints stored on the model itself.
    """

    model: DeploymentModel
    deployment: Optional[Mapping[str, str]] = None
    constraints: Optional[ConstraintSet] = None

    def __post_init__(self) -> None:
        if self.deployment is None:
            self.deployment = self.model.deployment.as_dict()
        if self.constraints is None:
            self.constraints = ConstraintSet(self.model.constraints)

    # -- shared helpers (computed once per run, used by several rules) ------
    _reachable: Dict[str, Set[str]] = field(default_factory=dict, repr=False)

    def reachable_from(self, host_id: str) -> Set[str]:
        """Hosts reachable from *host_id* over existing physical links."""
        cached = self._reachable.get(host_id)
        if cached is not None:
            return cached
        adjacency: Dict[str, Set[str]] = {}
        for link in self.model.physical_links:
            a, b = link.hosts
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        seen: Set[str] = set()
        stack = [host_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(adjacency.get(current, ()))
        for member in seen:
            self._reachable[member] = seen
        return seen


class ModelRule(Rule):
    """Base class for rules over :class:`ModelLintContext`."""

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Deployment-shape rules (the pre-flight subset)
# ---------------------------------------------------------------------------

class UnmappedComponentRule(ModelRule):
    rule_id = "MV001"
    severity = Severity.ERROR
    description = ("Every component must be mapped to exactly one host; "
                   "unmapped components cannot be migrated or scored.")
    tags = frozenset({DEPLOYMENT})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        for component_id in context.model.component_ids:
            if component_id not in context.deployment:
                yield self.finding(
                    "component is not mapped to any host",
                    subject=f"component {component_id!r}")


class UnknownDeploymentEntityRule(ModelRule):
    rule_id = "MV002"
    severity = Severity.ERROR
    description = ("The deployment map must reference only declared "
                   "components and hosts.")
    tags = frozenset({DEPLOYMENT})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        model = context.model
        for component_id, host_id in sorted(context.deployment.items()):
            if not model.has_component(component_id):
                yield self.finding(
                    "deployment maps an undeclared component",
                    subject=f"component {component_id!r}")
            if not model.has_host(host_id):
                yield self.finding(
                    f"deployment places {component_id!r} on an undeclared "
                    f"host {host_id!r}",
                    subject=f"host {host_id!r}")


class _CapacityRule(ModelRule):
    """Shared machinery for per-host additive resource capacities."""

    resource = ""  # "memory" or "cpu"

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        model = context.model
        used: Dict[str, float] = {}
        for component_id, host_id in context.deployment.items():
            if not (model.has_component(component_id)
                    and model.has_host(host_id)):
                continue  # MV002's finding, not ours
            demand = model.component(component_id).params.get(self.resource)
            used[host_id] = used.get(host_id, 0.0) + demand
        for host_id in sorted(used):
            capacity = model.host(host_id).params.get(self.resource)
            if used[host_id] > capacity:
                yield self.finding(
                    f"{self.resource} over capacity: components need "
                    f"{used[host_id]:g} but only {capacity:g} available",
                    subject=f"host {host_id!r}",
                    used=used[host_id], capacity=capacity)


class MemoryCapacityRule(_CapacityRule):
    rule_id = "MV003"
    severity = Severity.ERROR
    description = ("Total memory of the components on a host must not "
                   "exceed the host's available memory.")
    tags = frozenset({DEPLOYMENT})
    resource = "memory"


class CpuCapacityRule(_CapacityRule):
    rule_id = "MV004"
    severity = Severity.ERROR
    description = ("Total CPU demand of the components on a host must not "
                   "exceed the host's CPU capacity.")
    tags = frozenset({DEPLOYMENT})
    resource = "cpu"


class UnbackedLogicalLinkRule(ModelRule):
    rule_id = "MV005"
    severity = Severity.ERROR
    description = ("Interacting components placed on distinct hosts need a "
                   "physical path between those hosts.")
    tags = frozenset({DEPLOYMENT, TOPOLOGY})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        model = context.model
        for comp_a, comp_b, _link in model.interaction_pairs():
            host_a = context.deployment.get(comp_a)
            host_b = context.deployment.get(comp_b)
            if host_a is None or host_b is None or host_a == host_b:
                continue
            if not (model.has_host(host_a) and model.has_host(host_b)):
                continue
            if host_b not in context.reachable_from(host_a):
                yield self.finding(
                    f"logical link {comp_a!r}<->{comp_b!r} has no physical "
                    f"path between hosts {host_a!r} and {host_b!r}",
                    subject=f"logical link {comp_a!r}<->{comp_b!r}")


class ConstraintViolationRule(ModelRule):
    rule_id = "MV010"
    severity = Severity.ERROR
    description = ("The deployment must satisfy every hard constraint "
                   "(the paper's ConstraintChecker, applied statically).")
    tags = frozenset({DEPLOYMENT})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        model = context.model
        # Guard each constraint separately so one referencing unknown
        # entities (MV011's finding) cannot crash the whole pass.
        for constraint in context.constraints:
            try:
                messages = constraint.violations(model, context.deployment)
            except Exception:  # noqa: BLE001 — dangling constraint
                continue
            for message in messages:
                yield self.finding(message, subject=repr(constraint))


# ---------------------------------------------------------------------------
# Parameter-range rules
# ---------------------------------------------------------------------------

class NegativeFrequencyRule(ModelRule):
    rule_id = "MV006"
    severity = Severity.ERROR
    description = ("Logical-link interaction frequencies and event sizes "
                   "must be non-negative.")
    tags = frozenset({PARAMETERS})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        for link in context.model.logical_links:
            subject = f"logical link {link.components[0]!r}<->{link.components[1]!r}"
            if link.frequency < 0:
                yield self.finding(
                    f"negative interaction frequency {link.frequency:g}",
                    subject=subject)
            if link.evt_size < 0:
                yield self.finding(
                    f"negative event size {link.evt_size:g}", subject=subject)


class ReliabilityRangeRule(ModelRule):
    rule_id = "MV007"
    severity = Severity.ERROR
    description = "Physical-link reliabilities must lie in [0, 1]."
    tags = frozenset({PARAMETERS})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        for link in context.model.physical_links:
            value = link.params.get("reliability")
            if not 0.0 <= value <= 1.0:
                yield self.finding(
                    f"reliability {value:g} outside [0, 1]",
                    subject=f"physical link {link.hosts[0]!r}<->{link.hosts[1]!r}")


class NegativeResourceRule(ModelRule):
    rule_id = "MV008"
    severity = Severity.ERROR
    description = ("Host/component memory and CPU, and physical-link "
                   "bandwidth and delay, must be non-negative.")
    tags = frozenset({PARAMETERS})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        model = context.model
        for host in model.hosts:
            for name in ("memory", "cpu"):
                value = host.params.get(name)
                if value < 0:
                    yield self.finding(f"negative {name} {value:g}",
                                       subject=f"host {host.id!r}")
        for component in model.components:
            for name in ("memory", "cpu"):
                value = component.params.get(name)
                if value < 0:
                    yield self.finding(f"negative {name} {value:g}",
                                       subject=f"component {component.id!r}")
        for link in model.physical_links:
            subject = f"physical link {link.hosts[0]!r}<->{link.hosts[1]!r}"
            for name in ("bandwidth", "delay"):
                value = link.params.get(name)
                if value < 0:
                    yield self.finding(f"negative {name} {value:g}",
                                       subject=subject)


class PerfectlyReliableHostRule(ModelRule):
    rule_id = "MV017"
    severity = Severity.INFO
    description = ("A host whose every physical link has reliability 1.0 is "
                   "modeled as failure-proof: availability objectives cannot "
                   "rank placements on it and fault campaigns degrade "
                   "nothing — usually unmeasured links, not a perfect "
                   "network.")
    tags = frozenset({PARAMETERS})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        links_by_host: Dict[str, List] = {}
        for link in context.model.physical_links:
            for host_id in link.hosts:
                links_by_host.setdefault(host_id, []).append(link)
        for host_id in context.model.host_ids:
            links = links_by_host.get(host_id)
            if links and all(link.params.get("reliability") == 1.0
                             for link in links):
                yield self.finding(
                    f"all {len(links)} physical links of this host have "
                    "reliability 1.0; fault campaigns and availability "
                    "ranking will be no-ops around it",
                    subject=f"host {host_id!r}", links=len(links))


# ---------------------------------------------------------------------------
# Topology and constraint-set rules
# ---------------------------------------------------------------------------

class UnreachableHostRule(ModelRule):
    rule_id = "MV009"
    severity = Severity.WARNING
    description = ("Hosts cut off from the largest physically-connected "
                   "group can neither send monitoring data nor receive "
                   "migrated components.")
    tags = frozenset({TOPOLOGY})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        host_ids = context.model.host_ids
        if len(host_ids) < 2:
            return
        groups: List[Set[str]] = []
        seen: Set[str] = set()
        for host_id in host_ids:
            if host_id in seen:
                continue
            group = context.reachable_from(host_id)
            seen |= group
            groups.append(group)
        if len(groups) < 2:
            return
        main = max(groups, key=len)
        for group in groups:
            if group is main:
                continue
            for host_id in sorted(group):
                yield self.finding(
                    "host is not physically reachable from the main "
                    f"partition ({len(main)} hosts)",
                    subject=f"host {host_id!r}")


class DanglingConstraintRule(ModelRule):
    rule_id = "MV011"
    severity = Severity.WARNING
    description = ("Location/collocation constraints referencing entities "
                   "absent from the model are dead weight (or typos).")
    tags = frozenset({TOPOLOGY})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        model = context.model
        for constraint in context.constraints:
            if isinstance(constraint, LocationConstraint):
                if not model.has_component(constraint.component):
                    yield self.finding(
                        "location constraint references undeclared "
                        f"component {constraint.component!r}",
                        subject=repr(constraint))
                hosts = (constraint.allowed if constraint.allowed is not None
                         else constraint.forbidden) or ()
                for host_id in sorted(hosts):
                    if not model.has_host(host_id):
                        yield self.finding(
                            "location constraint references undeclared "
                            f"host {host_id!r}", subject=repr(constraint))
            elif isinstance(constraint, CollocationConstraint):
                for component_id in constraint.components:
                    if not model.has_component(component_id):
                        yield self.finding(
                            "collocation constraint references undeclared "
                            f"component {component_id!r}",
                            subject=repr(constraint))


class UnsatisfiableConstraintRule(ModelRule):
    rule_id = "MV012"
    severity = Severity.ERROR
    description = ("Each component must have at least one host the "
                   "constraint set allows it on (cheap per-component "
                   "satisfiability; a full CSP is the algorithms' job).")
    tags = frozenset({TOPOLOGY})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        model = context.model
        if not model.host_ids:
            return
        for component_id in model.component_ids:
            try:
                allowed = context.constraints.allowed_hosts(
                    model, {}, component_id)
            except Exception:  # noqa: BLE001 — dangling constraint
                continue
            if not allowed:
                yield self.finding(
                    "no host satisfies the constraint set for this "
                    "component; the deployment space is empty",
                    subject=f"component {component_id!r}")


class IsolatedComponentRule(ModelRule):
    rule_id = "MV013"
    severity = Severity.INFO
    description = ("Components with no logical links do not influence any "
                   "interaction-based objective; placement is arbitrary.")
    tags = frozenset({TOPOLOGY})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        for component_id in context.model.component_ids:
            if not context.model.logical_neighbors(component_id):
                yield self.finding("component has no logical links",
                                   subject=f"component {component_id!r}")


class CompiledEngineAdvisoryRule(ModelRule):
    rule_id = "MV016"
    severity = Severity.INFO
    description = ("Models beyond the object path's comfort zone "
                   "(hosts x components > 2000) should be searched through "
                   "the compiled kernels (repro.algorithms.compiled), which "
                   "the evaluation engine uses by default for the built-in "
                   "objectives.")
    tags = frozenset({TOPOLOGY})

    #: hosts x components above which a full object-path evaluation walk
    #: becomes the dominant cost of a search run (see docs/PERFORMANCE.md).
    COMFORT_ZONE = 2000

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        hosts = len(context.model.host_ids)
        components = len(context.model.component_ids)
        size = hosts * components
        if size > self.COMFORT_ZONE:
            yield self.finding(
                f"model size {hosts} hosts x {components} components "
                f"(= {size}) exceeds the object-path comfort zone "
                f"({self.COMFORT_ZONE}); search it with a built-in "
                "objective (exact type), which the evaluation engine "
                "serves from compiled kernels",
                subject=f"model {context.model.name!r}",
                hosts=hosts, components=components, size=size)


class EmptyModelRule(ModelRule):
    rule_id = "MV014"
    severity = Severity.WARNING
    description = "A model without hosts or without components is vacuous."
    tags = frozenset({TOPOLOGY})

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        if not context.model.host_ids:
            yield self.finding("model declares no hosts",
                               subject=f"model {context.model.name!r}")
        if not context.model.component_ids:
            yield self.finding("model declares no components",
                               subject=f"model {context.model.name!r}")

class InfeasiblePlacementRatioRule(ModelRule):
    rule_id = "MV018"
    severity = Severity.WARNING
    description = ("Constraint sets that rule out most of the placement "
                   "space make search algorithms spend their rounds "
                   "probing moves that can never be applied; over half of "
                   "all (component, host) placements being infeasible "
                   "usually signals over-tight location constraints or "
                   "undersized hosts.")
    tags = frozenset({TOPOLOGY})

    #: Warn when more than this fraction of the placement space is
    #: infeasible against an empty deployment.
    THRESHOLD = 0.5
    #: Skip the quadratic probe sweep beyond this many (component, host)
    #: pairs; the advisory targets interactively-sized models.
    MAX_PAIRS = 20_000

    def check(self, context: ModelLintContext) -> Iterable[Finding]:
        model = context.model
        constraints = context.constraints
        hosts = model.host_ids
        components = model.component_ids
        total = len(hosts) * len(components)
        if not total or total > self.MAX_PAIRS:
            return
        if constraints is None or not len(constraints):
            return
        empty: Mapping[str, str] = {}
        infeasible = 0
        for component in components:
            for host in hosts:
                try:
                    if not constraints.allows(model, empty, component,
                                              host):
                        infeasible += 1
                except Exception:  # noqa: BLE001 - user constraint raised
                    return  # cannot judge a constraint set that errors
        ratio = infeasible / total
        if ratio > self.THRESHOLD:
            yield self.finding(
                f"{infeasible} of {total} (component, host) placements "
                f"({ratio:.0%}) are infeasible even against an empty "
                "deployment; the constraint set leaves the search "
                "algorithms little legal room to move",
                subject=f"model {model.name!r}",
                infeasible=infeasible, total=total, ratio=round(ratio, 4))


# ---------------------------------------------------------------------------
# Registry and entry points
# ---------------------------------------------------------------------------

MODEL_RULES: Tuple[Type[ModelRule], ...] = (
    UnmappedComponentRule,
    UnknownDeploymentEntityRule,
    MemoryCapacityRule,
    CpuCapacityRule,
    UnbackedLogicalLinkRule,
    NegativeFrequencyRule,
    ReliabilityRangeRule,
    NegativeResourceRule,
    UnreachableHostRule,
    ConstraintViolationRule,
    DanglingConstraintRule,
    UnsatisfiableConstraintRule,
    IsolatedComponentRule,
    EmptyModelRule,
    CompiledEngineAdvisoryRule,
    InfeasiblePlacementRatioRule,
    PerfectlyReliableHostRule,
)


def model_rule_registry() -> RuleRegistry:
    """A fresh registry holding the built-in model verifier rules."""
    return RuleRegistry(cls() for cls in MODEL_RULES)


def verify_model(model: DeploymentModel,
                 deployment: Optional[Mapping[str, str]] = None,
                 constraints: Optional[ConstraintSet] = None,
                 registry: Optional[RuleRegistry] = None,
                 tags: Optional[Iterable[str]] = None) -> LintReport:
    """Run the full model verifier (or a tag subset) over *model*."""
    context = ModelLintContext(model, deployment=deployment,
                               constraints=constraints)
    active = registry if registry is not None else model_rule_registry()
    return active.run(context, tags=tags)


def verify_deployment(model: DeploymentModel,
                      deployment: Optional[Mapping[str, str]] = None,
                      constraints: Optional[ConstraintSet] = None,
                      registry: Optional[RuleRegistry] = None) -> LintReport:
    """The pre-flight subset: only rules that judge a deployment's shape.

    This is what :class:`repro.core.effector.Effector` runs before
    enactment and :class:`repro.desi.batch.ExperimentRunner` runs over
    generated models.
    """
    return verify_model(model, deployment=deployment, constraints=constraints,
                        registry=registry, tags=(DEPLOYMENT,))
