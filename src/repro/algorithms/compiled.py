"""Compiled evaluation kernels: index-based views of the deployment model.

The analyzer re-scores thousands of candidate deployments per improvement
cycle (Section 4.3), and the object-path objectives walk dict-of-objects
``DeploymentModel`` structures with string keys on every call — parameter
bags, registry lookups, and canonical-pair dictionaries dominate every
algorithm's inner loop.  Following the separation used by constraint-based
deployment middleware (declarative model vs. the engine that evaluates
placements, arXiv:1006.4733), this module *compiles* the architectural
model into flat, integer-indexed structures the search hot path can consume
at machine speed:

* :class:`CompiledModel` — an immutable snapshot of a
  :class:`~repro.core.model.DeploymentModel`: component/host index maps,
  CSR-style adjacency over logical links with per-edge ``(frequency,
  event_size, criticality)`` arrays, dense host×host matrices of the
  physical-link parameters (reliability, bandwidth, delay, security), and
  per-component memory/CPU vectors.  Snapshots are cached per model and
  invalidated through the model's listener events, so monitors writing
  fresh observations trigger recompilation on next use.
* :class:`CompiledDeployment` — a deployment as an array of host indices
  with an incrementally-maintained Zobrist hash (a move is an O(1) hash
  update instead of rehashing the whole mapping).
* One kernel per built-in objective (:func:`compile_kernel`), each
  replicating the object path's arithmetic *in the same order* so kernel
  values are bit-identical to ``Objective.evaluate`` — the evaluation
  engine can therefore route through kernels transparently without
  perturbing memoized scores.  Kernels also serve O(degree)/O(host)
  ``move_delta`` for every objective, including the bottleneck-style
  Throughput and Durability objectives, by maintaining per-host running
  load/draw accumulators keyed to the base assignment.

The kernels are the only incremental implementation of the built-ins; the
objects in :mod:`repro.core.objectives` keep the reference ``evaluate``.
Custom objectives have no kernel and use the object path: their own
``move_delta`` override, or two full evaluations.
"""

from __future__ import annotations

import random
import threading
import weakref
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type,
)

from repro.core.model import DEPLOYMENT_CHANGED, Deployment, DeploymentModel
from repro.core.objectives import (
    MAXIMIZE, UNREACHABLE_COST, AvailabilityObjective,
    CommunicationCostObjective, DurabilityObjective, LatencyObjective,
    Objective, SecurityObjective, ThroughputObjective, WeightedObjective,
)

#: Sentinel host index for components absent from a deployment mapping.
UNDEPLOYED = -1

_INF = float("inf")


class CompiledModel:
    """Flat, integer-indexed snapshot of one :class:`DeploymentModel`.

    All arrays are ordered by sorted entity id, matching the iteration
    order of the model's ``hosts`` / ``components`` / ``interaction_pairs``
    accessors — which is what lets kernels accumulate floating-point sums
    in exactly the order the object path does.

    A snapshot never mutates; model changes mark it ``stale`` (via the
    listener installed by :func:`compiled_model`) and the next
    :func:`compiled_model` call builds a fresh snapshot with a bumped
    ``generation``.
    """

    __slots__ = (
        "name", "generation", "stale",
        "host_ids", "component_ids", "host_index", "component_index",
        "n_hosts", "n_components",
        "edge_a", "edge_b", "edge_frequency", "edge_evt_size",
        "edge_criticality", "edge_volume",
        "adj_indptr", "adj_neighbor", "adj_edge",
        "reliability", "bandwidth", "delay", "security", "link_up",
        "component_memory", "component_cpu",
        "host_memory", "host_cpu", "host_battery",
        "_zobrist",
    )

    def __init__(self, model: DeploymentModel, generation: int = 0):
        self.name = model.name
        self.generation = generation
        self.stale = False

        self.host_ids: Tuple[str, ...] = model.host_ids
        self.component_ids: Tuple[str, ...] = model.component_ids
        self.host_index: Dict[str, int] = {
            h: i for i, h in enumerate(self.host_ids)}
        self.component_index: Dict[str, int] = {
            c: i for i, c in enumerate(self.component_ids)}
        self.n_hosts = len(self.host_ids)
        self.n_components = len(self.component_ids)

        # -- logical links: edge arrays in interaction_pairs() order -------
        edge_a: List[int] = []
        edge_b: List[int] = []
        edge_frequency: List[float] = []
        edge_evt_size: List[float] = []
        edge_criticality: List[float] = []
        for comp_a, comp_b, link in model.interaction_pairs():
            edge_a.append(self.component_index[comp_a])
            edge_b.append(self.component_index[comp_b])
            edge_frequency.append(link.frequency)
            edge_evt_size.append(link.evt_size)
            edge_criticality.append(link.params.get("criticality"))
        self.edge_a = edge_a
        self.edge_b = edge_b
        self.edge_frequency = edge_frequency
        self.edge_evt_size = edge_evt_size
        self.edge_criticality = edge_criticality
        self.edge_volume = [f * s for f, s in
                            zip(edge_frequency, edge_evt_size, strict=True)]

        # -- CSR adjacency: neighbors sorted by id (= index) per component --
        per_component: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.n_components)]
        for edge, (a, b) in enumerate(zip(edge_a, edge_b, strict=True)):
            per_component[a].append((b, edge))
            per_component[b].append((a, edge))
        indptr = [0]
        neighbor: List[int] = []
        adj_edge: List[int] = []
        for entries in per_component:
            entries.sort()
            for n, e in entries:
                neighbor.append(n)
                adj_edge.append(e)
            indptr.append(len(neighbor))
        self.adj_indptr = indptr
        self.adj_neighbor = neighbor
        self.adj_edge = adj_edge

        # -- physical links: dense host×host matrices ----------------------
        # Semantics mirror the model's derived queries exactly:
        # reliability/bandwidth gate on the link's ``connected`` flag,
        # delay and security do not, diagonals are the collocation values.
        n = self.n_hosts
        rel = [[0.0] * n for _ in range(n)]
        bw = [[0.0] * n for _ in range(n)]
        dly = [[_INF] * n for _ in range(n)]
        sec = [[0.0] * n for _ in range(n)]
        up = [[False] * n for _ in range(n)]
        for i in range(n):
            rel[i][i] = 1.0
            bw[i][i] = _INF
            dly[i][i] = 0.0
            sec[i][i] = 1.0
        for link in model.physical_links:
            i = self.host_index[link.hosts[0]]
            j = self.host_index[link.hosts[1]]
            connected = bool(link.params.get("connected"))
            rel[i][j] = rel[j][i] = link.params.get("reliability") \
                if connected else 0.0
            bw[i][j] = bw[j][i] = link.params.get("bandwidth") \
                if connected else 0.0
            dly[i][j] = dly[j][i] = link.params.get("delay")
            sec[i][j] = sec[j][i] = link.params.get("security")
            up[i][j] = up[j][i] = connected
        self.reliability = rel
        self.bandwidth = bw
        self.delay = dly
        self.security = sec
        self.link_up = up

        # -- entity vectors -------------------------------------------------
        self.component_memory = [c.memory for c in model.components]
        self.component_cpu = [c.cpu for c in model.components]
        self.host_memory = [h.memory for h in model.hosts]
        self.host_cpu = [h.cpu for h in model.hosts]
        self.host_battery = [h.params.get("battery") for h in model.hosts]

        # Zobrist table for incremental deployment hashing; seeded from the
        # model shape so hashes are stable across processes and sessions.
        rng = random.Random(0xC0DE ^ (self.n_components << 16) ^ self.n_hosts)
        self._zobrist = [
            [rng.getrandbits(64) for _ in range(self.n_hosts)]
            for _ in range(self.n_components)
        ]

    # ------------------------------------------------------------------
    def encode(self, deployment: Mapping[str, str]) -> Optional[List[int]]:
        """Deployment mapping → per-component host-index array.

        Components absent from the mapping encode as :data:`UNDEPLOYED`.
        Returns ``None`` when the mapping references a host unknown to this
        snapshot — callers must then fall back to the object path, whose
        semantics for dangling hosts differ from "undeployed".
        """
        host_index = self.host_index
        get = deployment.get
        out: List[int] = []
        for component_id in self.component_ids:
            host_id = get(component_id)
            if host_id is None:
                out.append(UNDEPLOYED)
                continue
            index = host_index.get(host_id)
            if index is None:
                return None
            out.append(index)
        return out

    def decode(self, assignment: Sequence[int]) -> Dict[str, str]:
        """Inverse of :meth:`encode` (undeployed components are omitted)."""
        out: Dict[str, str] = {}
        for component_index, host_idx in enumerate(assignment):
            if host_idx != UNDEPLOYED:
                out[self.component_ids[component_index]] = \
                    self.host_ids[host_idx]
        return out

    def neighbors(self, component_index: int) -> range:
        """CSR slice bounds for one component's adjacency entries."""
        return range(self.adj_indptr[component_index],
                     self.adj_indptr[component_index + 1])

    def degree(self, component_index: int) -> int:
        return (self.adj_indptr[component_index + 1]
                - self.adj_indptr[component_index])

    def zobrist_hash(self, assignment: Sequence[int]) -> int:
        value = 0
        for component_index, host_idx in enumerate(assignment):
            if host_idx != UNDEPLOYED:
                value ^= self._zobrist[component_index][host_idx]
        return value

    def __repr__(self) -> str:
        return (f"CompiledModel({self.name!r}, gen={self.generation}, "
                f"hosts={self.n_hosts}, components={self.n_components}, "
                f"edges={len(self.edge_a)})")


class CompiledDeployment:
    """A deployment as a host-index array with an incremental hash.

    ``moved`` produces a sibling whose hash is updated with two XORs
    against the snapshot's Zobrist table instead of rehashing all
    components — the hash maintenance local search needs when it keeps
    thousands of candidate placements in memo sets.
    """

    __slots__ = ("compiled", "assignment", "_hash")

    def __init__(self, compiled: CompiledModel,
                 assignment: Sequence[int],
                 _hash: Optional[int] = None):
        self.compiled = compiled
        self.assignment: Tuple[int, ...] = tuple(assignment)
        if len(self.assignment) != compiled.n_components:
            raise ValueError(
                f"assignment length {len(self.assignment)} != "
                f"{compiled.n_components} components")
        self._hash = (compiled.zobrist_hash(self.assignment)
                      if _hash is None else _hash)

    @classmethod
    def from_mapping(cls, compiled: CompiledModel,
                     deployment: Mapping[str, str]) -> "CompiledDeployment":
        assignment = compiled.encode(deployment)
        if assignment is None:
            raise KeyError(
                "deployment references hosts unknown to the compiled model")
        return cls(compiled, assignment)

    def moved(self, component_index: int,
              host_index: int) -> "CompiledDeployment":
        """Sibling with one component reassigned; O(1) hash update."""
        old = self.assignment[component_index]
        if old == host_index:
            return self
        table = self.compiled._zobrist[component_index]
        value = self._hash
        if old != UNDEPLOYED:
            value ^= table[old]
        if host_index != UNDEPLOYED:
            value ^= table[host_index]
        assignment = list(self.assignment)
        assignment[component_index] = host_index
        return CompiledDeployment(self.compiled, assignment, _hash=value)

    def to_deployment(self) -> Deployment:
        return Deployment(self.compiled.decode(self.assignment))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CompiledDeployment):
            return (self.assignment == other.assignment
                    and self.compiled is other.compiled)
        return NotImplemented

    def __len__(self) -> int:
        return len(self.assignment)

    def __repr__(self) -> str:
        return (f"CompiledDeployment({len(self.assignment)} components, "
                f"hash={self._hash:#x})")


# ---------------------------------------------------------------------------
# Per-model snapshot cache, invalidated by model listener events
# ---------------------------------------------------------------------------

class _Invalidator:
    """Model listener marking the model's current snapshot stale.

    Deployment changes are ignored: evaluation takes the deployment as an
    explicit argument, so the model's current placement never affects a
    snapshot's validity (the same rule the engine's memo cache follows).
    """

    __slots__ = ("compiled",)

    def __init__(self) -> None:
        self.compiled: Optional[CompiledModel] = None

    def __call__(self, event: str, payload: Dict[str, Any]) -> None:
        if event != DEPLOYMENT_CHANGED and self.compiled is not None:
            self.compiled.stale = True


_cache_lock = threading.Lock()
_snapshots: "weakref.WeakKeyDictionary[DeploymentModel, CompiledModel]" = \
    weakref.WeakKeyDictionary()
_invalidators: "weakref.WeakKeyDictionary[DeploymentModel, _Invalidator]" = \
    weakref.WeakKeyDictionary()


def compiled_model(model: DeploymentModel) -> CompiledModel:
    """The current snapshot of *model*, compiling (once) if needed.

    Snapshots are cached per model instance and recompiled lazily after any
    topology or parameter event — one compilation is shared by every engine
    and every algorithm scoring the same model generation.
    """
    with _cache_lock:
        snapshot = _snapshots.get(model)
        if snapshot is not None and not snapshot.stale:
            return snapshot
        invalidator = _invalidators.get(model)
        if invalidator is None:
            invalidator = _Invalidator()
            _invalidators[model] = invalidator
            model.add_listener(invalidator)
        generation = 0 if snapshot is None else snapshot.generation + 1
        snapshot = CompiledModel(model, generation=generation)
        invalidator.compiled = snapshot
        _snapshots[model] = snapshot
        return snapshot


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

class Kernel:
    """Compiled evaluator for one objective over one model snapshot.

    ``evaluate(assignment)`` must be *bit-identical* to the objective's
    ``evaluate(model, mapping)`` for any mapping that encodes to
    *assignment* — kernels replicate the object path's arithmetic in the
    same accumulation order.  ``move_delta`` must agree with two full
    evaluations to 1e-9 (the repository-wide incremental contract).
    """

    def __init__(self, objective: Objective, compiled: CompiledModel):
        self.objective = objective
        self.cm = compiled

    def evaluate(self, assignment: Sequence[int]) -> float:
        raise NotImplementedError

    def move_delta(self, assignment: Sequence[int], component_index: int,
                   new_host_index: int) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(objective={self.objective.name}, "
                f"gen={self.cm.generation})")


class AvailabilityKernel(Kernel):
    """Kernel for :class:`AvailabilityObjective` (criticality-aware)."""

    def __init__(self, objective: AvailabilityObjective,
                 compiled: CompiledModel):
        super().__init__(objective, compiled)
        if objective.use_criticality:
            self.edge_weight = [
                f * c for f, c in zip(compiled.edge_frequency,
                                      compiled.edge_criticality, strict=True)]
        else:
            self.edge_weight = compiled.edge_frequency
        # Deployment-independent denominator; computed once per snapshot.
        self.total_weight = sum(self.edge_weight)

    def evaluate(self, assignment: Sequence[int]) -> float:
        cm = self.cm
        rel = cm.reliability
        total = 0.0
        delivered = 0.0
        for edge, weight in enumerate(self.edge_weight):
            if weight <= 0.0:
                continue
            total += weight
            host_a = assignment[cm.edge_a[edge]]
            host_b = assignment[cm.edge_b[edge]]
            if host_a == UNDEPLOYED or host_b == UNDEPLOYED:
                continue
            delivered += weight * rel[host_a][host_b]
        if total == 0.0:
            return 1.0
        return delivered / total

    def move_delta(self, assignment: Sequence[int], component_index: int,
                   new_host_index: int) -> float:
        total = self.total_weight
        if total == 0.0:
            return 0.0
        cm = self.cm
        rel = cm.reliability
        old_host = assignment[component_index]
        new_rel_row = rel[new_host_index]
        old_rel_row = rel[old_host] if old_host != UNDEPLOYED else None
        delta_delivered = 0.0
        for k in cm.neighbors(component_index):
            weight = self.edge_weight[cm.adj_edge[k]]
            if weight <= 0.0:
                continue
            neighbor_host = assignment[cm.adj_neighbor[k]]
            if neighbor_host == UNDEPLOYED:
                continue
            new_rel = new_rel_row[neighbor_host]
            old_rel = (old_rel_row[neighbor_host]
                       if old_rel_row is not None else 0.0)
            delta_delivered += weight * (new_rel - old_rel)
        return delta_delivered / total


class LatencyKernel(Kernel):
    """Kernel for :class:`LatencyObjective`.

    Pair costs are pre-split into a base term (delay, local dispatch, or
    the unreachable penalty) and a bandwidth divisor so the per-edge cost
    is ``base + evt_size / bandwidth`` — the exact division the object
    path performs, preserving bit-identity.
    """

    def __init__(self, objective: LatencyObjective, compiled: CompiledModel):
        super().__init__(objective, compiled)
        n = compiled.n_hosts
        local = objective.local_dispatch_cost
        base = [[0.0] * n for _ in range(n)]
        divisor = [[_INF] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    base[i][j] = local
                elif compiled.link_up[i][j]:
                    bandwidth = compiled.bandwidth[i][j]
                    if bandwidth <= 0.0:
                        base[i][j] = UNREACHABLE_COST
                    else:
                        base[i][j] = compiled.delay[i][j]
                        divisor[i][j] = bandwidth
                else:
                    base[i][j] = UNREACHABLE_COST
        self.cost_base = base
        self.cost_divisor = divisor

    def _pair_cost(self, host_a: int, host_b: int, evt_size: float) -> float:
        divisor = self.cost_divisor[host_a][host_b]
        if divisor != _INF:
            return self.cost_base[host_a][host_b] + evt_size / divisor
        return self.cost_base[host_a][host_b]

    def evaluate(self, assignment: Sequence[int]) -> float:
        cm = self.cm
        total = 0.0
        for edge, frequency in enumerate(cm.edge_frequency):
            if frequency <= 0.0:
                continue
            host_a = assignment[cm.edge_a[edge]]
            host_b = assignment[cm.edge_b[edge]]
            if host_a == UNDEPLOYED or host_b == UNDEPLOYED:
                total += frequency * UNREACHABLE_COST
                continue
            total += frequency * self._pair_cost(host_a, host_b,
                                                 cm.edge_evt_size[edge])
        return total

    def move_delta(self, assignment: Sequence[int], component_index: int,
                   new_host_index: int) -> float:
        cm = self.cm
        old_host = assignment[component_index]
        delta = 0.0
        for k in cm.neighbors(component_index):
            edge = cm.adj_edge[k]
            frequency = cm.edge_frequency[edge]
            if frequency <= 0.0:
                continue
            neighbor_host = assignment[cm.adj_neighbor[k]]
            if neighbor_host == UNDEPLOYED:
                continue
            evt_size = cm.edge_evt_size[edge]
            new_cost = self._pair_cost(new_host_index, neighbor_host,
                                       evt_size)
            old_cost = (self._pair_cost(old_host, neighbor_host, evt_size)
                        if old_host != UNDEPLOYED else UNREACHABLE_COST)
            delta += frequency * (new_cost - old_cost)
        return delta


class CommunicationCostKernel(Kernel):
    """Kernel for :class:`CommunicationCostObjective`."""

    def evaluate(self, assignment: Sequence[int]) -> float:
        cm = self.cm
        total = 0.0
        for edge, volume in enumerate(cm.edge_volume):
            host_a = assignment[cm.edge_a[edge]]
            host_b = assignment[cm.edge_b[edge]]
            if host_a == UNDEPLOYED or host_b == UNDEPLOYED \
                    or host_a != host_b:
                total += volume
        return total

    def move_delta(self, assignment: Sequence[int], component_index: int,
                   new_host_index: int) -> float:
        cm = self.cm
        old_host = assignment[component_index]
        delta = 0.0
        for k in cm.neighbors(component_index):
            volume = cm.edge_volume[cm.adj_edge[k]]
            neighbor_host = assignment[cm.adj_neighbor[k]]
            old_remote = (neighbor_host == UNDEPLOYED
                          or old_host == UNDEPLOYED
                          or old_host != neighbor_host)
            new_remote = (neighbor_host == UNDEPLOYED
                          or new_host_index != neighbor_host)
            delta += volume * (float(new_remote) - float(old_remote))
        return delta


class SecurityKernel(Kernel):
    """Kernel for :class:`SecurityObjective`."""

    def __init__(self, objective: SecurityObjective,
                 compiled: CompiledModel):
        super().__init__(objective, compiled)
        self.total_weight = sum(f for f in compiled.edge_frequency if f > 0.0)

    def evaluate(self, assignment: Sequence[int]) -> float:
        cm = self.cm
        security = cm.security
        total = 0.0
        secured = 0.0
        for edge, weight in enumerate(cm.edge_frequency):
            if weight <= 0.0:
                continue
            total += weight
            host_a = assignment[cm.edge_a[edge]]
            host_b = assignment[cm.edge_b[edge]]
            if host_a == UNDEPLOYED or host_b == UNDEPLOYED:
                continue
            secured += weight * security[host_a][host_b]
        if total == 0.0:
            return 1.0
        return secured / total

    def move_delta(self, assignment: Sequence[int], component_index: int,
                   new_host_index: int) -> float:
        total = self.total_weight
        if total == 0.0:
            return 0.0
        cm = self.cm
        security = cm.security
        old_host = assignment[component_index]
        new_row = security[new_host_index]
        old_row = security[old_host] if old_host != UNDEPLOYED else None
        delta_secured = 0.0
        for k in cm.neighbors(component_index):
            weight = cm.edge_frequency[cm.adj_edge[k]]
            if weight <= 0.0:
                continue
            neighbor_host = assignment[cm.adj_neighbor[k]]
            if neighbor_host == UNDEPLOYED:
                continue
            new_sec = new_row[neighbor_host]
            old_sec = old_row[neighbor_host] if old_row is not None else 0.0
            delta_secured += weight * (new_sec - old_sec)
        return delta_secured / total


class ThroughputKernel(Kernel):
    """Kernel for :class:`ThroughputObjective` with an accumulator state.

    Full evaluation aggregates per-host-pair demand exactly like the
    object path.  ``move_delta`` maintains that demand table (volumes plus
    contributing-edge counts) for the *base* assignment: the first query
    against a new base pays one O(edges) rebuild, every further query
    against the same base costs O(degree) accumulator updates plus an
    O(pairs) bottleneck re-scan — the dominant local-search pattern of
    many candidate moves probed per accepted move.
    """

    def __init__(self, objective: ThroughputObjective,
                 compiled: CompiledModel):
        super().__init__(objective, compiled)
        self.unreachable = objective.UNREACHABLE_UTILIZATION
        #: (base assignment, demand {pair: volume}, counts {pair: edges},
        #:  base value) — rebuilt whenever the queried base changes.
        self._state: Optional[Tuple[Tuple[int, ...],
                                    Dict[Tuple[int, int], float],
                                    Dict[Tuple[int, int], int], float]] = None

    def _demand(self, assignment: Sequence[int]) -> Tuple[
            Dict[Tuple[int, int], float], Dict[Tuple[int, int], int]]:
        cm = self.cm
        demand: Dict[Tuple[int, int], float] = {}
        counts: Dict[Tuple[int, int], int] = {}
        for edge, volume in enumerate(cm.edge_volume):
            host_a = assignment[cm.edge_a[edge]]
            host_b = assignment[cm.edge_b[edge]]
            if host_a == UNDEPLOYED or host_b == UNDEPLOYED \
                    or host_a == host_b:
                continue
            key = (host_a, host_b) if host_a <= host_b else (host_b, host_a)
            demand[key] = demand.get(key, 0.0) + volume
            counts[key] = counts.get(key, 0) + 1
        return demand, counts

    def _worst(self, demand: Dict[Tuple[int, int], float]) -> float:
        bandwidth = self.cm.bandwidth
        unreachable = self.unreachable
        worst = 0.0
        for (host_a, host_b), volume in demand.items():
            capacity = bandwidth[host_a][host_b]
            if capacity <= 0.0:
                if unreachable > worst:
                    worst = unreachable
            elif capacity != _INF:
                utilization = volume / capacity
                if utilization > worst:
                    worst = utilization
        return worst

    def evaluate(self, assignment: Sequence[int]) -> float:
        demand, __ = self._demand(assignment)
        return self._worst(demand)

    def _state_for(self, assignment: Sequence[int]):
        key = tuple(assignment)
        state = self._state
        if state is None or state[0] != key:
            demand, counts = self._demand(assignment)
            state = (key, demand, counts, self._worst(demand))
            self._state = state
        return state

    def move_delta(self, assignment: Sequence[int], component_index: int,
                   new_host_index: int) -> float:
        cm = self.cm
        __, demand, counts, base_value = self._state_for(assignment)
        old_host = assignment[component_index]
        if old_host == new_host_index:
            return 0.0
        volume_changes: Dict[Tuple[int, int], float] = {}
        count_changes: Dict[Tuple[int, int], int] = {}
        for k in cm.neighbors(component_index):
            volume = cm.edge_volume[cm.adj_edge[k]]
            neighbor_host = assignment[cm.adj_neighbor[k]]
            if neighbor_host == UNDEPLOYED:
                continue
            if old_host != UNDEPLOYED and old_host != neighbor_host:
                key = ((old_host, neighbor_host) if old_host <= neighbor_host
                       else (neighbor_host, old_host))
                volume_changes[key] = volume_changes.get(key, 0.0) - volume
                count_changes[key] = count_changes.get(key, 0) - 1
            if new_host_index != neighbor_host:
                key = ((new_host_index, neighbor_host)
                       if new_host_index <= neighbor_host
                       else (neighbor_host, new_host_index))
                volume_changes[key] = volume_changes.get(key, 0.0) + volume
                count_changes[key] = count_changes.get(key, 0) + 1
        bandwidth = self.cm.bandwidth
        unreachable = self.unreachable
        worst = 0.0
        for key, volume in demand.items():
            change = count_changes.get(key)
            if change is not None:
                if counts[key] + change <= 0:
                    continue  # every contributing edge moved away
                volume = volume + volume_changes[key]
            host_a, host_b = key
            capacity = bandwidth[host_a][host_b]
            if capacity <= 0.0:
                if unreachable > worst:
                    worst = unreachable
            elif capacity != _INF:
                utilization = volume / capacity
                if utilization > worst:
                    worst = utilization
        for key, change in count_changes.items():
            if key in demand or change <= 0:
                continue
            host_a, host_b = key
            capacity = bandwidth[host_a][host_b]
            if capacity <= 0.0:
                if unreachable > worst:
                    worst = unreachable
            elif capacity != _INF:
                utilization = volume_changes[key] / capacity
                if utilization > worst:
                    worst = utilization
        return worst - base_value


class DurabilityKernel(Kernel):
    """Kernel for :class:`DurabilityObjective` with per-host accumulators.

    ``move_delta`` keeps per-host running CPU-load and radio-traffic
    accumulators for the base assignment; a probed move adjusts O(degree)
    entries on scratch copies and re-derives the minimum projected
    lifetime in O(hosts).
    """

    def __init__(self, objective: DurabilityObjective,
                 compiled: CompiledModel):
        super().__init__(objective, compiled)
        self._state: Optional[Tuple[Tuple[int, ...], List[float],
                                    List[float], float]] = None

    def _loads(self, assignment: Sequence[int]
               ) -> Tuple[List[float], List[float]]:
        cm = self.cm
        cpu_load = [0.0] * cm.n_hosts
        radio = [0.0] * cm.n_hosts
        for component_index, host in enumerate(assignment):
            if host != UNDEPLOYED:
                cpu_load[host] += cm.component_cpu[component_index]
        for edge, volume in enumerate(cm.edge_volume):
            host_a = assignment[cm.edge_a[edge]]
            host_b = assignment[cm.edge_b[edge]]
            if host_a == host_b:
                continue
            if host_a != UNDEPLOYED:
                radio[host_a] += volume
            if host_b != UNDEPLOYED:
                radio[host_b] += volume
        return cpu_load, radio

    def _lifetime_min(self, cpu_load: List[float],
                      radio: List[float]) -> float:
        objective: DurabilityObjective = self.objective
        max_lifetime = objective.max_lifetime
        idle = objective.idle_draw
        cpu_coefficient = objective.cpu_coefficient
        radio_coefficient = objective.radio_coefficient
        best: Optional[float] = None
        for host, battery in enumerate(self.cm.host_battery):
            if battery == _INF:
                continue
            draw = (idle + cpu_coefficient * cpu_load[host]
                    + radio_coefficient * radio[host])
            lifetime = (max_lifetime if draw <= 0.0
                        else min(battery / draw, max_lifetime))
            if lifetime < max_lifetime and (best is None or lifetime < best):
                best = lifetime
        return max_lifetime if best is None else best

    def evaluate(self, assignment: Sequence[int]) -> float:
        cpu_load, radio = self._loads(assignment)
        return self._lifetime_min(cpu_load, radio)

    def move_delta(self, assignment: Sequence[int], component_index: int,
                   new_host_index: int) -> float:
        key = tuple(assignment)
        state = self._state
        if state is None or state[0] != key:
            cpu_load, radio = self._loads(assignment)
            state = (key, cpu_load, radio, self._lifetime_min(cpu_load, radio))
            self._state = state
        __, cpu_load, radio, base_value = state
        old_host = assignment[component_index]
        if old_host == new_host_index:
            return 0.0
        cm = self.cm
        cpu_scratch = list(cpu_load)
        radio_scratch = list(radio)
        cpu = cm.component_cpu[component_index]
        if old_host != UNDEPLOYED:
            cpu_scratch[old_host] -= cpu
        cpu_scratch[new_host_index] += cpu
        for k in cm.neighbors(component_index):
            volume = cm.edge_volume[cm.adj_edge[k]]
            neighbor_host = assignment[cm.adj_neighbor[k]]
            if neighbor_host == UNDEPLOYED:
                continue
            if old_host != UNDEPLOYED and old_host != neighbor_host:
                radio_scratch[old_host] -= volume
                radio_scratch[neighbor_host] -= volume
            if new_host_index != neighbor_host:
                radio_scratch[new_host_index] += volume
                radio_scratch[neighbor_host] += volume
        return self._lifetime_min(cpu_scratch, radio_scratch) - base_value


class WeightedKernel(Kernel):
    """Composition of term kernels mirroring :class:`WeightedObjective`."""

    def __init__(self, objective: WeightedObjective,
                 compiled: CompiledModel,
                 term_kernels: Sequence[Kernel]):
        super().__init__(objective, compiled)
        self.term_kernels: Tuple[Kernel, ...] = tuple(term_kernels)

    def evaluate(self, assignment: Sequence[int]) -> float:
        objective: WeightedObjective = self.objective
        score = 0.0
        for (term, weight), scale, kernel in zip(
                objective.terms, objective.scales, self.term_kernels,
                strict=True):
            value = kernel.evaluate(assignment) / scale
            if term.direction == MAXIMIZE:
                score += weight * value
            else:
                score -= weight * value
        return score

    def move_delta(self, assignment: Sequence[int], component_index: int,
                   new_host_index: int) -> float:
        objective: WeightedObjective = self.objective
        delta = 0.0
        for (term, weight), scale, kernel in zip(
                objective.terms, objective.scales, self.term_kernels,
                strict=True):
            term_delta = kernel.move_delta(assignment, component_index,
                                           new_host_index) / scale
            if term.direction == MAXIMIZE:
                delta += weight * term_delta
            else:
                delta -= weight * term_delta
        return delta


# ---------------------------------------------------------------------------
# Kernel dispatch
# ---------------------------------------------------------------------------

KernelFactory = Callable[[Objective, CompiledModel], Kernel]


def _weighted_factory(objective: Objective,
                      compiled: CompiledModel) -> Kernel:
    assert isinstance(objective, WeightedObjective)
    return WeightedKernel(objective, compiled,
                          [compile_kernel(term, compiled)
                           for term, __ in objective.terms])


#: Exact-type dispatch: subclasses may override ``evaluate`` arbitrarily,
#: so only the pristine built-in classes route through kernels.
_KERNEL_FACTORIES: Dict[Type[Objective], KernelFactory] = {
    AvailabilityObjective: AvailabilityKernel,
    LatencyObjective: LatencyKernel,
    CommunicationCostObjective: CommunicationCostKernel,
    SecurityObjective: SecurityKernel,
    ThroughputObjective: ThroughputKernel,
    DurabilityObjective: DurabilityKernel,
    WeightedObjective: _weighted_factory,
}


def has_kernel(objective: Objective) -> bool:
    """True when :func:`compile_kernel` serves *objective*.

    Dispatch is on the objective's *exact* type, so subclasses with
    overridden behavior never silently inherit a kernel that ignores their
    overrides; a weighted combination needs a kernel for every term.
    """
    if type(objective) is WeightedObjective:
        return all(has_kernel(term) for term, __ in objective.terms)
    return type(objective) in _KERNEL_FACTORIES


def compile_kernel(objective: Objective,
                   compiled: CompiledModel) -> Optional[Kernel]:
    """A kernel evaluating *objective* over *compiled*, or ``None``.

    ``None`` means the objective has no kernel (see :func:`has_kernel`) and
    callers must use the object path.
    """
    if not has_kernel(objective):
        return None
    return _KERNEL_FACTORIES[type(objective)](objective, compiled)
