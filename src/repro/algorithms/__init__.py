"""Redeployment algorithms (the paper's pluggable Algorithm component).

Paper algorithms: :class:`ExactAlgorithm`, :class:`StochasticAlgorithm`,
:class:`AvalaAlgorithm` (centralized, Section 5.1) and
:class:`DecApAlgorithm` (decentralized, Section 5.2).

Related-work baselines: :class:`BIPAlgorithm` (I5) and
:class:`MinCutAlgorithm` (Coign).

Framework-extension main bodies: :class:`HillClimbingAlgorithm`,
:class:`SimulatedAnnealingAlgorithm`, :class:`GeneticAlgorithm`.

Evaluation plumbing: :class:`EvaluationEngine` (memoized + incremental
objective evaluation with budgets) and :class:`PortfolioRunner` (concurrent
execution of an algorithm portfolio) in :mod:`repro.algorithms.engine`;
:class:`CompiledModel`/:class:`CompiledDeployment` and the per-objective
evaluation kernels in :mod:`repro.algorithms.compiled`.
"""

from repro.algorithms.annealing import SimulatedAnnealingAlgorithm
from repro.algorithms.avala import AvalaAlgorithm
from repro.algorithms.base import (
    AlgorithmResult, DeploymentAlgorithm, greedy_fill_deployment,
    random_valid_deployment,
)
from repro.algorithms.bip import BIPAlgorithm
from repro.algorithms.compiled import (
    CompiledDeployment, CompiledModel, Kernel, compile_kernel, compiled_model,
)
from repro.algorithms.decap import (
    AwarenessMap, DecApAlgorithm, connectivity_awareness,
)
from repro.algorithms.engine import (
    DeploymentCache, EvaluationEngine, EvaluationStats, PortfolioOutcome,
    PortfolioReport, PortfolioRunner, run_portfolio,
)
from repro.algorithms.exact import ExactAlgorithm
from repro.algorithms.genetic import GeneticAlgorithm
from repro.algorithms.hillclimb import HillClimbingAlgorithm
from repro.algorithms.mincut import MinCutAlgorithm
from repro.algorithms.search import (
    CompiledConstraintChecker, ObjectConstraintChecker, SearchState,
    make_checker,
)
from repro.algorithms.stochastic import StochasticAlgorithm
from repro.algorithms.swapsearch import SwapSearchAlgorithm

__all__ = [
    "AlgorithmResult",
    "AwarenessMap",
    "AvalaAlgorithm",
    "BIPAlgorithm",
    "CompiledConstraintChecker",
    "CompiledDeployment",
    "CompiledModel",
    "DecApAlgorithm",
    "DeploymentAlgorithm",
    "DeploymentCache",
    "EvaluationEngine",
    "EvaluationStats",
    "ExactAlgorithm",
    "GeneticAlgorithm",
    "HillClimbingAlgorithm",
    "Kernel",
    "MinCutAlgorithm",
    "ObjectConstraintChecker",
    "PortfolioOutcome",
    "PortfolioReport",
    "PortfolioRunner",
    "SearchState",
    "SimulatedAnnealingAlgorithm",
    "StochasticAlgorithm",
    "SwapSearchAlgorithm",
    "compile_kernel",
    "compiled_model",
    "connectivity_awareness",
    "greedy_fill_deployment",
    "make_checker",
    "random_valid_deployment",
    "run_portfolio",
]
