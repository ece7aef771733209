"""Bi-objective optimization core (paper Section IV).

From-scratch implementation of the paper's adapted NSGA-II: solution
dominance for (minimize energy, maximize utility), fast nondominated
sorting, crowding distance, the gene/chromosome encoding of Section
IV-D, the range-swap crossover and machine/order mutation operators,
elitist generational loop (Algorithm 1), seeded initial populations,
and an all-time external Pareto archive.
"""

from repro.core.algorithm import (
    Algorithm,
    AlgorithmConfig,
    EvolutionaryAlgorithm,
    GenerationSnapshot,
    RunHistory,
)
from repro.core.archive import EpsilonParetoArchive, ParetoArchive
from repro.core.checkpoint import (
    CheckpointStore,
    EngineState,
    capture_state,
    restore_state,
)
from repro.core.chromosome import Chromosome, Gene
from repro.core.crowding import crowding_by_front, crowding_distance
from repro.core.dominance import (
    dominates,
    nondominated_mask,
    pareto_filter,
)
from repro.core.moead import MOEAD
from repro.core.nsga2 import NSGA2, EpsilonArchiveNSGA2
from repro.core.objectives import BiObjectiveSpace, ObjectiveSense
from repro.core.operators import OperatorConfig, VariationOperators
from repro.core.population import Population
from repro.core.registry import (
    ALGORITHMS,
    available_algorithms,
    make_algorithm,
)
from repro.core.seeding import seeded_initial_population
from repro.core.spea2 import SPEA2, spea2_fitness
from repro.core.sorting import domination_count_ranks, fast_nondominated_sort
from repro.core.telemetry import (
    GenerationStats,
    StageTimings,
    TelemetryRecorder,
    compose,
)
from repro.core.termination import (
    AnyOf,
    HypervolumeStagnation,
    MaxEvaluations,
    MaxGenerations,
    MaxWallClock,
    TerminationCriterion,
)

__all__ = [
    "ObjectiveSense",
    "BiObjectiveSpace",
    "dominates",
    "nondominated_mask",
    "pareto_filter",
    "fast_nondominated_sort",
    "domination_count_ranks",
    "crowding_distance",
    "crowding_by_front",
    "Gene",
    "Chromosome",
    "Population",
    "OperatorConfig",
    "VariationOperators",
    "Algorithm",
    "AlgorithmConfig",
    "EvolutionaryAlgorithm",
    "NSGA2",
    "SPEA2",
    "spea2_fitness",
    "MOEAD",
    "EpsilonArchiveNSGA2",
    "ALGORITHMS",
    "available_algorithms",
    "make_algorithm",
    "GenerationSnapshot",
    "RunHistory",
    "ParetoArchive",
    "EpsilonParetoArchive",
    "CheckpointStore",
    "EngineState",
    "capture_state",
    "restore_state",
    "seeded_initial_population",
    "TerminationCriterion",
    "MaxGenerations",
    "MaxEvaluations",
    "MaxWallClock",
    "HypervolumeStagnation",
    "AnyOf",
    "TelemetryRecorder",
    "GenerationStats",
    "StageTimings",
    "compose",
]
