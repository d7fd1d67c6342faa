"""Density-matrix simulation of single-control-qubit period finding.

Tracks logarithmic negativity across every bipartition and the overall
mixedness at each circuit stage, for pure or mixed work registers,
injected per-qubit noise, and deliberate mixing of the recycled control
qubit.
"""

from .circuit import InitialStateKind, ShorInstance, build_instance, reference_distribution
from .entanglement import average_log_negativity, mixedness
from .experiments import (
    MixSweepRow,
    StageReport,
    SweepRow,
    TreeResult,
    ensemble_profile,
    find_entanglement_crossing,
    mix_sweep,
    monte_carlo_sweep,
    random_baseline,
    success_probability_exact,
    tree_leaf_distribution,
    tree_profile,
)
from .noise import MEASUREMENT, PAULI, NoiseConfig

__version__ = "0.1.0"

__all__ = [
    "InitialStateKind",
    "MixSweepRow",
    "NoiseConfig",
    "MEASUREMENT",
    "PAULI",
    "ShorInstance",
    "StageReport",
    "SweepRow",
    "TreeResult",
    "average_log_negativity",
    "build_instance",
    "ensemble_profile",
    "find_entanglement_crossing",
    "mixedness",
    "mix_sweep",
    "monte_carlo_sweep",
    "random_baseline",
    "reference_distribution",
    "success_probability_exact",
    "tree_leaf_distribution",
    "tree_profile",
]
