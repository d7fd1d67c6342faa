"""Density-matrix simulation of single-control-qubit period finding.

Tracks logarithmic negativity across every bipartition and the overall
mixedness at each circuit stage, for pure or mixed work registers,
injected per-qubit noise, and deliberate mixing of the recycled control
qubit.
"""

from .circuit import (
    ComputerState,
    InitialStateKind,
    ShorInstance,
    build_instance,
    controlled_modmult_unitary,
    initial_state,
    measure_control,
    phase_correction_angle,
    reference_distribution,
    reprepare_control,
    run_stage_gates,
)
from .entanglement import average_log_negativity, bipartitions, is_ppt, log_negativity, mixedness
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
from .noise import MEASUREMENT, PAULI, NoiseConfig, dephase_qubit, depolarize_qubit, noise_pass
from .numtheory import (
    convergents,
    coprime_list,
    extract_period,
    multiplicative_order,
    permutation_cycles,
    semiprime_list,
)

__version__ = "0.1.0"

__all__ = [
    "ComputerState",
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
    "bipartitions",
    "build_instance",
    "controlled_modmult_unitary",
    "convergents",
    "coprime_list",
    "dephase_qubit",
    "depolarize_qubit",
    "ensemble_profile",
    "extract_period",
    "find_entanglement_crossing",
    "initial_state",
    "is_ppt",
    "log_negativity",
    "measure_control",
    "mixedness",
    "mix_sweep",
    "monte_carlo_sweep",
    "multiplicative_order",
    "noise_pass",
    "permutation_cycles",
    "phase_correction_angle",
    "random_baseline",
    "reference_distribution",
    "reprepare_control",
    "run_stage_gates",
    "semiprime_list",
    "success_probability_exact",
    "tree_leaf_distribution",
    "tree_profile",
]
