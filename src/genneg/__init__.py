"""Genuine multiparticle negativity of 2-4 qubit states under local decoherence.

The package quantifies genuine multiparticle entanglement through the
PPT-mixture semidefinite program, evolves states under amplitude damping,
phase damping and depolarizing noise, and runs the robustness analysis
(logarithmic decay rate of the monotone) for named, Haar-random and weighted
graph states.
"""

from . import _kernels  # noqa: F401  unused here; perfbench's host record reads skron_into
from .analysis import (EnsembleSummary, GeneratorKind, RobustnessReport,
                       SweepSeries, default_grid, ensemble_study,
                       log_derivative, robustness_report, sweep)
from .channels import (ChannelKind, KrausSet, apply_local_channel,
                       evolved_single_qubit_oracle, single_qubit_kraus)
from .gmn import (Bipartition, GmnResult, bipartite_negativity, bipartitions,
                  build_program, genuine_negativity, verify_certificate)
from .linalg import eig_hermitian, partial_transpose, tensor_product
from .sdp import SdpOptions, SdpProblem, SdpSolution, SdpStatus, solve
from .states import (NAMED_STATE_NAMES, WeightedGraph, haar_random_state,
                     named_state, random_weighted_graph, to_density,
                     weighted_graph_state)

__version__ = "0.1.0"

__all__ = [
    "Bipartition", "ChannelKind", "EnsembleSummary", "GeneratorKind",
    "GmnResult", "KrausSet", "NAMED_STATE_NAMES", "RobustnessReport",
    "SdpOptions", "SdpProblem", "SdpSolution", "SdpStatus", "SweepSeries",
    "WeightedGraph", "apply_local_channel", "bipartite_negativity",
    "bipartitions", "build_program", "default_grid", "eig_hermitian",
    "ensemble_study", "evolved_single_qubit_oracle", "genuine_negativity",
    "haar_random_state", "log_derivative", "named_state", "partial_transpose",
    "random_weighted_graph", "robustness_report",
    "single_qubit_kraus", "solve", "sweep", "tensor_product", "to_density",
    "verify_certificate", "weighted_graph_state",
]
