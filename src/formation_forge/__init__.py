"""Planar formation graphs: rigidity, dynamics, equilibria, bifurcation.

The package models groups of planar agents that regulate distances to
the co-leaders they observe. It provides the graph and rigidity
machinery, the decentralized gradient flows with their closed-form
Jacobian factorizations, equilibrium censuses with stability verdicts,
transcritical bifurcation analysis along a target-length parameter, and
a scenario-driven command line front end.
"""

import types

from .bifurcation import (
    BranchPoint,
    SotomayorReport,
    TranscriticalReport,
    gauge_slice_z_basis,
    mu_sweep,
    sotomayor_at_witness,
    sotomayor_check,
    transcritical_detect,
)
from .cli import Scenario, load_scenario, main, run_scenario
from .dynamics import (
    BUILTIN_LAW_NAMES,
    ControlLaw,
    CustomLaw,
    Eq1PlainLaw,
    GradientPlainLaw,
    GradientSquaredLaw,
    VectorFieldBundle,
    builtin_law,
    edge_weights,
    eval_F_x,
    eval_F_z,
    jacobian_d,
    jacobian_x,
    jacobian_z,
    reduced_J,
    verify_compatibility,
    weight_slopes,
    zdprime_vectors,
    zprime_vectors,
)
from .equilibria import (
    BENCHMARK_LENGTHS,
    BENCHMARK_SPECTRA,
    CensusReport,
    ConventionCandidate,
    ConventionReport,
    EquilibriumBatch,
    EquilibriumRecord,
    aligned_parameters,
    canonical_gauge,
    census,
    classify_kind,
    gauge_slice_basis,
    identify_convention,
    solve_ancillary_aligned,
)
from .errors import (
    BlowUpError,
    ConfigurationError,
    ConvergenceError,
    DimensionError,
    FormationForgeError,
    FormulaDomainError,
    InconsistentStateError,
    InfeasibleLengthsError,
    ScenarioError,
    UnknownLawError,
)
from .graph import (
    FormationGraph,
    contains_subformation,
    edge_adjacency,
    graph_matrices,
    mixed_adjacency,
    two_cycles,
)
from .numkernel import (
    NewtonResult,
    Spectrum,
    Trajectory,
    eigenvalues,
    fd_jacobian,
    fd_second_directional,
    integrate_ode,
    kron_I2,
    left_nullspace,
    newton_root,
    rank_tol,
    squared_lengths,
)
from .rigidity import (
    Framework,
    SingularLengths,
    TargetLengths,
    edge_block_rows,
    edge_errors,
    edge_vectors,
    edges_aligned,
    in_singular_set,
    length_errors,
    make_singular_lengths,
    planar_cross,
    realize_two_cycles,
    rigidity_matrix,
    singular_witnesses,
    within_design_tol,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules, also globals here, are not listed.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
