"""Geometric phases of photons guided along noncoplanar fibre paths.

The package builds explicit matrix representations of the photon spin
algebra on truncated Fock spaces, turns fibre geometry into spherical
tangent kinematics, and computes geometric phases two independent ways:
closed-form quadrature and direct time-dependent Schrodinger evolution.
"""

from .fock import (
    FockSpace,
    OperatorMatrix,
    StateVector,
    annihilation,
    basis_state,
    build_photon_state,
    build_space,
    circular_operators,
    commutator,
    creation,
    helicity_operator,
    identity,
    polarization_triad,
    s3_split,
    spin_fixed,
    vacuum_state,
)
from .geometry import (
    AngleTrajectory,
    FiberPath,
    TangentTrajectory,
    anholonomy_integral,
    cone_trajectory,
    geodesic_closure,
    helix_cone,
    helix_points,
    load_path_csv,
    motion_identity_residual,
    sampled_path,
    spherical_angles,
    tangent_trajectory,
    trajectory_from_tangents,
    wrap_angle,
)
from .media import (
    DispersionVerdict,
    GyrotropicMedium,
    classify,
    refractive_indices,
)
from .phases import (
    EvolutionResult,
    PhaseBreakdown,
    berry_phase_cyclic,
    closed_form_phase,
    effective_hamiltonian,
    evolution_operator_V,
    evolve_state,
    extract_phases,
    lvn_residual,
    phase_series,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    ConfigError,
    ScenarioConfig,
    evaluate_scenario,
    parse_config,
    run_builtin,
    run_scenario,
    sweep,
)

__version__ = "0.1.0"
