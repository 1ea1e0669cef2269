"""Layer-adapted meshes and uniformly convergent discretizations for
singularly perturbed two-point boundary value problems."""

from .harness import (
    MESH_TAGS,
    MESHES,
    PROBLEMS,
    STUDIES,
    ConvergenceReport,
    ErrorRecord,
    StudyConfig,
    corrected_rate,
    max_norm_error,
    mesh_family,
    problem_family,
    raw_rate,
    report_emit,
    report_from_json,
    run_study,
    sweep,
)
from .meshes import (
    LayerSpec,
    Mesh1D,
    MeshDiagnostics,
    bakhvalov_original,
    bakhvalov_shishkin,
    bakhvalov_type,
    diagnostics,
    equidistribute,
    mirror,
    system_shishkin,
    uniform_mesh,
)
from .problems import (
    Coefficient,
    ReferenceSolution,
    SystemProblem,
    builtin_reaction_diffusion_system,
    builtin_scalar_cd,
    builtin_strongly_coupled_example,
    builtin_strongly_coupled_variable,
    builtin_weakly_coupled_cd,
    check_gamma,
    check_upsilon,
    coefficient,
    default_envelope,
    envelope_check,
    oracle_reference,
    problem_from_dict,
    stability_report,
)
from .schemes import (
    SCHEME_TAGS,
    DiscreteOperator,
    DiscreteSolution,
    assemble,
    discrete_solve,
    energy_norm,
    energy_norm_error,
    solve,
    solve_many,
)

__version__ = "0.1.0"
