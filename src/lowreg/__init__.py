"""Fourier pseudospectral testbed for two low-regularity time integrators.

Subpackages by layer: ``torus_spectral`` (grids, fields, transforms, seeded
rough data), ``nls_integrators`` (exponential-type scheme for the cubic
Schrödinger equation), ``wave_integrators`` (corrected Lie splitting for the
semilinear wave equation), ``diagnostics`` (space-time functionals and
local-error integral oracles), ``study_cli`` (convergence-study driver and
command line).
"""

# Defined before the submodule imports: reports echo it.
__version__ = "0.1.0"

from .diagnostics import (
    Trajectory,
    dalembert_split,
    nls_local_error_oracle,
    null_form_field,
    nullform_norm,
    read_trajectory,
    strichartz_l4,
    trajectory_of,
    wave_local_error_oracle,
    write_trajectory,
)
from .nls_integrators import (
    NlsProblem,
    NlsStepperKind,
    free_flow,
    lie_step_nls,
    lri_step,
    nls_reference_solve,
    phi1_apply,
    phi1_of_ix,
    run_nls,
)
from .study_cli import (
    ConfigError,
    ConvergenceReport,
    StudyConfig,
    ValidationError,
    cross_validate_reference,
    emit_report,
    fit_rate,
    main,
    report_from_json,
    run_convergence_study,
)
from .torus_spectral import (
    BlowUpError,
    RoughDataSpec,
    SpectralField,
    TorusGrid,
    WaveState,
    dealiased_product,
    derivative,
    field_like,
    from_physical,
    hermitian_defect,
    hermitian_part,
    lebesgue_norm,
    random_rough_field,
    read_field,
    read_wave_state,
    regrid,
    sobolev_norm,
    spacetime_norm,
    to_physical,
    translate,
    write_field,
    write_wave_state,
    zero_field,
)
from .wave_integrators import (
    Nonlinearity,
    WaveProblem,
    a_apply,
    b_map,
    corrected_lie_step,
    g_map,
    h_map,
    lie_step_wave,
    phi2_apply,
    phi2_entry_q,
    phi2_entry_r,
    run_wave,
    wave_flow,
    wave_reference_solve,
    wave_state_norm,
)
