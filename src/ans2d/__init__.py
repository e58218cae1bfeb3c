"""Pseudospectral simulation and estimate verification for 2D incompressible
flow with horizontal-only viscosity on the periodic square."""

from .basis import max_level
from .det import (
    DetConfig,
    Trajectory,
    energy_certificate,
    eps_sweep,
    h01_certificate,
    mollify,
    run_det,
    uniqueness_experiment,
    weak_form_residual,
)
from .ensemble import EnsembleConfig, EnsembleReport, moment_bound_report, run_ensemble
from .errors import BlowUpError, ConfigError, GateError, SnapshotFormatError
from .noise import (
    ConditionCConstants,
    NoiseModel,
    ScalarRecipe,
    condition_c_bounds,
    condition_c_empirical_check,
    condition_c_gate,
    make_model,
    sample_wiener_increment,
)
from .norms import (
    NormReport,
    check_anisotropic_embedding,
    check_minkowski,
    mixed_norm,
)
from .sde import (
    SdeConfig,
    ito_isometry_audit,
    ou_mode_validation,
    pathwise_uniqueness_experiment,
    run_sde,
    single_mode_noise,
    undamped_mode_validation,
    weighted_h01_series,
)
from .snapshots import read_snapshot, write_snapshot
from .spectral import (
    PhysicalField,
    SpectralField,
    TorusGrid,
    forward_transform,
    leray_project,
    nonlinear_term_oracle,
    random_solenoidal_field,
    shear_field,
    taylor_green,
    zero_mean,
    zeros_spectral,
)

__version__ = "0.1.0"
