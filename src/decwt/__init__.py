"""Collisional decoherence of a free particle: exact Gaussian closed forms, a
spectral master-equation solver, a marginal-wavefunction solver with a
logarithmic nonlinearity, and the structural identities tying them together."""

from .fields import ComplexField1D, ComplexField2D
from .gaussian import (
    CubicG,
    GaussianParams,
    build_cubic,
    coherence_exact,
    density_matrix_exact,
    ensemble_width_exact,
    eval_G,
    eval_int_G,
    gamma_exact,
    params_exact,
)
from .gfunc import (
    ConditionalSampler,
    GFunctionTable,
    compute_K,
    compute_g_table,
    gauge_transform,
    sample_phi,
    verify_g_identities,
)
from .lse import epsilon_of, evolve_lse, init_gaussian_a, marginalme_residual
from .marginal_dynamics import (
    GammaModel,
    IntegrationError,
    ParamTrajectory,
    gamma_model_eval,
    integrate_closed_system,
    integrate_prescribed_gamma,
)
from .master_eq import MasterEqStepper, evolve_master_eq, init_gaussian_rho
from .observables import (
    ObservableSample,
    coherence_from_rho,
    ensemble_width_from_a,
    ensemble_width_from_rho,
    purity,
    purity_gaussian,
    qseries_residual,
    trace_of,
)
from .scenario import (
    ConfigBundle,
    ConfigParseError,
    GridSpec1D,
    GridSpec2D,
    InvalidParameterError,
    NumericsSpec,
    Scenario,
    characteristic_time,
    load_scenario,
    preset_bundle,
    save_scenario,
)

__version__ = "0.1.0"
