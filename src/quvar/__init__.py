"""quvar: exact variance envelopes, contractive states, and measurement simulation.

Gaussian moment dynamics for free masses and harmonic oscillators, the
two-sided envelopes their position/momentum variances obey, the extremal
(maximally contractive / maximally expanding) states that saturate them, an
independent grid-wavefunction oracle, and a simulation of a repeated
back-action-evading position measurement protocol.
"""

from .bounds import (
    BoundPair,
    contraction_phase_osc,
    contraction_time_free,
    free_mass_bounds,
    free_mass_lower_alt_forms,
    oscillator_bounds_dimensional,
    oscillator_bounds_p,
    oscillator_bounds_x,
    sql_reference,
)
from .extremal import (
    ExtremalSpec,
    SqueezeParams,
    bogoliubov_eigenvalue,
    complex_width_from_squeeze,
    complex_width_from_variances,
    evolve_squeeze,
    gaussian_from_extremal,
    squeeze_from_complex_width,
    state_from_squeeze,
    variances_from_complex_width,
)
from .gaussian import (
    DimensionlessOscillator,
    FreeMass,
    GaussianState,
    Oscillator,
    PhysConfig,
    StateValidationError,
    SystemModel,
    ValidationReport,
    evolve,
    flow_map,
    validate_state,
    variance_x_closed_form,
)
from .gridsim import (
    AliasingError,
    Grid,
    GridError,
    Moments,
    OracleReport,
    WaveFn,
    joint_moments,
    moments,
    propagate_free,
    propagate_osc_exact,
    quadrature_norm,
    sample_extremal,
    sample_gaussian,
    sample_joint,
    slice_at_y,
    verify_bounds_oracle,
    wavefn_csv,
)
from .ozawa import (
    TRANSFER_KTAU,
    ConfigError,
    OzawaConfig,
    ProtocolTrace,
    RegimeError,
    StepRecord,
    TwoModeGaussian,
    check_regime,
    couple,
    interaction_generator,
    interaction_map,
    meter_marginal,
    read_meter,
    run_protocol,
    symplectic_defect,
    system_marginal,
)

__version__ = "0.1.0"
