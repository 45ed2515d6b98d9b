"""Optimal sampling-direction design and sparse reconstruction of spherical
signals under empirical Gaussian-process priors."""

from .config import SimConfig, load_sim_config
from .design import (
    BoundCertificate,
    CandidateSet,
    Design,
    block_inverse_update,
    coulomb_energy,
    default_candidates,
    design_objective,
    esr_design,
    gradient_table,
    greedy_bound,
    greedy_design,
    greedy_design_region,
    region_bound,
)
from .errors import DegeneracyError, QsdesignError, ValidationError
from .estimator import (
    conditional_fit,
    conditional_fit_batch,
    conditional_scores,
    gcv_select,
    gcv_select_batch,
    shls_fit,
)
from .metrics import (
    PeakSet,
    angular_error,
    false_peak_fraction,
    find_peaks,
    find_peaks_batch,
    integrated_squared_error,
    peak_angle_degrees,
)
from .prior import (
    PriorField,
    RankRule,
    VoxelPrior,
    empirical_moments,
    interpolate_prior,
    load_prior_field,
    log_euclidean_mean,
    save_prior_field,
    spd_exp,
    spd_log,
    truncate_rank,
)
from .runner import ExperimentResult, run_simulation, write_outputs
from .sim import (
    GenerativeConfig,
    GroundTruth,
    VmfComponent,
    generate_cohort,
    generate_fodf,
    observe,
    observe_batch,
    sample_vmf,
)
from .sphere import (
    ShBasis,
    SphericalGrid,
    funk_radon,
    inverse_funk_radon,
    laplace_beltrami_penalty,
    legendre_at_zero,
    make_grid,
)

__version__ = "0.1.0"
