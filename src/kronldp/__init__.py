"""Rate functions and rare-event tools for Gaussian Kronecker random matrices."""

from .mde import (
    ConvergenceError,
    DomainError,
    MdeSolution,
    NoInverseError,
    SpectralDensity,
    SupportInfo,
    density,
    inverse_neg_stieltjes,
    left_edge,
    log_potential,
    right_edge,
    solve_mde,
    stieltjes_real,
)
from .model import (
    Profile,
    StructureError,
    StructureSet,
    apply_S,
    as_profile,
    make_structure,
    profile_vector,
    rho_profile,
    s_big,
    sample_tilted,
    stream,
    structure_from_dict,
    structure_hash,
    structure_to_dict,
    validate,
)
from .montecarlo import (
    ProfileHistogram,
    TailEstimate,
    TiltCheck,
    block_resolvent_trace,
    empirical_spectrum,
    estimate_record,
    importance_tail,
    profile_histogram,
    simulate_lambda1,
    tail_probability,
    tilted_outlier_check,
    write_jsonl,
)
from .outlier import (
    OutlierSolve,
    TiltSearchError,
    lambda_sym,
    largest_outlier,
    outlier_det,
    tilt_for_target,
)
from .rate import (
    DegenerateModelError,
    OptConfig,
    RateBreakdown,
    RateResult,
    f_value,
    j_value,
    k_value,
    phi_maps,
    rate_breakdown,
    rate_curve,
    rate_function,
    sup_theta,
)

__version__ = "0.9.13"
