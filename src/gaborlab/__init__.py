"""Numerical laboratory for sampled Gabor phase retrieval.

Constructs the counterexample signal families (pairs that disagree up to
global phase while their spectrogram magnitudes agree on a line lattice),
verifies the agreement and non-equivalence exactly and numerically, and
quantifies local stability through weighted Poincare constants, Laplacian
spectra, instability profiles, and Cheeger cut bounds.
"""

# set before the submodule imports, which read it
__version__ = "0.1.0"

from .cheeger import (
    CheegerReport,
    Cut,
    InadmissibleCutError,
    cheeger_upper_bound,
    circle_cut_family,
    cut_ratio,
    dumbbell_weight,
    vertical_cut_family,
)
from .counterexamples import (
    AgreementReport,
    CounterexamplePair,
    Lattice,
    LatticeMismatchError,
    fpm_magnitude_closed,
    gamma_threshold,
    make_fpm,
    make_gpm,
    make_hpm,
    pair_magnitude,
    root_set_fpm,
    root_set_pair,
    tilt_magnitude,
    verify_pair,
)
from .gabor import (
    bargmann_cs_derivative,
    bargmann_derivative,
    bargmann_eval,
    bargmann_modulus,
    gabor_eval,
    gabor_evals,
    gabor_field,
    gabor_fields,
    gabor_magnitude_field,
    gabor_quadrature_oracle,
)
from .grid import ComplexField, MagnitudeField, TFGrid, disk_mask
from .norms import (
    ProbeReport,
    global_phase_distance,
    lp_field_norm,
    measurement_norm_D,
    stability_probe,
)
from .signals import (
    GaussianAtom,
    GaussianSum,
    gaussian,
    signal_inner,
    signal_norm,
    signal_phase_distance,
)
from .spectral import (
    CRGradientReport,
    RefinementReport,
    SolverConvergenceError,
    SpectralDecomposition,
    VariationReport,
    WeightedDomain,
    assemble_operators,
    build_weighted_domain,
    cr_gradient_check,
    poincare_estimate,
    rayleigh,
    refinement_check,
    solve_spectrum,
    variation_bound_check,
    weighted_domain_from_values,
)
