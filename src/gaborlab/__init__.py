"""Numerical laboratory for sampled Gabor phase retrieval.

Constructs the counterexample signal families (pairs that disagree up to
global phase while their spectrogram magnitudes agree on a line lattice),
verifies the agreement and non-equivalence exactly and numerically, and
quantifies local stability through weighted Poincare constants, Laplacian
spectra, instability profiles, and Cheeger cut bounds.

Importing the package loads no submodule and not numpy: each exported name
imports its module on first access (PEP 562), so a process loads only the
modules whose names it reads.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "cheeger": ("CheegerReport", "Cut", "InadmissibleCutError", "cheeger_upper_bound",
                "circle_cut_family", "cut_ratio", "dumbbell_weight", "vertical_cut_family"),
    "counterexamples": ("AgreementReport", "CounterexamplePair", "Lattice",
                        "LatticeMismatchError", "gamma_threshold", "make_fpm", "make_gpm",
                        "make_hpm", "pair_magnitude", "root_set_pair", "tilt_magnitude",
                        "verify_pair"),
    "gabor": ("gabor_eval", "gabor_evals", "gabor_field", "gabor_fields",
              "gabor_magnitude_field"),
    "grid": ("ComplexField", "MagnitudeField", "TFGrid", "disk_mask"),
    "norms": ("ProbeReport", "global_phase_distance", "measurement_norm_D",
              "stability_probe"),
    "signals": ("GaussianAtom", "GaussianSum", "gaussian", "signal_norm",
                "signal_phase_distance"),
    "spectral": ("RefinementReport", "SolverConvergenceError", "SpectralDecomposition",
                 "VariationReport", "WeightedDomain", "assemble_operators",
                 "build_weighted_domain", "poincare_estimate", "refinement_check",
                 "solve_spectrum", "variation_bound_check", "weighted_domain_from_values"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    # bound here, so that later reads skip this hook
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
