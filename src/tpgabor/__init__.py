"""Gabor frame certification for totally positive windows over rational lattices."""

from .windows import (DecayProfile, Dilated, FiniteProduct, Gaussian,
                      HyperbolicSecant, OneSidedExp, TPWindow, WindowError,
                      tp_samples_matrix, truncation_radius,
                      two_sided_exponential, window_from_config)
from .zak import (ZakError, ZakValue, ZakZero, ZakZeroNotFound, locate_zero,
                  zak, zak_on_half_line, zak_values)
from .lattice import (LatticeError, PerturbationSeq, RationalLattice,
                      as_fraction, choose_M, reduce, select_perturbation)
from .tpmatrix import (AlternatingWitness, InverseDecayFit, MatrixSection,
                       MinorAuditReport, TPMatrixError, alternating_witness,
                       build_G, inverse_decay_profile, tp_minor_audit)
from .pregramian import (FrameDiagnosis, PregramianError, frame_bounds,
                         lower_bound_at_x, pregramian_section,
                         upper_bound_cert)
from .zibulski import (FactorizationReport, InjectivityCertificate, ZZMatrix,
                       ZibulskiError, fourier_factorization_check,
                       injectivity_scan, transfer_frame_bound, zz_matrix)
from .pipeline import PipelineOptions, diagnose, effective_window

__version__ = "0.1.0"

__all__ = [
    "DecayProfile", "Dilated", "FiniteProduct", "Gaussian",
    "HyperbolicSecant", "OneSidedExp", "TPWindow", "WindowError",
    "tp_samples_matrix", "truncation_radius",
    "two_sided_exponential", "window_from_config",
    "ZakError", "ZakValue", "ZakZero", "ZakZeroNotFound", "locate_zero",
    "zak", "zak_on_half_line", "zak_values",
    "LatticeError", "PerturbationSeq", "RationalLattice", "as_fraction",
    "choose_M", "reduce", "select_perturbation",
    "AlternatingWitness", "InverseDecayFit", "MatrixSection",
    "MinorAuditReport", "TPMatrixError", "alternating_witness", "build_G",
    "inverse_decay_profile", "tp_minor_audit",
    "FrameDiagnosis", "PregramianError", "frame_bounds", "lower_bound_at_x",
    "pregramian_section", "upper_bound_cert",
    "FactorizationReport", "InjectivityCertificate", "ZZMatrix",
    "ZibulskiError", "fourier_factorization_check", "injectivity_scan",
    "transfer_frame_bound", "zz_matrix",
    "PipelineOptions", "diagnose", "effective_window",
]
