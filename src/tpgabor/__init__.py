"""Gabor frame certification for totally positive windows over rational lattices."""

from .windows import (Dilated, FiniteProduct, Gaussian, HyperbolicSecant,
                      OneSidedExp, TPWindow, two_sided_exponential,
                      window_from_config)
from .zak import ZakZeroNotFound, locate_zero
from .lattice import choose_M, reduce, select_perturbation
from .pipeline import diagnose, effective_window

__version__ = "0.1.0"

__all__ = [
    "Dilated", "FiniteProduct", "Gaussian", "HyperbolicSecant", "OneSidedExp",
    "TPWindow", "two_sided_exponential", "window_from_config",
    "ZakZeroNotFound", "locate_zero",
    "choose_M", "reduce", "select_perturbation",
    "diagnose", "effective_window",
]
