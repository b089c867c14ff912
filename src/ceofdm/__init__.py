"""Constant-envelope OFDM radar waveform synthesis and analysis."""

import os

# OpenBLAS reads this once, when numpy loads, and by default starts a worker
# thread per core that spins before it sleeps.  No command makes a BLAS call
# that gains from a second thread (the only one left in the package is the
# matrix product in oracle._dft, the direct Fourier sum behind
# spectrum_numeric), so one thread saves CPU time.
# A value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .closed_form import acf_uniform, af_surface, ambiguity, spectrum
from .eoa import (DegenerateEllipse, ellipse_contour, ellipse_tilt,
                  eoa_closed_form, h_for_tbp, max_coupling_code, rho_norm_max)
from .gbf import TruncationFailure, compute_coefficients
from .oracle import (acf_numeric, af_numeric_grid, eoa_numeric, oracle_fs,
                     spectrum_numeric)
from .sidelobes import metric_surface
from .waveform import (ComplexSymbolVector, NonRealCoefficients, OutOfSupport,
                       PskCode, Undersampled, WaveformSpec, ZeroDcViolation,
                       code_from_symbols, freq_mod_at, load_spec,
                       oversample_floor, phase_at, psk_alphabet,
                       random_psk_code, sample, save_spec, wrap_phase)

__version__ = "0.1.0"

__all__ = [
    "ComplexSymbolVector", "DegenerateEllipse", "NonRealCoefficients",
    "OutOfSupport", "PskCode", "TruncationFailure", "Undersampled",
    "WaveformSpec", "ZeroDcViolation",
    "acf_numeric", "acf_uniform", "af_numeric_grid", "af_surface", "ambiguity",
    "code_from_symbols", "compute_coefficients", "ellipse_contour",
    "ellipse_tilt", "eoa_closed_form", "eoa_numeric", "freq_mod_at",
    "h_for_tbp", "load_spec", "max_coupling_code", "metric_surface",
    "oracle_fs", "oversample_floor", "phase_at", "psk_alphabet",
    "random_psk_code", "rho_norm_max", "sample", "save_spec", "spectrum",
    "spectrum_numeric", "wrap_phase",
]
