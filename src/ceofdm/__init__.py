"""Constant-envelope OFDM radar waveform synthesis and analysis."""

import os

# OpenBLAS reads this once, when numpy loads, and by default starts a worker
# thread per core that spins before it sleeps.  No command makes a BLAS call
# that gains from a second thread (the only ones left in the package are
# ellipse_contour's 2x2 eigh and the reference sums the tests compare
# against), so one thread saves CPU time.  A value already in the
# environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .closed_form import (AmbiguitySurface, SpectrumSamples, acf_uniform,
                          af_surface, ambiguity, spectrum)
from .eoa import (DegenerateEllipse, EoaParameters, ellipse_contour,
                  ellipse_tilt, eoa_closed_form, h_for_tbp,
                  max_coupling_code, rho_norm_max)
from .gbf import (GbfCoefficients, TruncationFailure, compute_coefficients,
                  resynthesize)
from .oracle import (af_numeric, af_numeric_grid, eoa_numeric, oracle_fs,
                     spectrum_numeric)
from .sidelobes import (MetricSurface, SidelobeReport, metric_surface,
                        sidelobe_report)
from .waveform import (ComplexSymbolVector, NonRealCoefficients, OutOfSupport,
                       PskCode, Undersampled, WaveformSpec, ZeroDcViolation,
                       code_from_symbols, freq_mod_at, load_spec,
                       oversample_floor, phase_at, psk_alphabet,
                       random_psk_code, sample, sample_times, save_spec,
                       wrap_phase)

__version__ = "0.1.0"

__all__ = [
    "AmbiguitySurface", "ComplexSymbolVector", "DegenerateEllipse",
    "EoaParameters", "GbfCoefficients", "MetricSurface",
    "NonRealCoefficients", "OutOfSupport", "PskCode", "SidelobeReport",
    "SpectrumSamples", "TruncationFailure", "Undersampled", "WaveformSpec",
    "ZeroDcViolation", "acf_uniform", "af_numeric", "af_numeric_grid",
    "af_surface", "ambiguity", "code_from_symbols", "compute_coefficients",
    "ellipse_contour", "ellipse_tilt", "eoa_closed_form", "eoa_numeric",
    "freq_mod_at", "h_for_tbp", "load_spec", "max_coupling_code",
    "metric_surface", "oracle_fs", "oversample_floor", "phase_at",
    "psk_alphabet", "random_psk_code", "resynthesize", "rho_norm_max",
    "sample", "sample_times", "save_spec", "sidelobe_report", "spectrum",
    "spectrum_numeric", "wrap_phase",
]
