"""Constant-envelope OFDM radar waveform synthesis and analysis."""

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
