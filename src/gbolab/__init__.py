"""gbolab: a pseudospectral laboratory for dispersive equations of
Benjamin-Ono type with power nonlinearities."""

from gbolab.spectral import (
    Field,
    SpectralGrid,
    antiderivative,
    apply_multiplier,
    band_projections,
    field_from_coeffs,
    field_from_values,
    fractional_derivative,
    free_evolve,
    hilbert,
    lowpass_P0,
    lp_block,
    make_grid,
    project_half_line,
    spectral_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "SpectralGrid",
    "antiderivative",
    "apply_multiplier",
    "band_projections",
    "field_from_coeffs",
    "field_from_values",
    "fractional_derivative",
    "free_evolve",
    "hilbert",
    "lowpass_P0",
    "lp_block",
    "make_grid",
    "project_half_line",
    "spectral_derivative",
    "__version__",
]
