"""Numerical experiments: smoothing-estimate ratios and the high-frequency
ill-posedness pipeline, and the record types they return."""

from .illposed import (
    FrequencyProfile,
    IllposedParams,
    QuadratureError,
    hN_sobolev_norm,
    illposed_growth_fit,
    illposed_v_details,
    kernel_bracket_4n,
    oracle_agreement,
    torus_duhamel_oracle,
)
from .linear_ratios import (
    ESTIMATES,
    estimate_ladder,
    estimate_ratio,
    free_evolution_spacetime,
    ladder_drift,
    plane_wave_growth_exponent,
)
from .packets import embed_field, make_packet_ensemble, plane_wave
from .reporting import ExperimentReport

__all__ = [
    "ESTIMATES",
    "ExperimentReport",
    "FrequencyProfile",
    "IllposedParams",
    "QuadratureError",
    "embed_field",
    "estimate_ladder",
    "estimate_ratio",
    "free_evolution_spacetime",
    "hN_sobolev_norm",
    "illposed_growth_fit",
    "illposed_v_details",
    "kernel_bracket_4n",
    "ladder_drift",
    "make_packet_ensemble",
    "oracle_agreement",
    "plane_wave",
    "plane_wave_growth_exponent",
    "torus_duhamel_oracle",
]
