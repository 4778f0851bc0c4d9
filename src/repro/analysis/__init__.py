"""Loss-landscape diagnostics: the local Lipschitz analysis of Section 4."""

from repro.analysis.lipschitz import (
    lipschitz_estimate,
    lipschitz_trace,
    peak_iteration,
)
from repro.analysis.noise_scale import NoiseScaleEstimate, estimate_noise_scale

__all__ = [
    "lipschitz_estimate",
    "lipschitz_trace",
    "peak_iteration",
    "NoiseScaleEstimate",
    "estimate_noise_scale",
]
