"""Poisson rate coding of pixel intensities into spike trains.

Each pixel drives an independent Bernoulli process whose per-tick firing
probability is linear in the pixel value, reaching ``f_max`` Hertz at full
intensity.  This is the standard discrete-clock realization of a Poisson
process; at the rates used here (``rate * dt`` well below 1) the two are
indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError


@dataclass(frozen=True)
class EncoderParams:
    f_max: float = 128.0
    intensity_max: float = 255.0

    def __post_init__(self) -> None:
        if self.f_max <= 0.0:
            raise ConfigError("f_max", f"must be positive, got {self.f_max}")
        if self.intensity_max <= 0.0:
            raise ConfigError("intensity_max", f"must be positive, got {self.intensity_max}")


def spike_probabilities(image: np.ndarray, params: EncoderParams, dt: float) -> np.ndarray:
    """Exact per-tick spike probability for every pixel, flattened row-major."""
    pixels = np.asarray(image, dtype=np.float64).reshape(-1)
    if pixels.size == 0:
        raise ValueError("image is empty")
    if pixels.min() < 0.0 or pixels.max() > params.intensity_max:
        raise ValueError(
            f"pixel values must lie in [0, {params.intensity_max}], "
            f"got range [{pixels.min()}, {pixels.max()}]"
        )
    p = (pixels / params.intensity_max) * params.f_max * dt / 1000.0
    if p.max() > 1.0:
        raise ValueError(
            f"per-tick spike probability {p.max():.4f} exceeds 1; "
            f"lower f_max ({params.f_max} Hz) or dt ({dt} ms)"
        )
    return p


def encode(
    image: np.ndarray,
    duration: int,
    dt: float,
    rng: np.random.Generator,
    params: EncoderParams = EncoderParams(),
) -> np.ndarray:
    """Draw a boolean spike record of shape ``(duration, n_pixels)``.

    Identical ``rng`` state yields a bit-identical record.
    """
    p = spike_probabilities(image, params, dt)
    return rng.random((int(duration), p.shape[0])) < p
