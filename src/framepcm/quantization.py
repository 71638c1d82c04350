"""PCM quantization of frame coefficients and linear reconstruction.

The scalar quantizer maps a coefficient to the nearest point of the
alphabet ``delta * Z``,

    Q(t) = delta * floor(t/delta + 1/2),

with ties at half-grid points resolved upward by the floor.  The signed
per-coefficient error ``t - Q(t)`` is a delta-periodic sawtooth with range
``[-delta/2, delta/2)``.  Quantizing every frame coefficient and
reconstructing linearly gives the reconstruction error studied by the rest
of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantScheme",
    "SignalSpec",
    "pcm_quantize",
    "quant_error",
    "quantize_and_reconstruct",
    "wnh_mse",
]


@dataclass(frozen=True)
class QuantScheme:
    """PCM alphabet ``delta * Z`` with step ``delta > 0``."""

    delta: float

    def __post_init__(self):
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


@dataclass(frozen=True, eq=False)
class SignalSpec:
    """A signal paired with the quantities the error analysis runs on.

    ``r`` is the Euclidean norm, ``R = r/delta`` the norm in alphabet
    steps, and ``eps = fmod(r, delta)/delta`` its fractional part in
    ``[0, 1)``, rounded once.
    """

    x: np.ndarray
    r: float
    R: float
    eps: float

    @classmethod
    def from_vector(cls, x, scheme: QuantScheme) -> "SignalSpec":
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError("signal must be a 1-D vector")
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise ValueError("signal entries must be finite, got "
                             + ", ".join(f"x[{i}] = {x[i]}" for i in bad[:8]))
        with np.errstate(over="ignore"):
            r = float(np.linalg.norm(x))
        R = r / scheme.delta
        if not math.isfinite(R):
            raise ValueError(f"signal norm / delta overflows ({r} / {scheme.delta})")
        # frac(r/delta) = fmod(r, delta)/delta with one rounding: fmod is exact,
        # where R - floor(R) carries the rounding of R (up to ulp(R)/2)
        return cls(x=x, r=r, R=R, eps=math.fmod(r, scheme.delta) / scheme.delta)

    @property
    def dim(self) -> int:
        return self.x.shape[0]


def pcm_quantize(t, scheme: QuantScheme):
    """Round ``t`` to the nearest alphabet point ``delta * floor(t/delta + 1/2)``.

    Works elementwise on arrays.  Half-grid points round up, e.g.
    ``pcm_quantize(0.5, QuantScheme(1.0)) == 1.0``.
    """
    d = scheme.delta
    if np.isscalar(t):
        return d * math.floor(t / d + 0.5)
    t = np.asarray(t, dtype=float)
    return d * np.floor(t / d + 0.5)


def quant_error(t, scheme: QuantScheme):
    """Signed quantization error ``t - pcm_quantize(t)``.

    Delta-periodic sawtooth with range ``[-delta/2, delta/2)``; at ties the
    upward rounding makes the value ``-delta/2``.
    """
    q = pcm_quantize(t, scheme)
    return t - q


def quantize_and_reconstruct(x, frame, scheme: QuantScheme):
    """Quantize the frame coefficients of ``x`` and reconstruct linearly.

    Parameters
    ----------
    x : SignalSpec or array_like
        Signal in R^d.
    frame : UnitNormFrame
        Frame whose dimension matches the signal.
    scheme : QuantScheme
        PCM alphabet.

    Returns
    -------
    reconstruction : ndarray
        ``(d/N) * sum_j Q(<x, e_j>) e_j``.
    error : float
        Euclidean norm ``||x - reconstruction||``.
    """
    vec = x.x if isinstance(x, SignalSpec) else np.asarray(x, dtype=float)
    if vec.shape != (frame.dim,):
        raise ValueError(f"signal dimension {vec.shape} does not match frame dim {frame.dim}")
    coeffs = frame.vectors @ vec
    q = pcm_quantize(coeffs, scheme)
    reconstruction = (frame.dim / frame.count) * (q @ frame.vectors)
    error = float(np.linalg.norm(vec - reconstruction))
    return reconstruction, error


def wnh_mse(d: int, N: int, scheme: QuantScheme) -> float:
    """Mean-square reconstruction error ``d^2 delta^2 / (12 N)`` predicted
    when the coefficient errors are modeled as i.i.d. uniform noise on
    ``(-delta/2, delta/2)``.
    """
    if d < 1 or N < 1:
        raise ValueError("d and N must be positive integers")
    return d * d * scheme.delta ** 2 / (12.0 * N)
