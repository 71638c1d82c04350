"""References computed apart from framepcm, for checking its outputs.

Nothing here imports framepcm.

Breakpoint-sum oracle for the limiting error
--------------------------------------------
With u = cos t the limit is ``d * c_d * |I|`` where

    I = int_{-1}^{1} Delta(r u) u (1 - u^2)^s du,   s = (d - 3) / 2,

``Delta(t) = t - delta * round(t / delta)`` and
``c_d = Gamma(d/2) / (sqrt(pi) Gamma((d-1)/2))``.  The rounding
``delta * round(r u / delta)`` is a sum of steps of height delta at
``+-u_k``, ``u_k = delta (k + 1/2) / r``, so

    int r u^2 (1-u^2)^s du              = r Gamma(3/2) Gamma(s+1) / Gamma(s+5/2)
    int delta round(r u/delta) u (1-u^2)^s du
        = delta * sum_{k>=0, u_k<1} 2 int_{u_k}^1 u (1-u^2)^s du
        = delta / (s+1) * sum_{k>=0, u_k<1} (1 - u_k^2)^(s+1)

for every d >= 2.  The two terms cancel to relative size R^{-(d+1)/2}
(R = r/delta), so they are evaluated in mpmath with
``30 + (d+1)/2 * log10 R`` digits.  The sum has ~R terms: about 0.3 s at
R = 1e4 on one core.
"""

from __future__ import annotations

import math
from itertools import product

import mpmath as mp
import numpy as np


def _digits(d: int, R: float) -> int:
    return 30 + math.ceil((d + 1) / 2.0 * math.log10(max(R, 10.0)))


def limit_oracle(d: int, r: float, delta: float) -> float:
    """The limiting error d * c_d * |I| from the breakpoint sum."""
    if d < 2 or not (r > 0 and delta > 0):
        raise ValueError("need d >= 2, r > 0 and delta > 0")
    with mp.workdps(_digits(d, r / delta)):
        r_, delta_ = mp.mpf(r), mp.mpf(delta)
        R = r_ / delta_
        s = mp.mpf(d - 3) / 2
        smooth = r_ * mp.gamma(mp.mpf(3) / 2) * mp.gamma(s + 1) / mp.gamma(s + mp.mpf(5) / 2)
        # (1 - u^2)^(s+1) = w^m for odd d and w^m sqrt(w) for even d
        m, half = ((d - 1) // 2, False) if d % 2 else ((d - 2) // 2, True)
        two_R = 2 * R
        steps = mp.mpf(0)
        k = 0
        while True:
            u = (2 * k + 1) / two_R
            if u >= 1:
                break
            w = 1 - u * u
            steps += w ** m * mp.sqrt(w) if half else w ** m
            k += 1
        integral = smooth - delta_ / (s + 1) * steps
        c_d = mp.gamma(mp.mpf(d) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(d - 1) / 2))
        return float(d * c_d * abs(integral))


def limit_d3_closed_form(r: float, delta: float) -> float:
    """d = 3 limit 3 delta |K (v^2/2 - 1/24) + v^3/3| / R^2, K = floor(R + 1/2),
    v = R - K; O(1) in R, so it serves where the breakpoint sum is too long."""
    with mp.workdps(40):
        R = mp.mpf(r) / mp.mpf(delta)
        K = mp.floor(R + mp.mpf(1) / 2)
        v = R - K
        return float(3 * mp.mpf(delta) * abs(K * (v * v / 2 - mp.mpf(1) / 24) + v ** 3 / 3) / R ** 2)


def bessel_j(order: float, x: float) -> float:
    """J_order(x) to 30 digits."""
    with mp.workdps(30):
        return float(mp.besselj(mp.mpf(order), mp.mpf(x)))


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def frame_vectors(kind: str, d: int, N: int, seed: int) -> np.ndarray:
    """The N x d frame that ``framepcm simulate --frame kind`` is documented to use."""
    if kind == "harmonic":
        ang = 2.0 * math.pi * np.arange(N) / N
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if kind == "fibonacci":
        i = np.arange(N, dtype=float)
        z = 1.0 - 2.0 * (i + 0.5) / N
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        s = np.sqrt(1.0 - z * z)
        return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    v = np.random.default_rng(seed).standard_normal((N, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def simulate_reference(kind: str, d: int, N: int, delta: float, r: float, seed: int):
    """(E_N, tightness defect) of ``framepcm simulate`` computed from scratch."""
    v = frame_vectors(kind, d, N, seed)
    u = np.random.default_rng(seed).standard_normal(d)
    x = r * u / np.linalg.norm(u)
    q = delta * np.floor(v @ x / delta + 0.5)
    error = float(np.linalg.norm(x - (d / N) * (q @ v)))
    defect = float(np.linalg.norm((d / N) * v.T @ v - np.eye(d)))
    return error, defect


def _double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def sphere_moment(beta) -> float:
    """Normalized sphere moment prod (b_i - 1)!! / (d (d+2) ... (d + |b| - 2))."""
    if any(b % 2 for b in beta):
        return 0.0
    d, total = len(beta), sum(beta)
    num = math.prod(_double_factorial(b - 1) for b in beta)
    den = math.prod(range(d, d + total - 1, 2))
    return num / den


def equidistribution_reference(vectors: np.ndarray, max_degree: int) -> float:
    """max over 1 <= |beta| <= max_degree of |mean_j e_j^beta - moment(beta)|."""
    d = vectors.shape[1]
    powers = [[vectors[:, i] ** b for b in range(max_degree + 1)] for i in range(d)]
    worst = 0.0
    for beta in product(range(max_degree + 1), repeat=d):
        if not 1 <= sum(beta) <= max_degree:
            continue
        emp = np.prod([powers[i][b] for i, b in enumerate(beta) if b], axis=0)
        worst = max(worst, abs(float(np.mean(emp)) - sphere_moment(beta)))
    return worst
