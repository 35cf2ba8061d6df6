"""lp norm arithmetic: norms, gradients, dual exponents and geometric constants.

Everything here is a pure function of its inputs.  All vectors are 1-D numpy
arrays (or things convertible to them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormExponent",
    "LemmaConstants",
    "lp_norm",
    "lp_gradient",
    "dual_ball_min_euclidean",
    "norm_equivalence_constant",
]

# Residuals below this are treated as zero; the gradient is undefined there.
ZERO_NORM_TOL = 1e-14


@dataclass(frozen=True)
class NormExponent:
    """A norm exponent p in (1, inf) with its conjugate exponent p_star
    (1/p + 1/p* = 1)."""

    p: float
    p_star: float

    def __init__(self, p: float):
        p = float(p)
        p_star = p / (p - 1.0) if 1.0 < p < math.inf else 1.0
        if not p_star > 1.0:  # also a finite p whose conjugate rounds to 1
            raise ValueError(f"norm exponent must be finite and > 1, with "
                             f"conjugate > 1, got {p!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_star", p_star)


def _as_vector(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("expected a 1-D vector with at least one entry")
    if not np.logical_and.reduce(np.isfinite(z)):
        raise ValueError("vector has non-finite entries")
    return z


def lp_norm(z, ne: NormExponent) -> float:
    """(sum_i |z_i|^p)^(1/p) for a finite vector z."""
    z = _as_vector(z)
    a = np.abs(z)
    m = np.maximum.reduce(a)
    if m == 0.0:
        return 0.0
    # scale by the max entry so intermediate powers stay well-conditioned
    return float(m * np.add.reduce((a / m) ** ne.p) ** (1.0 / ne.p))


def _signed_powers(z: np.ndarray, expo: float) -> np.ndarray:
    """|z_i|^expo * sgn(z_i), with the z_i == 0 branch handled explicitly."""
    out = np.zeros_like(z)
    nz = z != 0.0
    # the exp(expo*log|z|) form is kept for the trace bytes: |z|**expo
    # rounds differently and changes 13 of the 24 acceptance-matrix traces;
    # no 0**negative can arise, since zeros are masked and the caller's
    # expo = p - 1 is positive
    out[nz] = np.sign(z[nz]) * np.exp(expo * np.log(np.abs(z[nz])))
    return out


def lp_gradient(z, ne: NormExponent) -> np.ndarray:
    """Gradient of the lp norm at a nonzero point.

    Component i is |z_i|^(p-1) sgn(z_i) / ||z||_p^(p-1); the result lies on
    the dual unit sphere (its l_{p*} norm is exactly 1 up to rounding).
    Raises ValueError at (numerically) zero points, where the norm is not
    differentiable in a unique direction.
    """
    z = _as_vector(z)
    nrm = lp_norm(z, ne)
    if nrm <= ZERO_NORM_TOL:
        raise ValueError("lp gradient undefined at the origin")
    return _signed_powers(z / nrm, ne.p - 1.0)


def norm_equivalence_constant(ne: NormExponent, q: int) -> float:
    """N_{2,p}: smallest constant with ||x||_2 <= N_{2,p} ||x||_p on R^q."""
    if q < 1:
        raise ValueError("dimension must be >= 1")
    if ne.p >= 2.0:
        return float(q) ** (0.5 - 1.0 / ne.p)
    return 1.0


def dual_ball_min_euclidean(ne: NormExponent, q: int) -> float:
    """Minimum Euclidean norm over the unit sphere of the dual norm l_{p*}.

    Attained at a coordinate vector when p* >= 2 (value 1) and at the uniform
    vector when p* <= 2 (value q^(1/2 - 1/p*)).
    """
    if q < 2:
        raise ValueError("dimension must be >= 2")
    return min(1.0, float(q) ** (0.5 - 1.0 / ne.p_star))


@dataclass(frozen=True)
class LemmaConstants:
    """Closed-form constants used by the trace verifiers in a given dimension.

    eta is the deviation-vector offset parameter; the verified inequalities
    hold for any finite eta > 0, so it is a free configuration knob here.
    """

    q: int
    N2p: float
    C_pq: float
    c_pq: float
    C2: float
    C3: float
    eta: float

    @classmethod
    def for_exponent(cls, ne: NormExponent, q: int, eta: float = 0.1) -> "LemmaConstants":
        if q < 2:
            raise ValueError("dimension must be >= 2")
        if not 0.0 < eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {eta!r}")
        n2p = norm_equivalence_constant(ne, q)
        c_pq = dual_ball_min_euclidean(ne, q)
        return cls(
            q=q,
            N2p=n2p,
            C_pq=n2p**2 / 2.0,
            c_pq=c_pq,
            C2=math.sqrt(2.0) * c_pq / n2p,
            C3=math.sqrt(2.0) / n2p,
            eta=eta,
        )
