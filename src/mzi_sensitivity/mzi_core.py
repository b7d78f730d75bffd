"""Interferometer transfer algebra.

Both beam splitters are symmetric and lossless, parametrized by mixing
angles: the amplitude transmission/reflection coefficients are
``T = cos(theta/2)`` and ``R = i sin(theta/2)``, so the intensity
transmittance is ``tau = cos^2(theta/2)``.  Mode indices follow the input
ports: slot 0 enters beam splitter 1 as port 0, becomes internal mode 2,
and exits beam splitter 2 as output mode 4; slot 1 is the 1 -> 3 -> 5 chain.
Internal phase shifts phi1 (mode 2) and phi2 (mode 3) sit between the two
beam splitters.

``a_coefficients`` gives the full 2x2 input-output field map; the real
``k_coefficients`` capture the bilinear combinations that drive intensity
observables.  ``internal_mode_moments`` rotates the input Schwinger vector
through the first beam splitter, which on (Jx, Jy, Jz) acts as a rotation
about the x axis.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .states import SchwingerMoments

__all__ = [
    "BsAngles",
    "Convention",
    "PhaseConfig",
    "KCoefficients",
    "ACoefficients",
    "angles_from_transmittances",
    "a_coefficients",
    "k_coefficients",
    "internal_mode_moments",
]


@dataclass(frozen=True)
class BsAngles:
    """Mixing angles of the two beam splitters, both in [0, pi]."""

    theta: float
    theta_prime: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.theta_prime <= math.pi:
            raise ValueError("theta_prime must lie in [0, pi]")

    @property
    def tau1(self) -> float:
        """Intensity transmittance of the first beam splitter."""
        return math.cos(0.5 * self.theta) ** 2

    @property
    def tau2(self) -> float:
        """Intensity transmittance of the second beam splitter."""
        return math.cos(0.5 * self.theta_prime) ** 2


def angles_from_transmittances(tau1: float, tau2: float) -> BsAngles:
    """Build angles from intensity transmittances in [0, 1]."""
    for name, tau in (("tau1", tau1), ("tau2", tau2)):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"{name} transmittance out of [0,1]")
    return BsAngles(
        theta=2.0 * math.acos(math.sqrt(tau1)),
        theta_prime=2.0 * math.acos(math.sqrt(tau2)),
    )


class Convention(Enum):
    """Internal phase-shift bookkeeping.

    Without an external phase reference only the difference
    ``phi = phi2 - phi1`` is physical.  With an external reference the
    single-shift convention ``phi1 = 0, phi2 = phi`` is used.
    """

    NO_EXTERNAL_REFERENCE = "none"
    EXTERNAL_REFERENCE = "external"


@dataclass(frozen=True)
class PhaseConfig:
    convention: Convention
    phi: float
    phi_local: float = 0.0  # local-oscillator phase, homodyne only

    @property
    def phi1(self) -> float:
        return 0.0

    @property
    def phi2(self) -> float:
        return self.phi


@dataclass(frozen=True)
class KCoefficients:
    kx: float
    ky: float
    kz: float


@dataclass(frozen=True)
class ACoefficients:
    a40: complex
    a41: complex
    a50: complex
    a51: complex


def a_coefficients(angles: BsAngles, phi1: float, phi2: float) -> ACoefficients:
    """Field transfer coefficients a_out = A . a_in for both outputs."""
    t = math.cos(0.5 * angles.theta)
    r = 1j * math.sin(0.5 * angles.theta)
    tp = math.cos(0.5 * angles.theta_prime)
    rp = 1j * math.sin(0.5 * angles.theta_prime)
    e1 = cmath.exp(-1j * phi1)
    e2 = cmath.exp(-1j * phi2)
    return ACoefficients(
        a40=t * tp * e1 + r * rp * e2,
        a41=t * rp * e2 + r * tp * e1,
        a50=t * rp * e1 + r * tp * e2,
        a51=t * tp * e2 + r * rp * e1,
    )


def k_coefficients(angles: BsAngles, phi: float) -> KCoefficients:
    """Real bilinear transfer coefficients; kx^2 + ky^2 + kz^2 = 1."""
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    stp, ctp = math.sin(angles.theta_prime), math.cos(angles.theta_prime)
    sp, cp = math.sin(phi), math.cos(phi)
    return KCoefficients(
        kx=stp * sp,
        ky=-(st * ctp + ct * stp * cp),
        kz=ct * ctp - st * stp * cp,
    )


def internal_mode_moments(m: SchwingerMoments, theta: float) -> SchwingerMoments:
    """Moments of the Schwinger vector after the first beam splitter.

    The beam splitter rotates (Jx, Jy, Jz) about the x axis by ``theta``:
    Jy -> cos(theta) Jy + sin(theta) Jz and Jz -> cos(theta) Jz -
    sin(theta) Jy, with Jx, N and their variances unchanged.  The rotated
    Jz equals (n2 - n3)/2 of the internal modes.
    """
    c, s = math.cos(theta), math.sin(theta)
    return SchwingerMoments(
        mean_jx=m.mean_jx,
        mean_jy=c * m.mean_jy + s * m.mean_jz,
        mean_jz=-s * m.mean_jy + c * m.mean_jz,
        mean_n=m.mean_n,
        var_jx=m.var_jx,
        var_jy=c * c * m.var_jy + s * s * m.var_jz + 2.0 * s * c * m.symcov_yz,
        var_jz=s * s * m.var_jy + c * c * m.var_jz - 2.0 * s * c * m.symcov_yz,
        var_n=m.var_n,
        symcov_xy=c * m.symcov_xy + s * m.symcov_xz,
        symcov_xz=-s * m.symcov_xy + c * m.symcov_xz,
        symcov_yz=s * c * (m.var_jz - m.var_jy) + (c * c - s * s) * m.symcov_yz,
        cov_jx_n=m.cov_jx_n,
        cov_jy_n=c * m.cov_jy_n + s * m.cov_jz_n,
        cov_jz_n=-s * m.cov_jy_n + c * m.cov_jz_n,
    )
