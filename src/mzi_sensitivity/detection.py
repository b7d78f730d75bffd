"""Phase sensitivity of the three detection schemes.

Each scheme measures an observable O(phi) at the interferometer output and
estimates the internal phase through the error propagation formula

    delta_phi = sqrt(Var O) / |d<O>/dphi|.

Difference-intensity detection uses N_d = n4 - n5, single-mode intensity
detection uses n4 alone, and balanced homodyne detection measures the
quadrature X = (e^{-i phi_L} a4 + h.c.)/2 of output 4 against a local
oscillator of phase phi_L (which requires the external-reference phase
convention).

All three sensitivities share one functional form in phi,

    delta_phi(phi) = sqrt(a + b cos^2 phi + c sin 2phi + d cos phi
                          + e sin phi) / |f cos phi + g sin phi|,

captured by :class:`SensitivityCoefficients`; ``generic_coefficients``
produces the tuple for a given scheme and fixed beam-splitter angles, and is
the basis of the closed-form working-point optimizers.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import EmptyInput, WrongConvention, ZeroDerivative
from .mzi_core import BsAngles, Convention, a_coefficients, k_coefficients
from .states import FieldMoments, SchwingerMoments

__all__ = [
    "Scheme",
    "SensitivityBreakdown",
    "SensitivityCoefficients",
    "sensitivity_difference",
    "sensitivity_single",
    "sensitivity_homodyne",
    "extinction_rate",
    "mean_output_photons",
    "generic_coefficients",
    "sensitivity_from_coefficients",
    "default_local_oscillator_phase",
]


class Scheme(Enum):
    DIFFERENCE_INTENSITY = "difference_intensity"
    SINGLE_MODE_INTENSITY = "single_mode_intensity"
    BALANCED_HOMODYNE = "balanced_homodyne"


@dataclass(frozen=True)
class SensitivityBreakdown:
    """Variance of the observable, slope of its mean, and the resulting
    phase sensitivity sqrt(variance)/|derivative|."""

    variance: float
    derivative: float
    delta_phi: float


@dataclass(frozen=True)
class SensitivityCoefficients:
    """The seven real numbers parametrizing delta_phi(phi) for any scheme."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    g: float


def _check_derivative(variance: float, derivative: float) -> None:
    if abs(derivative) < 1e-30 * max(1.0, math.sqrt(max(variance, 0.0))):
        raise ZeroDerivative("signal slope vanishes at this working point")


def _signal_slope(m: SchwingerMoments, theta: float, phi: float) -> float:
    """d<n4>/dphi divided by sin(theta_prime)."""
    return m.mean_jx * math.cos(phi) + (
        math.cos(theta) * m.mean_jy + math.sin(theta) * m.mean_jz
    ) * math.sin(phi)


def _quadratic_form(m: SchwingerMoments, kx: float, ky: float, kz: float) -> float:
    return (
        kx * kx * m.var_jx
        + ky * ky * m.var_jy
        + kz * kz * m.var_jz
        + 2.0 * kx * ky * m.symcov_xy
        + 2.0 * kx * kz * m.symcov_xz
        + 2.0 * ky * kz * m.symcov_yz
    )


def sensitivity_difference(
    m: SchwingerMoments, angles: BsAngles, phi: float
) -> SensitivityBreakdown:
    """Error-propagation sensitivity of the output photocurrent difference."""
    k = k_coefficients(angles, phi)
    variance = 4.0 * _quadratic_form(m, k.kx, k.ky, k.kz)
    derivative = 2.0 * _signal_slope(m, angles.theta, phi) * math.sin(angles.theta_prime)
    _check_derivative(variance, derivative)
    return SensitivityBreakdown(
        variance=variance,
        derivative=derivative,
        delta_phi=math.sqrt(max(variance, 0.0)) / abs(derivative),
    )


def sensitivity_single(
    m: SchwingerMoments, angles: BsAngles, phi: float
) -> SensitivityBreakdown:
    """Error-propagation sensitivity of the single output photocurrent n4."""
    k = k_coefficients(angles, phi)
    variance = (
        0.25 * m.var_n
        + _quadratic_form(m, k.kx, k.ky, k.kz)
        + k.kx * m.cov_jx_n
        + k.ky * m.cov_jy_n
        + k.kz * m.cov_jz_n
    )
    derivative = _signal_slope(m, angles.theta, phi) * math.sin(angles.theta_prime)
    _check_derivative(variance, derivative)
    return SensitivityBreakdown(
        variance=variance,
        derivative=derivative,
        delta_phi=math.sqrt(max(variance, 0.0)) / abs(derivative),
    )


def mean_output_photons(m: SchwingerMoments, angles: BsAngles, phi: float) -> float:
    """Mean photon number at output port 4."""
    k = k_coefficients(angles, phi)
    return 0.5 * m.mean_n + k.kx * m.mean_jx + k.ky * m.mean_jy + k.kz * m.mean_jz


def extinction_rate(m: SchwingerMoments, angles: BsAngles, phi: float) -> float:
    """Fraction <n4>/Nbar of the input photons reaching the monitored port."""
    if m.mean_n <= 0.0:
        raise EmptyInput("extinction rate undefined for a zero-photon input")
    return mean_output_photons(m, angles, phi) / m.mean_n


def sensitivity_homodyne(
    fm: FieldMoments,
    angles: BsAngles,
    phi: float,
    phi_local: float,
    convention: Convention = Convention.EXTERNAL_REFERENCE,
) -> SensitivityBreakdown:
    """Error-propagation sensitivity of balanced homodyne detection on port 4.

    Uses the single-shift convention (phi on the lower internal arm); an
    external phase reference is mandatory for the quadrature to be defined.
    """
    if convention is not Convention.EXTERNAL_REFERENCE:
        raise WrongConvention("homodyne detection needs an external phase reference")
    ac = a_coefficients(angles, 0.0, phi)
    k = k_coefficients(angles, phi)
    # product inputs: the cross-mode field covariances are zero
    cov44 = 0.5 * (1.0 + k.kz) * fm.cov_n0 + 0.5 * (1.0 - k.kz) * fm.cov_n1
    var_a4 = ac.a40 * ac.a40 * fm.var_a0 + ac.a41 * ac.a41 * fm.var_a1
    variance = 0.25 + 0.5 * (cov44 + (cmath.exp(-2j * phi_local) * var_a4).real)
    e = cmath.exp(-1j * (phi_local + phi))
    derivative = (
        math.sin(0.5 * angles.theta) * (1j * e * fm.mean_a0).real
        + math.cos(0.5 * angles.theta) * (e * fm.mean_a1).real
    ) * math.sin(0.5 * angles.theta_prime)
    _check_derivative(variance, derivative)
    return SensitivityBreakdown(
        variance=variance,
        derivative=derivative,
        delta_phi=math.sqrt(max(variance, 0.0)) / abs(derivative),
    )


def default_local_oscillator_phase(fm: FieldMoments) -> float:
    """Phase of the brighter coherent amplitude; the standard LO matching."""
    if abs(fm.mean_a1) >= abs(fm.mean_a0):
        bright = fm.mean_a1
    else:
        bright = fm.mean_a0
    return cmath.phase(bright) if bright != 0 else 0.0


# ---------------------------------------------------------------------------
# unified coefficient form
# ---------------------------------------------------------------------------

def _coefficients_difference(m: SchwingerMoments, angles: BsAngles) -> SensitivityCoefficients:
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    stp, ctp = math.sin(angles.theta_prime), math.cos(angles.theta_prime)
    s2t, c2t = math.sin(2.0 * angles.theta), math.cos(2.0 * angles.theta)
    s2tp = math.sin(2.0 * angles.theta_prime)
    return SensitivityCoefficients(
        a=stp**2 * m.var_jx
        + st**2 * ctp**2 * m.var_jy
        + ct**2 * ctp**2 * m.var_jz
        - s2t * ctp**2 * m.symcov_yz,
        b=-(stp**2) * m.var_jx
        + ct**2 * stp**2 * m.var_jy
        + st**2 * stp**2 * m.var_jz
        + s2t * stp**2 * m.symcov_yz,
        c=-(ct * m.symcov_xy + st * m.symcov_xz) * stp**2,
        d=(0.5 * s2t * (m.var_jy - m.var_jz) - c2t * m.symcov_yz) * s2tp,
        e=(-st * m.symcov_xy + ct * m.symcov_xz) * s2tp,
        f=m.mean_jx * stp,
        g=(ct * m.mean_jy + st * m.mean_jz) * stp,
    )


def _coefficients_single(m: SchwingerMoments, angles: BsAngles) -> SensitivityCoefficients:
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    stp, ctp = math.sin(angles.theta_prime), math.cos(angles.theta_prime)
    base = _coefficients_difference(m, angles)
    return SensitivityCoefficients(
        a=base.a + 0.25 * m.var_n - st * ctp * m.cov_jy_n + ct * ctp * m.cov_jz_n,
        b=base.b,
        c=base.c,
        d=base.d - ct * stp * m.cov_jy_n - st * stp * m.cov_jz_n,
        e=base.e + stp * m.cov_jx_n,
        f=base.f,
        g=base.g,
    )


def _coefficients_homodyne(
    fm: FieldMoments, angles: BsAngles, phi_local: float
) -> SensitivityCoefficients:
    # non-entangled inputs only: the cross-mode field covariances are zero
    w0 = cmath.exp(-2j * phi_local) * fm.var_a0
    w1 = cmath.exp(-2j * phi_local) * fm.var_a1
    c0, c1 = fm.cov_n0, fm.cov_n1
    ch, sh = math.cos(0.5 * angles.theta), math.sin(0.5 * angles.theta)
    chp, shp = math.cos(0.5 * angles.theta_prime), math.sin(0.5 * angles.theta_prime)
    ct, st = math.cos(angles.theta), math.sin(angles.theta)
    ctp, stp = math.cos(angles.theta_prime), math.sin(angles.theta_prime)
    el = cmath.exp(-1j * phi_local)
    return SensitivityCoefficients(
        a=0.25
        + 0.25 * (c0 + c1)
        + 0.25 * ct * ctp * (c0 - c1)
        + 0.5 * (ch**2 * chp**2 - sh**2 * shp**2) * w0.real
        - 0.5 * (sh**2 * chp**2 - ch**2 * shp**2) * w1.real,
        b=(sh**2 * w0.real - ch**2 * w1.real) * shp**2,
        c=0.5 * (sh**2 * w0.imag - ch**2 * w1.imag) * shp**2,
        d=-0.25 * (c0 - c1 + w0.real + w1.real) * st * stp,
        e=-0.25 * (w0.imag + w1.imag) * st * stp,
        f=(-sh * (el * fm.mean_a0).imag + ch * (el * fm.mean_a1).real) * shp,
        g=(sh * (el * fm.mean_a0).real + ch * (el * fm.mean_a1).imag) * shp,
    )


def generic_coefficients(
    scheme: Scheme,
    moments: Union[SchwingerMoments, FieldMoments],
    angles: BsAngles,
    phi_local: float = 0.0,
) -> SensitivityCoefficients:
    """Coefficient tuple of the unified delta_phi(phi) form for ``scheme``."""
    if scheme is Scheme.DIFFERENCE_INTENSITY:
        if not isinstance(moments, SchwingerMoments):
            raise TypeError("difference-intensity scheme needs Schwinger moments")
        return _coefficients_difference(moments, angles)
    if scheme is Scheme.SINGLE_MODE_INTENSITY:
        if not isinstance(moments, SchwingerMoments):
            raise TypeError("single-mode scheme needs Schwinger moments")
        return _coefficients_single(moments, angles)
    if not isinstance(moments, FieldMoments):
        raise TypeError("homodyne scheme needs field moments")
    return _coefficients_homodyne(moments, angles, phi_local)


def sensitivity_from_coefficients(c: SensitivityCoefficients, phi: float) -> float:
    """Evaluate the unified sensitivity form at working point ``phi``."""
    cp, sp = math.cos(phi), math.sin(phi)
    radicand = c.a + c.b * cp * cp + c.c * math.sin(2.0 * phi) + c.d * cp + c.e * sp
    derivative = c.f * cp + c.g * sp
    if abs(derivative) < 1e-30 * max(1.0, math.sqrt(max(radicand, 0.0))):
        raise ZeroDerivative("signal slope vanishes at this working point")
    return math.sqrt(max(radicand, 0.0)) / abs(derivative)
