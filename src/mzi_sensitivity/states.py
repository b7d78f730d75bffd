"""Two-mode input states and their analytic moments.

The interferometer is fed with a product state of two single modes.  Port 1
conventionally carries the bright (coherent or displaced-squeezed) beam and
port 0 the quantum resource (squeezed vacuum, Fock state, or a second
displaced-squeezed beam), but any combination of the supported families is
accepted.

Every downstream formula in the package is expressed through a small set of
moments.  For each mode we track

    <a>,  <a^2>,  <n>,  Var(n),  <a^dag a^2>

which is enough to assemble, for the two-mode product state, the means,
variances and (symmetrized) covariances of the Schwinger pseudo-angular
momentum operators

    Jx = (a0^dag a1 + a0 a1^dag)/2,
    Jy = (a0^dag a1 - a0 a1^dag)/(2i),
    Jz = (n0 - n1)/2,

and of the total photon number N = n0 + n1.  Displaced squeezed states are
the most general family implemented; coherent, squeezed-vacuum and vacuum
moments are the obvious specializations, and Fock states contribute only a
photon number.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import IncompatiblePmc

__all__ = [
    "Kind",
    "ModeSpec",
    "InputState",
    "FieldMoments",
    "SchwingerMoments",
    "PmcId",
    "vacuum",
    "coherent",
    "squeezed_vacuum",
    "squeezed_coherent",
    "fock",
    "field_moments",
    "schwinger_moments",
    "apply_pmc",
    "mean_total_photons",
]


class Kind(Enum):
    VACUUM = "vacuum"
    COHERENT = "coherent"
    SQUEEZED_VACUUM = "squeezed_vacuum"
    SQUEEZED_COHERENT = "squeezed_coherent"
    FOCK = "fock"


# which phase degrees of freedom each family actually carries
_HAS_AMPLITUDE = {Kind.COHERENT, Kind.SQUEEZED_COHERENT}
_HAS_SQUEEZE = {Kind.SQUEEZED_VACUUM, Kind.SQUEEZED_COHERENT}


@dataclass(frozen=True)
class ModeSpec:
    """Single-mode state specification.

    Fields not used by ``kind`` must stay exactly zero; phases are kept
    unreduced (not wrapped mod 2*pi).
    """

    kind: Kind
    amplitude_mag: float = 0.0
    amplitude_phase: float = 0.0
    squeeze_mag: float = 0.0
    squeeze_phase: float = 0.0
    fock_n: int = 0

    def __post_init__(self):
        if self.amplitude_mag < 0:
            raise ValueError("amplitude_mag must be nonnegative")
        if self.squeeze_mag < 0:
            raise ValueError("squeeze_mag must be nonnegative")
        if self.fock_n < 0:
            raise ValueError("fock_n must be nonnegative")
        if self.kind not in _HAS_AMPLITUDE and (
            self.amplitude_mag != 0.0 or self.amplitude_phase != 0.0
        ):
            raise ValueError(f"{self.kind.value} state must not carry an amplitude")
        if self.kind not in _HAS_SQUEEZE and (
            self.squeeze_mag != 0.0 or self.squeeze_phase != 0.0
        ):
            raise ValueError(f"{self.kind.value} state must not carry a squeeze parameter")
        if self.kind is not Kind.FOCK and self.fock_n != 0:
            raise ValueError(f"{self.kind.value} state must not carry a photon number")


def vacuum() -> ModeSpec:
    return ModeSpec(Kind.VACUUM)


def coherent(mag: float, phase: float = 0.0) -> ModeSpec:
    return ModeSpec(Kind.COHERENT, amplitude_mag=mag, amplitude_phase=phase)


def squeezed_vacuum(mag: float, phase: float = 0.0) -> ModeSpec:
    return ModeSpec(Kind.SQUEEZED_VACUUM, squeeze_mag=mag, squeeze_phase=phase)


def squeezed_coherent(mag: float, phase: float, sq_mag: float, sq_phase: float) -> ModeSpec:
    return ModeSpec(
        Kind.SQUEEZED_COHERENT,
        amplitude_mag=mag,
        amplitude_phase=phase,
        squeeze_mag=sq_mag,
        squeeze_phase=sq_phase,
    )


def fock(n: int) -> ModeSpec:
    return ModeSpec(Kind.FOCK, fock_n=n)


@dataclass(frozen=True)
class InputState:
    """Product state on the two input ports (no cross-port entanglement)."""

    port0: ModeSpec
    port1: ModeSpec


@dataclass(frozen=True)
class FieldMoments:
    """First- and second-order field moments of the two input modes.

    ``var_a`` is the complex quantity <a^2> - <a>^2 and ``cov_n`` the
    (real, nonnegative) normally ordered covariance <n> - |<a>|^2.  The
    cross-mode covariances vanish for the product inputs supported here.
    """

    mean_a0: complex
    mean_a1: complex
    var_a0: complex
    var_a1: complex
    cov_n0: float
    cov_n1: float


@dataclass(frozen=True)
class SchwingerMoments:
    """Means, variances and covariances of Jx, Jy, Jz and N."""

    mean_jx: float
    mean_jy: float
    mean_jz: float
    mean_n: float
    var_jx: float
    var_jy: float
    var_jz: float
    var_n: float
    symcov_xy: float
    symcov_xz: float
    symcov_yz: float
    cov_jx_n: float
    cov_jy_n: float
    cov_jz_n: float


class PmcId(Enum):
    COH_SQZ_VAC = "coh_sqz_vac"
    SQZ_COH_SQZ_VAC = "sqz_coh_sqz_vac"
    PMC1 = "pmc1"
    PMC2 = "pmc2"
    PMC3 = "pmc3"


# ---------------------------------------------------------------------------
# per-mode moments
# ---------------------------------------------------------------------------

def _mode_moments(spec: ModeSpec) -> tuple[complex, complex, float, float, complex]:
    """Return (<a>, <a^2>, <n>, Var n, <a^dag a^2>) for one mode."""
    if spec.kind is Kind.FOCK:
        n = float(spec.fock_n)
        return 0j, 0j, n, 0.0, 0j
    # displaced squeezed state D(alpha) S(z e^{i phi}) |0>; coherent,
    # squeezed vacuum and vacuum are the z=0 / alpha=0 specializations
    alpha = spec.amplitude_mag * cmath.exp(1j * spec.amplitude_phase)
    z = spec.squeeze_mag
    ez = cmath.exp(1j * spec.squeeze_phase)
    sh = math.sinh(z)
    s2 = math.sinh(2.0 * z)
    amp2 = spec.amplitude_mag**2
    m1 = alpha
    m2 = alpha * alpha - 0.5 * ez * s2
    n1 = amp2 + sh * sh
    vn = 0.5 * s2 * s2 + amp2 * (
        math.cosh(2.0 * z)
        - s2 * math.cos(2.0 * spec.amplitude_phase - spec.squeeze_phase)
    )
    t1 = alpha * (2.0 * sh * sh + amp2) - 0.5 * alpha.conjugate() * ez * s2
    return m1, m2, n1, vn, t1


def field_moments(state: InputState) -> FieldMoments:
    """Analytic field moments of the input product state."""
    m10, m20, n10, _, _ = _mode_moments(state.port0)
    m11, m21, n11, _, _ = _mode_moments(state.port1)
    return FieldMoments(
        mean_a0=m10,
        mean_a1=m11,
        var_a0=m20 - m10 * m10,
        var_a1=m21 - m11 * m11,
        cov_n0=n10 - abs(m10) ** 2,
        cov_n1=n11 - abs(m11) ** 2,
    )


def _clamp_variance(v: float, scale: float) -> float:
    # guard against cancellation dust on true zeros
    if v < 0.0 and v > -1e-10 * max(1.0, scale):
        return 0.0
    return v


def schwinger_moments(state: InputState) -> SchwingerMoments:
    """Assemble all two-mode Schwinger-operator moments of the product state.

    The closed forms follow from normal-ordering bookkeeping on the per-mode
    moments; they reproduce the displaced-squeezed special cases and extend
    them to Fock-state ports, for which no tabulated forms exist.
    """
    m10, m20, n10, vn0, t10 = _mode_moments(state.port0)
    m11, m21, n11, vn1, t11 = _mode_moments(state.port1)

    cross = m10.conjugate() * m11
    jx, jy = cross.real, cross.imag
    jz = 0.5 * (n10 - n11)
    nn = n10 + n11

    e2 = m20.conjugate() * m21
    quad = 2.0 * n10 * n11 + n10 + n11
    var_jx = 0.25 * (2.0 * e2.real + quad) - jx * jx
    var_jy = 0.25 * (-2.0 * e2.real + quad) - jy * jy
    var_jz = 0.25 * (vn0 + vn1)
    var_n = vn0 + vn1

    # <{Jx,Jz}> and <{Jy,Jz}> share one third-order combination
    g = (2.0 * t10.conjugate() + m10.conjugate()) * m11 - m10.conjugate() * (2.0 * t11 + m11)
    symcov_xy = 0.5 * e2.imag - jx * jy
    symcov_xz = 0.25 * g.real - jx * jz
    symcov_yz = 0.25 * g.imag - jy * jz

    an = t10.conjugate() * m11 + m10.conjugate() * t11 + cross
    cov_jx_n = an.real - jx * nn
    cov_jy_n = an.imag - jy * nn
    cov_jz_n = 0.5 * (vn0 - vn1)

    scale = abs(quad) + abs(e2) + jx * jx + jy * jy
    return SchwingerMoments(
        mean_jx=jx,
        mean_jy=jy,
        mean_jz=jz,
        mean_n=nn,
        var_jx=_clamp_variance(var_jx, scale),
        var_jy=_clamp_variance(var_jy, scale),
        var_jz=var_jz,
        var_n=var_n,
        symcov_xy=symcov_xy,
        symcov_xz=symcov_xz,
        symcov_yz=symcov_yz,
        cov_jx_n=cov_jx_n,
        cov_jy_n=cov_jy_n,
        cov_jz_n=cov_jz_n,
    )


def mean_total_photons(state: InputState) -> float:
    """Mean of the total input photon number N = n0 + n1."""
    return _mode_moments(state.port0)[2] + _mode_moments(state.port1)[2]


# ---------------------------------------------------------------------------
# phase-matching conditions
# ---------------------------------------------------------------------------

def _require(cond: bool, pmc: PmcId, msg: str) -> None:
    if not cond:
        raise IncompatiblePmc(f"{pmc.value}: {msg}")


def apply_pmc(state: InputState, pmc: PmcId) -> InputState:
    """Return a copy of ``state`` with phases set to the requested
    phase-matching condition.

    The port-1 amplitude phase is the anchor and is never modified; all other
    phases are written relative to it.  Raises :class:`IncompatiblePmc` when
    the state family lacks a phase degree of freedom the condition fixes.
    """
    p0, p1 = state.port0, state.port1
    ta = p1.amplitude_phase

    if pmc is PmcId.COH_SQZ_VAC:
        _require(p1.kind in _HAS_AMPLITUDE, pmc, "port 1 must carry a coherent amplitude")
        _require(p0.kind in _HAS_SQUEEZE, pmc, "port 0 must carry a squeeze phase")
        return InputState(port0=replace(p0, squeeze_phase=2.0 * ta), port1=p1)

    if pmc is PmcId.SQZ_COH_SQZ_VAC:
        _require(p1.kind is Kind.SQUEEZED_COHERENT, pmc, "port 1 must be squeezed coherent")
        _require(p0.kind in _HAS_SQUEEZE, pmc, "port 0 must carry a squeeze phase")
        return InputState(
            port0=replace(p0, squeeze_phase=2.0 * ta),
            port1=replace(p1, squeeze_phase=2.0 * ta + math.pi),
        )

    _require(p0.kind is Kind.SQUEEZED_COHERENT, pmc, "port 0 must be squeezed coherent")
    _require(p1.kind is Kind.SQUEEZED_COHERENT, pmc, "port 1 must be squeezed coherent")
    theta0 = 2.0 * ta
    if pmc is PmcId.PMC1:
        phi1, tb = theta0 + math.pi, ta
    elif pmc is PmcId.PMC2:
        phi1, tb = theta0, ta
    elif pmc is PmcId.PMC3:
        phi1, tb = theta0 + math.pi, ta - 0.5 * math.pi
    else:  # pragma: no cover - enum is exhaustive
        raise IncompatiblePmc(f"unknown condition {pmc}")
    return InputState(
        port0=replace(p0, amplitude_phase=tb, squeeze_phase=theta0),
        port1=replace(p1, squeeze_phase=phi1),
    )
