"""Brute-force two-mode simulator on a truncated Fock basis.

This module is the independent referee for every analytic formula in the
package: states are expanded in the number basis, beam splitters are applied
as exact unitaries block-by-block in the total photon number, phase shifts
as diagonal phases, and all expectations are evaluated by direct
ladder-operator action on the amplitude tensor.

It is deliberately restricted to desk-scale inputs (amplitudes of a few
photons, moderate squeezing); the point is trustworthiness, not speed.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .detection import Scheme
from .errors import CutoffExceeded, ZeroDerivative
from .mzi_core import BsAngles, PhaseConfig
from .states import FieldMoments, InputState, Kind, ModeSpec, SchwingerMoments

__all__ = [
    "OracleConfig",
    "TruncatedState",
    "Observable",
    "build_state",
    "evolve_bs",
    "apply_phases",
    "expectation",
    "variance",
    "mzi_output_state",
    "oracle_mean_n4",
    "oracle_sensitivity",
    "oracle_qfi_single",
    "oracle_field_moments",
    "oracle_schwinger_moments",
]


@dataclass(frozen=True)
class OracleConfig:
    tail_tolerance: float = 1e-10
    max_joint_dimension: int = 4096

    def __post_init__(self):
        if not 0.0 < self.tail_tolerance <= 1e-6:
            raise ValueError("tail_tolerance must lie in (0, 1e-6]")
        if self.max_joint_dimension < 1:
            raise ValueError("max_joint_dimension must be positive")


@dataclass(frozen=True)
class TruncatedState:
    """Normalized amplitude tensor; entry [n0, n1] multiplies |n0>|n1>.

    Treated as immutable: every operation returns a new instance.
    """

    amplitudes: np.ndarray

    @property
    def dim0(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def dim1(self) -> int:
        return self.amplitudes.shape[1]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


class Observable(Enum):
    A0 = "a0"
    A1 = "a1"
    N0 = "n0"
    N1 = "n1"
    JX = "jx"
    JY = "jy"
    JZ = "jz"
    N = "n"
    ND = "nd"


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------

def _mode_amplitudes(spec: ModeSpec, tol: float, max_dim: int) -> np.ndarray:
    """Number-basis amplitudes of one mode, truncated to tail < tol."""
    if spec.kind is Kind.FOCK:
        if spec.fock_n >= max_dim:
            raise CutoffExceeded("Fock occupation exceeds the dimension budget")
        vec = np.zeros(spec.fock_n + 1, dtype=complex)
        vec[spec.fock_n] = 1.0
        return vec
    if spec.kind is Kind.VACUUM:
        return np.array([1.0 + 0.0j])

    alpha = spec.amplitude_mag * cmath.exp(1j * spec.amplitude_phase)
    z = spec.squeeze_mag
    ez = cmath.exp(1j * spec.squeeze_phase)
    ch, sh = math.cosh(z), math.sinh(z)
    # exact ground amplitude of the displaced squeezed state, so the
    # truncated norm measures the discarded tail directly
    seed = math.sqrt(1.0 / ch) * cmath.exp(
        -0.5 * spec.amplitude_mag**2 - 0.5 * alpha.conjugate() ** 2 * ez * math.tanh(z)
    )
    rhs = alpha * ch + alpha.conjugate() * ez * sh

    dim = 16
    while True:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = seed
        for n in range(dim - 1):
            acc = rhs * vec[n]
            if n >= 1:
                acc -= ez * sh * math.sqrt(n) * vec[n - 1]
            vec[n + 1] = acc / (ch * math.sqrt(n + 1))
        weights = np.abs(vec) ** 2
        cumulative = np.cumsum(weights)
        if 1.0 - cumulative[-1] < tol:
            cut = int(np.searchsorted(cumulative, 1.0 - tol)) + 1
            return vec[: min(cut + 2, dim)]
        dim *= 2
        if dim > 4 * max_dim:
            raise CutoffExceeded("mode does not converge within the dimension budget")


def build_state(state: InputState, cfg: OracleConfig = OracleConfig()) -> TruncatedState:
    """Truncated, normalized product state of the two input ports."""
    v0 = _mode_amplitudes(state.port0, cfg.tail_tolerance, cfg.max_joint_dimension)
    v1 = _mode_amplitudes(state.port1, cfg.tail_tolerance, cfg.max_joint_dimension)
    if v0.size * v1.size > cfg.max_joint_dimension:
        raise CutoffExceeded(
            f"joint dimension {v0.size}x{v1.size} exceeds budget {cfg.max_joint_dimension}"
        )
    amp = np.outer(v0, v1)
    return TruncatedState(amp / np.linalg.norm(amp))


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _block_unitary(block: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis (m, V) of Jx on the (block+1)-dimensional subspace of total
    photon number ``block``; basis ordered by n0 descending.

    exp(i*angle*Jx) on the block is V diag(e^{i angle m}) V^T for every
    angle, so the cache holds one entry per block.  The arrays are read-only
    because every caller shares them.
    """
    # Jx couples |n0, n1> and |n0-1, n1+1> with strength sqrt(n0*(n1+1))/2
    k = np.arange(block)  # index with n0 = block - k
    off = 0.5 * np.sqrt((block - k) * (k + 1.0))
    jx = np.zeros((block + 1, block + 1))
    jx[k, k + 1] = off
    jx[k + 1, k] = off
    evals, evecs = np.linalg.eigh(jx)
    evals.flags.writeable = False
    evecs.flags.writeable = False
    return evals, evecs


def _evolve(amps: np.ndarray, angle: float) -> np.ndarray:
    """exp(i*angle*Jx) on amplitude arrays stacked along a trailing axis.

    Only occupied blocks are evolved: the output side is the highest total
    photon number with a nonzero amplitude plus one, so every occupied
    anti-diagonal fits completely inside the output square.
    """
    rows, cols = np.nonzero(np.any(amps != 0.0, axis=-1))
    size = int(np.max(rows + cols)) + 1
    padded = np.zeros((size, size) + amps.shape[2:], dtype=complex)
    head = amps[:size, :size]  # rows and columns past the top block are empty
    padded[: head.shape[0], : head.shape[1]] = head
    out = np.zeros_like(padded)
    for total in range(size):
        m, v = _block_unitary(total)
        n0 = np.arange(total, -1, -1)
        block = (n0, total - n0)
        out[block] = v @ (np.exp(1j * angle * m)[:, None] * (v.T @ padded[block]))
    return out


def evolve_bs(state: TruncatedState, angle: float) -> TruncatedState:
    """Apply one beam splitter of mixing angle ``angle`` (exact unitary)."""
    return TruncatedState(_evolve(state.amplitudes[..., None], angle)[..., 0])


def apply_phases(state: TruncatedState, phi1: float, phi2: float) -> TruncatedState:
    """Phase shifts on the two arms: |n0,n1> -> e^{-i(phi1 n0 + phi2 n1)}."""
    p0 = np.exp(-1j * phi1 * np.arange(state.dim0))
    p1 = np.exp(-1j * phi2 * np.arange(state.dim1))
    return TruncatedState(state.amplitudes * np.outer(p0, p1))


def mzi_output_state(
    state: InputState, angles: BsAngles, phases: PhaseConfig,
    cfg: OracleConfig = OracleConfig(),
) -> TruncatedState:
    """Full interferometer chain: BS1, arm phases, BS2."""
    ts = build_state(state, cfg)
    ts = evolve_bs(ts, angles.theta)
    ts = apply_phases(ts, phases.phi1, phases.phi2)
    return evolve_bs(ts, angles.theta_prime)


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

def _padded(p: np.ndarray, extra: int = 2) -> np.ndarray:
    """Add raising-operator headroom so a^dag actions are not truncated."""
    out = np.zeros((p.shape[0] + extra, p.shape[1] + extra), dtype=complex)
    out[: p.shape[0], : p.shape[1]] = p
    return out


def _apply_a0(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    d0 = p.shape[0]
    out[: d0 - 1, :] = np.sqrt(np.arange(1, d0))[:, None] * p[1:, :]
    return out


def _apply_a1(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    d1 = p.shape[1]
    out[:, : d1 - 1] = np.sqrt(np.arange(1, d1))[None, :] * p[:, 1:]
    return out


def _apply_a0dag(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    d0 = p.shape[0]
    out[1:, :] = np.sqrt(np.arange(1, d0))[:, None] * p[: d0 - 1, :]
    return out


def _apply_a1dag(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    d1 = p.shape[1]
    out[:, 1:] = np.sqrt(np.arange(1, d1))[None, :] * p[:, : d1 - 1]
    return out


def _apply(obs: Observable, p: np.ndarray) -> np.ndarray:
    if obs is Observable.A0:
        return _apply_a0(p)
    if obs is Observable.A1:
        return _apply_a1(p)
    n0 = np.arange(p.shape[0])[:, None]
    n1 = np.arange(p.shape[1])[None, :]
    if obs is Observable.N0:
        return n0 * p
    if obs is Observable.N1:
        return n1 * p
    if obs is Observable.N:
        return (n0 + n1) * p
    if obs is Observable.ND:
        return (n0 - n1) * p
    if obs is Observable.JZ:
        return 0.5 * (n0 - n1) * p
    if obs is Observable.JX:
        return 0.5 * (_apply_a1(_apply_a0dag(p)) + _apply_a1dag(_apply_a0(p)))
    if obs is Observable.JY:
        return (_apply_a1(_apply_a0dag(p)) - _apply_a1dag(_apply_a0(p))) / 2j
    raise ValueError(f"unknown observable {obs}")


def expectation(state: TruncatedState, observable: Observable) -> complex:
    """<O> by direct ladder-operator action."""
    p = _padded(state.amplitudes)
    return complex(np.vdot(p, _apply(observable, p)))


def variance(state: TruncatedState, observable: Observable) -> float:
    """Variance of a Hermitian observable (a0/a1 are not accepted)."""
    if observable in (Observable.A0, Observable.A1):
        raise ValueError("variance is defined here for Hermitian observables only")
    p = _padded(state.amplitudes)
    applied = _apply(observable, p)
    mean = np.vdot(p, applied)
    return float((np.vdot(applied, applied) - abs(mean) ** 2).real)


# ---------------------------------------------------------------------------
# derived oracle quantities
# ---------------------------------------------------------------------------

def oracle_field_moments(state: InputState, cfg: OracleConfig = OracleConfig()) -> FieldMoments:
    ts = build_state(state, cfg)
    p = _padded(ts.amplitudes)
    m0 = complex(np.vdot(p, _apply_a0(p)))
    m1 = complex(np.vdot(p, _apply_a1(p)))
    a0a0 = complex(np.vdot(p, _apply_a0(_apply_a0(p))))
    a1a1 = complex(np.vdot(p, _apply_a1(_apply_a1(p))))
    n0 = expectation(ts, Observable.N0).real
    n1 = expectation(ts, Observable.N1).real
    return FieldMoments(
        mean_a0=m0,
        mean_a1=m1,
        var_a0=a0a0 - m0 * m0,
        var_a1=a1a1 - m1 * m1,
        cov_n0=n0 - abs(m0) ** 2,
        cov_n1=n1 - abs(m1) ** 2,
    )


def oracle_schwinger_moments(
    state: InputState, cfg: OracleConfig = OracleConfig()
) -> SchwingerMoments:
    ts = build_state(state, cfg)
    p = _padded(ts.amplitudes)
    applied = {obs: _apply(obs, p) for obs in (Observable.JX, Observable.JY, Observable.JZ, Observable.N)}
    means = {obs: np.vdot(p, ap).real for obs, ap in applied.items()}

    def cov(a: Observable, b: Observable) -> float:
        value = 0.5 * (np.vdot(applied[a], applied[b]) + np.vdot(applied[b], applied[a]))
        return float(value.real - means[a] * means[b])

    return SchwingerMoments(
        mean_jx=means[Observable.JX],
        mean_jy=means[Observable.JY],
        mean_jz=means[Observable.JZ],
        mean_n=means[Observable.N],
        var_jx=cov(Observable.JX, Observable.JX),
        var_jy=cov(Observable.JY, Observable.JY),
        var_jz=cov(Observable.JZ, Observable.JZ),
        var_n=cov(Observable.N, Observable.N),
        symcov_xy=cov(Observable.JX, Observable.JY),
        symcov_xz=cov(Observable.JX, Observable.JZ),
        symcov_yz=cov(Observable.JY, Observable.JZ),
        cov_jx_n=cov(Observable.JX, Observable.N),
        cov_jy_n=cov(Observable.JY, Observable.N),
        cov_jz_n=cov(Observable.JZ, Observable.N),
    )


def oracle_mean_n4(
    state: InputState, angles: BsAngles, phases: PhaseConfig,
    cfg: OracleConfig = OracleConfig(),
) -> float:
    out = mzi_output_state(state, angles, phases, cfg)
    return expectation(out, Observable.N0).real


def _detected(scheme: Scheme, p: np.ndarray, phi_local: float) -> np.ndarray:
    """O|p> for the observable the scheme reads: n0 - n1, n0, or the
    quadrature X = (e^{-i phi_local} a0 + h.c.)/2 on slot 0."""
    if scheme is Scheme.DIFFERENCE_INTENSITY:
        return _apply(Observable.ND, p)
    if scheme is Scheme.SINGLE_MODE_INTENSITY:
        return _apply(Observable.N0, p)
    return 0.5 * (
        cmath.exp(-1j * phi_local) * _apply_a0(p) + cmath.exp(1j * phi_local) * _apply_a0dag(p)
    )


def oracle_sensitivity(
    state: InputState,
    angles: BsAngles,
    phases: PhaseConfig,
    scheme: Scheme,
    cfg: OracleConfig = OracleConfig(),
) -> float:
    """Numeric error-propagation sensitivity, exact on the truncated state.

    Inside the interferometer phi multiplies n1, so d(psi)/d(phi) = -i n1 psi.
    BS2 is linear: psi and its derivative pass through it as one stack, and
    the mean, the variance and the slope 2 Re<d psi|O|psi> of the detected
    observable O all come from one application of O.
    """
    inside = apply_phases(
        evolve_bs(build_state(state, cfg), angles.theta), 0.0, phases.phi
    ).amplitudes
    stack = np.stack([inside, -1j * _apply(Observable.N1, inside)], axis=-1)
    out = _evolve(stack, angles.theta_prime)
    psi, dpsi = _padded(out[..., 0]), _padded(out[..., 1])
    applied = _detected(scheme, psi, phases.phi_local)
    mean = np.vdot(psi, applied).real
    var = np.vdot(applied, applied).real - mean**2
    derivative = 2.0 * np.vdot(dpsi, applied).real
    if abs(derivative) < 1e-8 * max(1.0, math.sqrt(max(var, 0.0))):
        raise ZeroDerivative("numeric signal slope vanishes at this working point")
    return math.sqrt(max(var, 0.0)) / abs(derivative)


def oracle_qfi_single(
    state: InputState, theta: float, cfg: OracleConfig = OracleConfig()
) -> float:
    """4 Var(n3) after the first beam splitter, evaluated numerically."""
    after_bs1 = evolve_bs(build_state(state, cfg), theta)
    return 4.0 * variance(after_bs1, Observable.N1)
