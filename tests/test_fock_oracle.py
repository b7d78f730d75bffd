"""Truncated Fock-space simulator: construction, unitarity, convergence."""
import math
import random

import numpy as np
import pytest

from conftest import rel_err
from mzi_sensitivity.detection import Scheme, sensitivity_difference, sensitivity_single
from mzi_sensitivity.errors import CutoffExceeded, ZeroDerivative
from mzi_sensitivity.fock_oracle import (
    Observable,
    OracleConfig,
    _block_unitary,
    apply_phases,
    build_state,
    evolve_bs,
    expectation,
    mzi_output_state,
    oracle_qfi_single,
    oracle_sensitivity,
    variance,
)
from mzi_sensitivity.mzi_core import BsAngles, Convention, PhaseConfig, a_coefficients
from mzi_sensitivity.qfi import fisher_matrix, qfi_report
from mzi_sensitivity.states import (
    InputState,
    coherent,
    fock,
    schwinger_moments,
    squeezed_vacuum,
    vacuum,
)


def test_fock_state_amplitudes():
    ts = build_state(InputState(port0=fock(2), port1=vacuum()))
    assert ts.amplitudes[2, 0] == 1.0
    assert np.count_nonzero(ts.amplitudes) == 1


def test_coherent_amplitudes_are_poissonian():
    ts = build_state(InputState(port0=coherent(1.0), port1=vacuum()))
    column = ts.amplitudes[:, 0]
    for k in range(column.size):
        expected = math.exp(-0.5) / math.sqrt(math.factorial(k))
        assert column[k].real == pytest.approx(expected, rel=1e-9)
    # discarded tail below the configured tolerance
    assert 1.0 - np.sum(np.abs(column) ** 2) < 1e-10


def test_cutoff_guard_fires_for_bright_inputs():
    with pytest.raises(CutoffExceeded):
        build_state(InputState(port0=coherent(50.0), port1=fock(1)))


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(tail_tolerance=1e-3)


def test_zero_angle_is_identity():
    ts = build_state(InputState(port0=fock(1), port1=coherent(0.8)))
    out = evolve_bs(ts, 0.0)
    d0, d1 = ts.dim0, ts.dim1
    assert np.allclose(out.amplitudes[:d0, :d1], ts.amplitudes, atol=1e-14)


def test_single_photon_split():
    ts = build_state(InputState(port0=fock(1), port1=vacuum()))
    out = evolve_bs(ts, math.pi / 2)
    # |1,0> -> cos(theta/2)|1,0> + i sin(theta/2)|0,1>
    assert out.amplitudes[1, 0] == pytest.approx(math.cos(math.pi / 4), rel=1e-12)
    assert out.amplitudes[0, 1] == pytest.approx(1j * math.sin(math.pi / 4), rel=1e-12)


def test_norm_preserved_through_evolution():
    ts = build_state(InputState(port0=squeezed_vacuum(0.7, 0.4), port1=coherent(1.5, 0.3)))
    out = evolve_bs(apply_phases(evolve_bs(ts, 1.234), 0.3, 1.7), 2.345)
    assert abs(1.0 - out.norm()) < 1e-12


def test_mean_field_map_matches_transfer_coefficients():
    """At theta'=0 the chain reduces to BS1 + phases; <a_out> must follow the
    2x2 transfer matrix."""
    state = InputState(port0=coherent(0.9, 0.5), port1=coherent(1.3, -0.2))
    theta, phi = 1.1, 0.8
    out = mzi_output_state(
        state, BsAngles(theta, 0.0), PhaseConfig(Convention.EXTERNAL_REFERENCE, phi)
    )
    ac = a_coefficients(BsAngles(theta, 0.0), 0.0, phi)
    a0_in = 0.9 * np.exp(0.5j)
    a1_in = 1.3 * np.exp(-0.2j)
    expected = ac.a40 * a0_in + ac.a41 * a1_in
    got = expectation(out, Observable.A0)
    assert abs(got - expected) < 1e-9


def test_beam_splitter_intensity_split():
    state = InputState(port0=coherent(1.2), port1=vacuum())
    theta = 0.9
    out = evolve_bs(build_state(state), theta)
    n0 = expectation(out, Observable.N0).real
    n1 = expectation(out, Observable.N1).real
    assert n0 == pytest.approx(1.2**2 * math.cos(theta / 2) ** 2, rel=1e-10)
    assert n1 == pytest.approx(1.2**2 * math.sin(theta / 2) ** 2, rel=1e-10)


def test_fock_pair_jz_expectation():
    ts = build_state(InputState(port0=fock(3), port1=fock(1)))
    assert expectation(ts, Observable.JZ).real == pytest.approx(1.0)


def test_coherent_port_mean_field():
    ts = build_state(InputState(port0=vacuum(), port1=coherent(1.4, 0.6)))
    got = expectation(ts, Observable.A1)
    assert abs(got - 1.4 * np.exp(0.6j)) < 1e-10


def test_variance_rejects_non_hermitian():
    ts = build_state(InputState(port0=vacuum(), port1=coherent(1.0)))
    with pytest.raises(ValueError):
        variance(ts, Observable.A0)


def test_cutoff_convergence_of_expectations():
    """Tightening the tail (which roughly doubles the per-mode cutoffs)
    must leave every reported expectation unchanged at the 1e-9 level."""
    state = InputState(port0=squeezed_vacuum(0.6, 0.2), port1=coherent(1.4, 0.7))
    base = build_state(state, OracleConfig(tail_tolerance=1e-12))
    doubled = build_state(state, OracleConfig(tail_tolerance=1e-15, max_joint_dimension=16384))
    assert doubled.dim0 > base.dim0 and doubled.dim1 > base.dim1
    for obs in (Observable.JX, Observable.JY, Observable.JZ, Observable.N):
        a = expectation(base, obs)
        b = expectation(doubled, obs)
        assert abs(a - b) < 1e-9 * max(1.0, abs(b))
        va, vb = variance(base, obs), variance(doubled, obs)
        assert abs(va - vb) < 1e-9 * max(1.0, abs(vb))


def test_cutoff_convergence_of_sensitivities():
    state = InputState(port0=squeezed_vacuum(0.6, 0.2), port1=coherent(1.4, 0.7))
    loose = OracleConfig(tail_tolerance=1e-8)
    tight = OracleConfig(tail_tolerance=1e-13, max_joint_dimension=16384)
    angles = BsAngles(1.1, 2.0)
    phases = PhaseConfig(Convention.EXTERNAL_REFERENCE, 1.3, 0.2)
    for scheme_value in ("difference_intensity", "single_mode_intensity", "balanced_homodyne"):
        scheme = Scheme(scheme_value)
        a = oracle_sensitivity(state, angles, phases, scheme, loose)
        b = oracle_sensitivity(state, angles, phases, scheme, tight)
        assert rel_err(a, b) < 1e-7


def test_oracle_flags_zero_derivative():
    state = InputState(port0=vacuum(), port1=vacuum())
    with pytest.raises(ZeroDerivative):
        oracle_sensitivity(
            state,
            BsAngles(math.pi / 2, math.pi / 2),
            PhaseConfig(Convention.EXTERNAL_REFERENCE, 1.0),
            Scheme.DIFFERENCE_INTENSITY,
        )


def test_oracle_qfi_examples(tight_oracle):
    assert oracle_qfi_single(InputState(port0=vacuum(), port1=vacuum()), 1.0) == pytest.approx(
        0.0, abs=1e-12
    )
    # Fock pair: matches the rotated-moment value
    state = InputState(port0=fock(2), port1=fock(1))
    for theta in (0.4, 1.3):
        analytic = qfi_report(fisher_matrix(state, theta)).f_i
        assert rel_err(oracle_qfi_single(state, theta, tight_oracle), analytic) < 1e-8
    # pass-through geometry: port-1 photons stay in the lower internal mode
    state = InputState(port0=vacuum(), port1=coherent(1.5))
    assert oracle_qfi_single(state, 0.0, tight_oracle) == pytest.approx(
        4.0 * 1.5**2, rel=1e-9
    )


def test_oracle_homodyne_respects_single_parameter_bound(tight_oracle):
    state = InputState(port0=fock(1), port1=coherent(2.0))
    theta = 2.0 * math.acos(math.sqrt(0.7487562189054726))
    from mzi_sensitivity.optimize import optimize_bs2_homodyne
    from mzi_sensitivity.states import field_moments

    tp = optimize_bs2_homodyne(field_moments(state), theta, math.pi, 0.0)
    value = oracle_sensitivity(
        state,
        BsAngles(theta, tp),
        PhaseConfig(Convention.EXTERNAL_REFERENCE, math.pi - 0.02, 0.0),
        Scheme.BALANCED_HOMODYNE,
        tight_oracle,
    )
    bound = 1.0 / math.sqrt(oracle_qfi_single(state, theta, tight_oracle))
    assert value >= bound * (1.0 - 1e-9)


def test_oracle_slope_is_exact_next_to_a_dark_fringe():
    """Just off the zero of the signal slope the sensitivity is huge and a
    finite-difference slope loses its digits; the stacked psi / d(psi)/d(phi)
    evolution keeps the closed forms to 1e-8."""
    state = InputState(port0=squeezed_vacuum(0.5, 0.3), port1=coherent(1.5, 0.2))
    angles = BsAngles(1.0, 2.0)
    cfg = OracleConfig(tail_tolerance=1e-11, max_joint_dimension=16384)  # criterion 7b
    m = schwinger_moments(state)
    phi0 = math.atan2(
        -m.mean_jx, math.cos(angles.theta) * m.mean_jy + math.sin(angles.theta) * m.mean_jz
    )
    phi = phi0 + 1e-5
    phases = PhaseConfig(Convention.EXTERNAL_REFERENCE, phi)
    for scheme, closed_form in (
        (Scheme.SINGLE_MODE_INTENSITY, sensitivity_single),
        (Scheme.DIFFERENCE_INTENSITY, sensitivity_difference),
    ):
        analytic = closed_form(m, angles, phi).delta_phi
        assert analytic > 1e5
        assert rel_err(oracle_sensitivity(state, angles, phases, scheme, cfg), analytic) < 1e-8


def test_block_cache_is_keyed_by_block_only():
    state = InputState(port0=squeezed_vacuum(0.4, 0.1), port1=coherent(1.2, 0.5))
    ts = build_state(state)
    rng = random.Random(7)
    _block_unitary.cache_clear()
    for _ in range(50):
        angles = BsAngles(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
        phases = PhaseConfig(Convention.EXTERNAL_REFERENCE, rng.uniform(0.0, 2.0 * math.pi))
        oracle_sensitivity(state, angles, phases, Scheme.DIFFERENCE_INTENSITY)
    # BS1 fills the square of side dim0 + dim1 - 1; its top block is the largest
    assert _block_unitary.cache_info().currsize <= ts.dim0 + ts.dim1 - 1
