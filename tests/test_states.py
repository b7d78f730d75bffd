"""Input-state moment engine: closed forms, reductions, and oracle checks."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_err
from mzi_sensitivity import fock_oracle
from mzi_sensitivity.errors import IncompatiblePmc
from mzi_sensitivity.states import (
    InputState,
    Kind,
    ModeSpec,
    PmcId,
    apply_pmc,
    coherent,
    field_moments,
    fock,
    mean_total_photons,
    schwinger_moments,
    squeezed_coherent,
    squeezed_vacuum,
    vacuum,
)

MOMENT_FIELDS = list(
    schwinger_moments(InputState(vacuum(), vacuum())).__dataclass_fields__
)


# ---------------------------------------------------------------------------
# field moments
# ---------------------------------------------------------------------------

def test_coherent_field_moments_are_displaced_vacuum():
    fm = field_moments(InputState(port0=vacuum(), port1=coherent(2.0)))
    assert fm.mean_a1 == pytest.approx(2.0 + 0.0j)
    assert fm.var_a1 == 0.0
    assert fm.cov_n1 == pytest.approx(0.0, abs=1e-14)


def test_squeezed_vacuum_field_moments():
    fm = field_moments(InputState(port0=squeezed_vacuum(1.2), port1=vacuum()))
    assert fm.var_a0.real == pytest.approx(-2.733114606838047, rel=1e-14)
    assert fm.var_a0.imag == 0.0
    assert fm.cov_n0 == pytest.approx(2.278473583482753, rel=1e-14)


def test_squeezed_vacuum_field_moments_match_oracle(tight_oracle):
    state = InputState(port0=squeezed_vacuum(1.2, 0.7), port1=vacuum())
    analytic = field_moments(state)
    numeric = fock_oracle.oracle_field_moments(state, tight_oracle)
    assert abs(analytic.var_a0 - numeric.var_a0) < 1e-9
    assert abs(analytic.cov_n0 - numeric.cov_n0) < 1e-9


def test_fock_field_moments():
    fm = field_moments(InputState(port0=fock(3), port1=vacuum()))
    assert fm.mean_a0 == 0.0
    assert fm.var_a0 == 0.0
    assert fm.cov_n0 == 3.0


def test_mode_spec_rejects_unused_fields():
    with pytest.raises(ValueError):
        ModeSpec(Kind.FOCK, amplitude_mag=1.0, fock_n=2)
    with pytest.raises(ValueError):
        ModeSpec(Kind.COHERENT, amplitude_mag=1.0, squeeze_mag=0.5)
    with pytest.raises(ValueError):
        ModeSpec(Kind.COHERENT, amplitude_mag=-1.0)
    with pytest.raises(ValueError):
        ModeSpec(Kind.FOCK, fock_n=-1)


# ---------------------------------------------------------------------------
# Schwinger moments: tabulated structure
# ---------------------------------------------------------------------------

def test_double_coherent_covariances():
    a, ta, b, tb = 1.7, 0.4, 0.9, -0.8
    m = schwinger_moments(InputState(port0=coherent(b, tb), port1=coherent(a, ta)))
    assert m.cov_jx_n == pytest.approx(a * b * math.cos(ta - tb), rel=1e-12)
    assert m.cov_jy_n == pytest.approx(a * b * math.sin(ta - tb), rel=1e-12)
    assert m.cov_jz_n == pytest.approx(0.5 * (b * b - a * a), rel=1e-12)
    for name in ("symcov_xy", "symcov_xz", "symcov_yz"):
        assert getattr(m, name) == pytest.approx(0.0, abs=1e-12)


def test_single_coherent_zero_structure():
    m = schwinger_moments(InputState(port0=vacuum(), port1=coherent(1.3, 0.5)))
    for name in ("symcov_xy", "symcov_xz", "symcov_yz", "cov_jx_n", "cov_jy_n"):
        assert getattr(m, name) == 0.0
    assert m.cov_jz_n == pytest.approx(-0.5 * 1.3**2, rel=1e-12)


def test_coherent_fock_zero_structure():
    m = schwinger_moments(InputState(port0=fock(2), port1=coherent(1.5, 0.3)))
    for name in ("symcov_xy", "symcov_xz", "symcov_yz", "cov_jx_n", "cov_jy_n"):
        assert getattr(m, name) == 0.0
    assert m.cov_jz_n == pytest.approx(-0.5 * 1.5**2, rel=1e-12)


def test_coh_sqzvac_cov_jz_n():
    # (Var n_sqz - Var n_coh)/2; verified against the Fock oracle below
    state = InputState(port0=squeezed_vacuum(1.2), port1=coherent(100.0))
    m = schwinger_moments(apply_pmc(state, PmcId.COH_SQZ_VAC))
    assert m.cov_jz_n == pytest.approx(-4992.530084545889, rel=1e-12)


def test_cov_jz_n_matches_oracle_at_desk_scale(tight_oracle):
    state = InputState(port0=squeezed_vacuum(0.7), port1=coherent(1.6))
    analytic = schwinger_moments(state)
    numeric = fock_oracle.oracle_schwinger_moments(state, tight_oracle)
    assert rel_err(analytic.cov_jz_n, numeric.cov_jz_n) < 1e-9
    assert analytic.cov_jz_n == pytest.approx(
        0.25 * math.sinh(1.4) ** 2 - 0.5 * 1.6**2, rel=1e-12
    )


def test_pmc1_symmetrized_covariance_structure(tight_oracle):
    a, b, r, z = 1.1, 0.8, 0.6, 0.35
    state = apply_pmc(
        InputState(
            port0=squeezed_coherent(b, 0.0, r, 0.0),
            port1=squeezed_coherent(a, 0.0, z, 0.0),
        ),
        PmcId.PMC1,
    )
    m = schwinger_moments(state)
    assert m.symcov_xy == pytest.approx(0.0, abs=1e-12)
    expected = a * b * (
        0.5 * (math.sinh(r) ** 2 - math.sinh(z) ** 2)
        - 0.25 * (math.sinh(2 * r) + math.sinh(2 * z))
    )
    assert m.symcov_xz == pytest.approx(expected, rel=1e-12)
    numeric = fock_oracle.oracle_schwinger_moments(state, tight_oracle)
    assert rel_err(m.symcov_xz, numeric.symcov_xz) < 1e-8


# ---------------------------------------------------------------------------
# Schwinger moments: closed forms of the double displaced-squeezed family
# ---------------------------------------------------------------------------

def _dual_reference_moments(a, ta, z, ph, b, tb, r, th):
    """Independent transcription of the analytic dual squeezed-coherent
    moments (port 1: amplitude a, squeeze z; port 0: amplitude b, squeeze r)."""
    c2r, s2r = math.cosh(2 * r), math.sinh(2 * r)
    c2z, s2z = math.cosh(2 * z), math.sinh(2 * z)
    var_jx = 0.25 * (
        b * b * (c2z - s2z * math.cos(2 * tb - ph))
        + a * a * (c2r - s2r * math.cos(2 * ta - th))
        + 0.5 * (c2r * c2z + s2r * s2z * math.cos(th - ph) - 1.0)
    )
    var_jy = 0.25 * (
        b * b * (c2z + s2z * math.cos(2 * tb - ph))
        + a * a * (c2r + s2r * math.cos(2 * ta - th))
        + 0.5 * (c2r * c2z - s2r * s2z * math.cos(th - ph) - 1.0)
    )
    # quarter of the summed per-mode photon-number variances
    var_jz = 0.25 * (
        0.5 * s2r**2
        + b * b * (c2r - s2r * math.cos(2 * tb - th))
        + 0.5 * s2z**2
        + a * a * (c2z - s2z * math.cos(2 * ta - ph))
    )
    var_n = (
        0.5 * s2r**2
        + 0.5 * s2z**2
        + b * b * (c2r - s2r * math.cos(2 * tb - th))
        + a * a * (c2z - s2z * math.cos(2 * ta - ph))
    )
    sxy = (
        -0.125 * s2r * s2z * math.sin(th - ph)
        - 0.25 * a * a * s2r * math.sin(2 * ta - th)
        + 0.25 * b * b * s2z * math.sin(2 * tb - ph)
    )
    shr2, shz2 = math.sinh(r) ** 2, math.sinh(z) ** 2
    sxz = 0.5 * a * b * (shr2 - shz2) * math.cos(ta - tb) - 0.25 * a * b * (
        s2r * math.cos(ta + tb - th) - s2z * math.cos(ta + tb - ph)
    )
    syz = 0.5 * a * b * (shr2 - shz2) * math.sin(ta - tb) - 0.25 * a * b * (
        s2r * math.sin(ta + tb - th) + s2z * math.sin(ta + tb - ph)
    )
    cxn = a * b * (shr2 + shz2 + 1.0) * math.cos(ta - tb) - 0.5 * a * b * (
        s2r * math.cos(ta + tb - th) + s2z * math.cos(ta + tb - ph)
    )
    cyn = a * b * (shr2 + shz2 + 1.0) * math.sin(ta - tb) - 0.5 * a * b * (
        s2r * math.sin(ta + tb - th) - s2z * math.sin(ta + tb - ph)
    )
    czn = 0.5 * (
        0.5 * s2r**2
        - 0.5 * s2z**2
        + b * b * (c2r - s2r * math.cos(2 * tb - th))
        - a * a * (c2z - s2z * math.cos(2 * ta - ph))
    )
    return {
        "var_jx": var_jx,
        "var_jy": var_jy,
        "var_jz": var_jz,
        "var_n": var_n,
        "symcov_xy": sxy,
        "symcov_xz": sxz,
        "symcov_yz": syz,
        "cov_jx_n": cxn,
        "cov_jy_n": cyn,
        "cov_jz_n": czn,
    }


@pytest.mark.parametrize("seed", range(6))
def test_dual_squeezed_closed_forms(seed):
    import random

    rng = random.Random(20240 + seed)
    a, b = rng.uniform(0, 3), rng.uniform(0, 3)
    z, r = rng.uniform(0, 1.0), rng.uniform(0, 1.0)
    ta, tb = rng.uniform(0, 6.3), rng.uniform(0, 6.3)
    ph, th = rng.uniform(0, 6.3), rng.uniform(0, 6.3)
    state = InputState(
        port0=squeezed_coherent(b, tb, r, th), port1=squeezed_coherent(a, ta, z, ph)
    )
    m = schwinger_moments(state)
    ref = _dual_reference_moments(a, ta, z, ph, b, tb, r, th)
    for name, value in ref.items():
        assert rel_err(getattr(m, name), value) < 1e-11, name


def test_beta_zero_reduces_to_squeezed_vacuum_port():
    general = InputState(
        port0=squeezed_coherent(0.0, 0.0, 0.9, 0.4),
        port1=squeezed_coherent(1.4, 0.2, 0.5, 1.0),
    )
    reduced = InputState(
        port0=squeezed_vacuum(0.9, 0.4), port1=squeezed_coherent(1.4, 0.2, 0.5, 1.0)
    )
    mg, mr = schwinger_moments(general), schwinger_moments(reduced)
    for name in MOMENT_FIELDS:
        assert getattr(mg, name) == pytest.approx(getattr(mr, name), rel=1e-14, abs=1e-14)


def test_zero_squeeze_reduces_to_coherent_port():
    general = InputState(
        port0=squeezed_vacuum(0.9, 0.4), port1=squeezed_coherent(1.4, 0.2, 0.0, 0.0)
    )
    reduced = InputState(port0=squeezed_vacuum(0.9, 0.4), port1=coherent(1.4, 0.2))
    mg, mr = schwinger_moments(general), schwinger_moments(reduced)
    for name in MOMENT_FIELDS:
        assert getattr(mg, name) == pytest.approx(getattr(mr, name), rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------------------
# oracle agreement and positivity
# ---------------------------------------------------------------------------

DESK_STATES = [
    InputState(port0=vacuum(), port1=coherent(2.0, 0.3)),
    InputState(port0=squeezed_vacuum(0.8, 1.1), port1=coherent(1.8, 0.4)),
    InputState(port0=squeezed_coherent(0.9, 0.7, 0.6, 2.0), port1=coherent(1.5, 0.0)),
    InputState(
        port0=squeezed_coherent(0.8, -0.4, 0.55, 0.9),
        port1=squeezed_coherent(1.2, 0.6, 0.45, -1.2),
    ),
    InputState(port0=fock(3), port1=coherent(2.0, 1.0)),
    InputState(port0=fock(2), port1=squeezed_vacuum(0.7, 0.5)),
    InputState(port0=fock(4), port1=fock(2)),
    InputState(port0=squeezed_vacuum(0.75), port1=vacuum()),
]


@pytest.mark.parametrize("state", DESK_STATES)
def test_schwinger_moments_match_oracle(state, tight_oracle):
    analytic = schwinger_moments(state)
    numeric = fock_oracle.oracle_schwinger_moments(state, tight_oracle)
    for name in MOMENT_FIELDS:
        a, o = getattr(analytic, name), getattr(numeric, name)
        if abs(o) < 1e-10:
            assert abs(a - o) < 1e-10, name
        else:
            assert rel_err(a, o) < 1e-8, name


def _random_state(rng):
    kinds = [
        lambda: vacuum(),
        lambda: coherent(rng.uniform(0, 2), rng.uniform(0, 6.3)),
        lambda: squeezed_vacuum(rng.uniform(0, 0.8), rng.uniform(0, 6.3)),
        lambda: squeezed_coherent(
            rng.uniform(0, 2), rng.uniform(0, 6.3), rng.uniform(0, 0.8), rng.uniform(0, 6.3)
        ),
        lambda: fock(rng.randrange(5)),
    ]
    return InputState(port0=rng.choice(kinds)(), port1=rng.choice(kinds)())


def test_variances_nonnegative_for_randomized_states():
    import random

    rng = random.Random(7)
    for _ in range(1000):
        m = schwinger_moments(_random_state(rng))
        assert m.var_jx >= 0.0
        assert m.var_jy >= 0.0
        assert m.var_jz >= 0.0
        assert m.var_n >= 0.0


@settings(max_examples=200, deadline=None)
@given(
    amp=st.floats(0, 3),
    aph=st.floats(-7, 7),
    sq=st.floats(0, 1.2),
    sph=st.floats(-7, 7),
    bamp=st.floats(0, 3),
    bph=st.floats(-7, 7),
)
def test_variance_positivity_property(amp, aph, sq, sph, bamp, bph):
    state = InputState(
        port0=squeezed_coherent(bamp, bph, sq, sph), port1=coherent(amp, aph)
    )
    m = schwinger_moments(state)
    assert m.var_jx >= 0.0 and m.var_jy >= 0.0
    assert m.var_jz >= 0.0 and m.var_n >= 0.0


# ---------------------------------------------------------------------------
# phase matching conditions
# ---------------------------------------------------------------------------

def test_pmc_coh_sqzvac_sets_squeeze_phase():
    state = InputState(port0=squeezed_vacuum(1.2), port1=coherent(100.0, 0.3))
    matched = apply_pmc(state, PmcId.COH_SQZ_VAC)
    assert matched.port0.squeeze_phase == pytest.approx(0.6)
    assert matched.port1 == state.port1


def test_pmc3_anchored_at_zero():
    state = InputState(
        port0=squeezed_coherent(50.0, 0.7, 1.2, 0.9),
        port1=squeezed_coherent(1000.0, 0.0, 0.6, 0.3),
    )
    matched = apply_pmc(state, PmcId.PMC3)
    assert matched.port1.squeeze_phase == pytest.approx(math.pi)
    assert matched.port0.squeeze_phase == 0.0
    assert matched.port0.amplitude_phase == pytest.approx(-math.pi / 2)


def test_pmc1_anchored_at_nonzero_alpha_phase():
    state = InputState(
        port0=squeezed_coherent(1.0, 0.0, 0.5, 0.0),
        port1=squeezed_coherent(2.0, 0.7, 0.3, 0.0),
    )
    matched = apply_pmc(state, PmcId.PMC1)
    assert matched.port1.amplitude_phase == 0.7
    assert matched.port0.squeeze_phase == pytest.approx(1.4)
    assert matched.port1.squeeze_phase == pytest.approx(1.4 + math.pi)
    assert matched.port0.amplitude_phase == pytest.approx(0.7)


def test_pmc_incompatible_family_raises():
    state = InputState(port0=fock(1), port1=coherent(2.0))
    with pytest.raises(IncompatiblePmc):
        apply_pmc(state, PmcId.COH_SQZ_VAC)
    with pytest.raises(IncompatiblePmc):
        apply_pmc(state, PmcId.PMC1)


# ---------------------------------------------------------------------------
# photon budget
# ---------------------------------------------------------------------------

def test_mean_total_photons_examples():
    assert mean_total_photons(InputState(port0=vacuum(), port1=coherent(3.0))) == 9.0
    assert mean_total_photons(
        InputState(port0=squeezed_vacuum(1.2), port1=coherent(100.0))
    ) == pytest.approx(10002.278473583483, rel=1e-14)
    assert mean_total_photons(
        InputState(port0=fock(3), port1=coherent(1000.0))
    ) == pytest.approx(1000003.0)
