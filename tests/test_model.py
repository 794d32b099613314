import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chbrinkman import (MobilitySpec, ModelParams, ModelSpec, SourceSpec,
                        blended_viscosity, constant, constant_viscosity,
                        default_quartic_potential, eval_source_gamma_phi,
                        eval_source_gamma_v, smooth_blend, validate,
                        zero_sources)


def test_quartic_well_values():
    pot = default_quartic_potential()
    assert pot.psi(1.0) == pytest.approx(0.0)
    assert pot.psi(0.0) == pytest.approx(0.25)
    # split bounds at s = 2: 1*(1+4) <= psi1''(2) = 13 <= 3*(1+4)
    assert pot.ddpsi1(2.0) == pytest.approx(13.0)
    assert pot.r1 * 5.0 <= pot.ddpsi1(2.0) <= pot.r2 * 5.0


@given(st.floats(-10.0, 10.0))
def test_quartic_split_consistency(s):
    # psi1'' + psi2'' is psi'' = (psi')': a central difference of psi' with
    # step h is exact up to h^2*psi''''/6 = h^2 for the quartic, plus the
    # rounding of |psi'| <= 1000 over 2h
    pot = default_quartic_potential()
    h = 1e-4
    slope = (pot.dpsi(s + h) - pot.dpsi(s - h)) / (2.0 * h)
    assert pot.ddpsi1(s) + pot.ddpsi2(s) == pytest.approx(slope, rel=1e-9,
                                                          abs=1e-6)


def test_quartic_growth_lower_bound():
    pot = default_quartic_potential()
    s = np.linspace(-10.0, 10.0, 20001)
    assert np.all(pot.psi(s) >= 0.125 * np.abs(s) ** 4 - 1.0)


def test_source_evaluation_zero():
    src = zero_sources()
    assert eval_source_gamma_v(src, 0.3, 0.5) == 0.0
    assert eval_source_gamma_phi(src, -1.0, 2.0) == 0.0


def test_source_evaluation_linear_in_sigma():
    src = SourceSpec(b_v=lambda s: np.ones_like(np.asarray(s, float)),
                     f_v=lambda s: np.zeros_like(np.asarray(s, float)),
                     b_phi=lambda s: np.zeros_like(np.asarray(s, float)),
                     f_phi=lambda s: np.zeros_like(np.asarray(s, float)),
                     h=lambda s: np.ones_like(np.asarray(s, float)))
    assert eval_source_gamma_v(src, 0.3, 0.5) == pytest.approx(0.5)


def test_source_evaluation_tanh_case():
    src = SourceSpec(b_v=lambda s: 0.5 * (1.0 + np.tanh(s)),
                     f_v=lambda s: -0.1 * np.ones_like(np.asarray(s, float)),
                     b_phi=lambda s: np.zeros_like(np.asarray(s, float)),
                     f_phi=lambda s: np.zeros_like(np.asarray(s, float)),
                     h=lambda s: np.ones_like(np.asarray(s, float)))
    assert eval_source_gamma_v(src, 0.0, 1.0) == pytest.approx(0.4)


def test_default_spec_passes_audit():
    report = validate(ModelSpec())
    assert report.passed, str(report)


def broken_psi2_potential():
    base = default_quartic_potential()
    return dataclasses.replace(
        base,
        ddpsi2=lambda s: 5.0 * np.ones_like(np.asarray(s, float)))


def test_audit_fails_on_psi2_bound():
    spec = dataclasses.replace(ModelSpec(),
                               potential=broken_psi2_potential())
    report = validate(spec)
    assert not report.passed
    assert "(A5)" in {e.assumption for e in report.failures()}


def test_audit_fails_on_signed_h():
    bad = dataclasses.replace(zero_sources(), h=lambda s: np.asarray(s, float))
    spec = dataclasses.replace(ModelSpec(), sources=bad)
    report = validate(spec)
    assert not report.passed
    assert "(A4)" in {e.assumption for e in report.failures()}


def test_audit_fails_on_viscosity_outside_bounds():
    bad = dataclasses.replace(constant_viscosity(1.0),
                              eta=lambda s: 0.25 * np.ones_like(np.asarray(s, float)))
    spec = dataclasses.replace(ModelSpec(), viscosity=bad)
    report = validate(spec)
    assert not report.passed
    assert "(A3)" in {e.assumption for e in report.failures()}


def test_audit_fails_on_bad_constants():
    spec = dataclasses.replace(ModelSpec(),
                               params=ModelParams(K=-1.0))
    report = validate(spec)
    assert not report.passed
    assert "(A1)" in {e.assumption for e in report.failures()}


def test_audit_rejects_bad_rho():
    pot = dataclasses.replace(default_quartic_potential(), rho=7.0)
    with pytest.raises(ValueError, match=r"\[2,6\]"):
        validate(dataclasses.replace(ModelSpec(), potential=pot))


def test_audit_rejects_rho2_with_weak_convexity():
    pot = dataclasses.replace(default_quartic_potential(), rho=2.0,
                              r1=1.0, r3=2.5)
    with pytest.raises(ValueError, match="2\\*R1 > R3"):
        validate(dataclasses.replace(ModelSpec(), potential=pot))


def test_audit_rejects_nonfinite_evaluator():
    bad = dataclasses.replace(zero_sources(),
                              h=lambda s: np.full_like(np.asarray(s, float),
                                                       np.inf))
    with pytest.raises(ValueError, match="non-finite"):
        validate(dataclasses.replace(ModelSpec(), sources=bad))


@pytest.mark.parametrize("m", [lambda s: 1.0, math.tanh],
                         ids=["scalar", "not-vectorized"])
def test_audit_rejects_a_mobility_that_does_not_map_arrays(m):
    # the solvers evaluate m on whole cell arrays, so the audit must too:
    # a scalar or a per-sample result would pass a loop over samples and
    # then fail inside the first step
    spec = dataclasses.replace(ModelSpec(), mobility=MobilitySpec(
        m=m, m0=0.5, m1=1.0))
    with pytest.raises(ValueError, match="evaluator m "):
        validate(spec)


@pytest.mark.parametrize("s", [np.float64(0.3), np.arange(6).reshape(2, 3)],
                         ids=["0-d", "2-d"])
def test_constant_returns_a_float_array_of_its_arguments_shape(s):
    out = constant(-2.5)(s)
    assert isinstance(out, np.ndarray)
    assert out.dtype == np.float64
    assert out.shape == np.shape(s)
    assert np.all(out == -2.5)


def test_audit_is_pure():
    spec = ModelSpec()
    assert validate(spec) == validate(spec)


def test_smooth_blend_bounded():
    f = smooth_blend(0.5, 2.0)
    s = np.linspace(-50, 50, 1001)
    assert np.all(f(s) >= 0.5 - 1e-12) and np.all(f(s) <= 2.0 + 1e-12)


def test_audit_samples_the_ends_of_a_blend():
    # lam_a = -1e-6 is within 4.5e-5*(lam_b - lam_a) of lam(s) at s = -5,
    # so only samples where tanh(s) is exactly -1 see it
    spec = dataclasses.replace(ModelSpec(),
                               viscosity=blended_viscosity(1.0, 1.0, -1e-6,
                                                           1.0))
    report = validate(spec)
    assert {e.assumption for e in report.failures()} == {"(A3)"}
    assert report.failures()[0].worst_value == -1e-6


def test_blended_viscosity_passes_audit():
    spec = dataclasses.replace(ModelSpec(),
                               viscosity=blended_viscosity(0.5, 2.0, 0.0, 0.3))
    assert validate(spec).passed


def test_model_types_immutable():
    spec = ModelSpec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.params = ModelParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.params.epsilon = 1.0
