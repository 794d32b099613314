"""Continuous-model data: parameters, potential split, viscosities,
mobilities, sources, boundary/initial data, plus the assumption audit.

Everything here is immutable after construction and evaluators are expected
to be pure, numpy-broadcastable scalar functions, so specs can be shared
freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ModelParams:
    epsilon: float = 0.05
    nu: float = 1.0
    K: float = 100.0
    chi: float = 0.0


@dataclass(frozen=True)
class PotentialSpec:
    """Double-well potential with its convex/bounded-curvature split.

    psi = psi1 + psi2 with
        r1*(1+|s|^(rho-2)) <= psi1''(s) <= r2*(1+|s|^(rho-2)),
        |psi2''(s)| <= r3,  rho in [2, 6]  (and 2*r1 > r3 when rho = 2).
    """

    psi: Evaluator
    dpsi: Evaluator
    ddpsi1: Evaluator
    ddpsi2: Evaluator
    rho: float
    r1: float
    r2: float
    r3: float


def default_quartic_potential() -> PotentialSpec:
    """psi(s) = (1-s^2)^2/4 split as psi1 = s^4/4 + s^2/2, psi2 = -s^2 + 1/4,
    so psi1'' = 3s^2+1, psi2'' = -2, rho=4, (r1, r2, r3) = (1, 3, 2)."""
    return PotentialSpec(
        psi=lambda s: 0.25 * (1.0 - s**2) ** 2,
        dpsi=lambda s: s * s * s - s,  # numpy's **3 goes through pow
        ddpsi1=lambda s: 3.0 * s**2 + 1.0,
        ddpsi2=lambda s: -2.0 * np.ones_like(np.asarray(s, dtype=float)),
        rho=4.0,
        r1=1.0,
        r2=3.0,
        r3=2.0,
    )


def smooth_blend(a: float, b: float) -> Evaluator:
    """s -> a + (b-a)*(1+tanh(s))/2: bounded with bounded derivative."""
    return lambda s: a + (b - a) * 0.5 * (1.0 + np.tanh(s))


@dataclass(frozen=True)
class ViscositySpec:
    eta: Evaluator
    lam: Evaluator
    eta0: float
    eta1: float
    lam0: float


def constant_viscosity(eta: float, lam: float = 0.0) -> ViscositySpec:
    return ViscositySpec(
        eta=lambda s: eta * np.ones_like(np.asarray(s, dtype=float)),
        lam=lambda s: lam * np.ones_like(np.asarray(s, dtype=float)),
        eta0=eta, eta1=eta, lam0=lam,
    )


def blended_viscosity(eta_a: float, eta_b: float,
                      lam_a: float = 0.0, lam_b: float = 0.0) -> ViscositySpec:
    return ViscositySpec(
        eta=smooth_blend(eta_a, eta_b),
        lam=smooth_blend(lam_a, lam_b),
        eta0=min(eta_a, eta_b), eta1=max(eta_a, eta_b),
        lam0=max(lam_a, lam_b),
    )


@dataclass(frozen=True)
class MobilitySpec:
    m: Evaluator
    m0: float
    m1: float


def constant_mobility(m: float = 1.0) -> MobilitySpec:
    return MobilitySpec(
        m=lambda s: m * np.ones_like(np.asarray(s, dtype=float)),
        m0=m, m1=m,
    )


def blended_mobility(m_a: float, m_b: float) -> MobilitySpec:
    return MobilitySpec(m=smooth_blend(m_a, m_b),
                        m0=min(m_a, m_b), m1=max(m_a, m_b))


@dataclass(frozen=True)
class SourceSpec:
    """Gamma_v = b_v(phi)*sigma + f_v(phi), Gamma_phi = b_phi(phi)*sigma
    + f_phi(phi); h is the nutrient consumption rate (bounded, >= 0)."""

    b_v: Evaluator
    f_v: Evaluator
    b_phi: Evaluator
    f_phi: Evaluator
    h: Evaluator


def _zero(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def zero_sources(h_value: float = 1.0) -> SourceSpec:
    return SourceSpec(
        b_v=_zero, f_v=_zero, b_phi=_zero, f_phi=_zero,
        h=lambda s: h_value * np.ones_like(np.asarray(s, dtype=float)),
    )


def eval_source_gamma_v(sources: SourceSpec, phi, sigma):
    return sources.b_v(phi) * sigma + sources.f_v(phi)


def eval_source_gamma_phi(sources: SourceSpec, phi, sigma):
    return sources.b_phi(phi) * sigma + sources.f_phi(phi)


@dataclass(frozen=True)
class RandomPerturbation:
    """Initial condition: base plus band-limited noise of the given peak
    amplitude, built from the first `modes` Neumann cosine modes with
    seeded uniform coefficients.

    Band-limiting keeps the perturbation resolvable in space and time
    (white cell noise would relax by O(1) within a single implicit step,
    hiding the scheme's O(dt) behaviour behind a stiff initial layer).
    """

    seed: int
    amplitude: float
    base: float = 0.0
    modes: int = 2


# sigma_inf: constant | per-boundary-face array | t -> (constant or array)
SigmaInf = Union[float, np.ndarray, Callable[[float], Union[float, np.ndarray]]]
Phi0 = Union[float, Callable[[np.ndarray, np.ndarray], np.ndarray], RandomPerturbation]


@dataclass(frozen=True)
class ModelSpec:
    params: ModelParams = field(default_factory=ModelParams)
    potential: PotentialSpec = field(default_factory=default_quartic_potential)
    viscosity: ViscositySpec = field(default_factory=lambda: constant_viscosity(1.0))
    mobility: MobilitySpec = field(default_factory=constant_mobility)
    sources: SourceSpec = field(default_factory=zero_sources)
    sigma_inf: SigmaInf = 0.0
    phi0: Phi0 = 0.0


# assumption audit -----------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    assumption: str
    passed: bool
    detail: str
    worst_sample: float = math.nan
    worst_value: float = math.nan


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def __str__(self):
        lines = []
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            loc = "" if math.isnan(e.worst_sample) else (
                f" (worst at s={e.worst_sample:.6g}: {e.worst_value:.6g})")
            lines.append(f"[{status}] {e.assumption}: {e.detail}{loc}")
        return "\n".join(lines)


def _eval_array(f: Evaluator, s: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(f(s), dtype=float)
        if out.shape == s.shape:
            return out
        if out.ndim == 0:
            return np.full_like(s, float(out))
    except (TypeError, ValueError):
        pass
    return np.asarray([float(f(v)) for v in s])


def _finite_or_raise(name: str, values: np.ndarray, samples: np.ndarray):
    bad = ~np.isfinite(values)
    if np.any(bad):
        s = samples[bad][0]
        raise ValueError(f"evaluator {name} returned a non-finite value at s={s}")


def _bound_check(assumption, detail, violation: np.ndarray, samples: np.ndarray,
                 values: np.ndarray) -> CheckResult:
    """violation > 0 marks a failed sample; report the worst one."""
    k = int(np.argmax(violation))
    if violation[k] > 0.0:
        return CheckResult(assumption, False, detail,
                           float(samples[k]), float(values[k]))
    return CheckResult(assumption, True, detail)


def validate(spec: ModelSpec) -> ValidationReport:
    """Audit assumptions (A1)-(A5) on the 40,001 evenly spaced samples of
    s in [-20, 20] (a spacing of 1e-3).

    tanh rounds to exactly +-1 in double precision from about |s| = 19 on,
    so the range samples both end values of every ``smooth_blend``
    exactly.

    Structural errors (rho outside [2,6], rho=2 with 2*r1 <= r3, non-finite
    evaluator output) raise ValueError; ordinary bound violations come back
    as failed report entries naming the assumption.  Pure: identical
    inputs give an identical report.
    """
    pot = spec.potential
    if not (2.0 <= pot.rho <= 6.0):
        raise ValueError(f"(A5): growth exponent rho must lie in [2,6], got {pot.rho}")
    if pot.rho == 2.0 and not (2.0 * pot.r1 > pot.r3):
        raise ValueError("(A5): 2*R1 > R3 required when rho = 2")

    s = np.linspace(-20.0, 20.0, 40001)
    entries = []

    p = spec.params
    a1_ok = p.epsilon > 0 and p.nu > 0 and p.K > 0 and p.chi >= 0
    entries.append(CheckResult(
        "(A1)", a1_ok,
        "epsilon, nu, K positive and chi non-negative" if a1_ok else
        f"bad constants: epsilon={p.epsilon}, nu={p.nu}, K={p.K}, "
        f"chi={p.chi}"))

    # (A2) mobility bounds
    mv = _eval_array(spec.mobility.m, s)
    _finite_or_raise("m", mv, s)
    if spec.mobility.m0 <= 0:
        entries.append(CheckResult("(A2)", False,
                                   f"m0 must be positive, got {spec.mobility.m0}"))
    else:
        viol = np.maximum(spec.mobility.m0 - mv, mv - spec.mobility.m1)
        entries.append(_bound_check("(A2)", "m0 <= m(s) <= m1", viol, s, mv))

    # (A3) viscosity bounds
    ev = _eval_array(spec.viscosity.eta, s)
    lv = _eval_array(spec.viscosity.lam, s)
    _finite_or_raise("eta", ev, s)
    _finite_or_raise("lambda", lv, s)
    if spec.viscosity.eta0 <= 0:
        entries.append(CheckResult("(A3)", False,
                                   f"eta0 must be positive, got {spec.viscosity.eta0}"))
    else:
        viol = np.maximum(spec.viscosity.eta0 - ev, ev - spec.viscosity.eta1)
        entries.append(_bound_check("(A3)", "eta0 <= eta(s) <= eta1", viol, s, ev))
    viol = np.maximum(-lv, lv - spec.viscosity.lam0)
    entries.append(_bound_check("(A3)", "0 <= lambda(s) <= lambda0", viol, s, lv))

    # (A4) sources bounded (finite on the grid), h non-negative
    for name, f in (("b_v", spec.sources.b_v), ("f_v", spec.sources.f_v),
                    ("b_phi", spec.sources.b_phi), ("f_phi", spec.sources.f_phi)):
        fv = _eval_array(f, s)
        _finite_or_raise(name, fv, s)
        entries.append(CheckResult("(A4)", True,
                                   f"{name} bounded on the sampling grid "
                                   f"(max |{name}| = {np.max(np.abs(fv)):.6g})"))
    hv = _eval_array(spec.sources.h, s)
    _finite_or_raise("h", hv, s)
    entries.append(_bound_check("(A4)", "h >= 0", -hv, s, hv))

    # (A5) potential split
    psi_v = _eval_array(pot.psi, s)
    d1 = _eval_array(pot.ddpsi1, s)
    d2 = _eval_array(pot.ddpsi2, s)
    for name, v in (("psi", psi_v), ("psi1''", d1), ("psi2''", d2)):
        _finite_or_raise(name, v, s)
    if not (0 < pot.r1 < pot.r2) or pot.r3 <= 0:
        entries.append(CheckResult(
            "(A5)", False,
            f"need 0 < R1 < R2 and R3 > 0, got R1={pot.r1}, R2={pot.r2}, R3={pot.r3}"))
    entries.append(_bound_check("(A5)", "psi >= 0", -psi_v, s, psi_v))
    growth = 1.0 + np.abs(s) ** (pot.rho - 2.0)
    viol = np.maximum(pot.r1 * growth - d1, d1 - pot.r2 * growth)
    entries.append(_bound_check(
        "(A5)", "R1(1+|s|^(rho-2)) <= psi1''(s) <= R2(1+|s|^(rho-2))", viol, s, d1))
    entries.append(_bound_check("(A5)", "|psi2''(s)| <= R3",
                                np.abs(d2) - pot.r3, s, d2))

    return ValidationReport(tuple(entries))
