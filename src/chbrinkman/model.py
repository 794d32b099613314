"""Continuous-model data: parameters, potential split, viscosities,
mobilities, sources, boundary/initial data, plus the assumption audit.

Everything here is immutable after construction and evaluators are pure,
so specs can be shared freely across threads.  An evaluator takes an array
of samples and returns a float array of the same shape: the contract the
solvers rely on, which ``sampled_evaluators`` checks for both the
assumption audit ``validate`` and a trajectory's first level.
``constant`` builds the evaluator of a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

Evaluator = Callable[[np.ndarray], np.ndarray]


def constant(c: float) -> Evaluator:
    """The evaluator s -> c: a float array of the shape of s."""
    return lambda s: np.full(np.shape(s), float(c))


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
        ddpsi2=constant(-2.0),
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
        eta=constant(eta), lam=constant(lam), eta0=eta, eta1=eta, lam0=lam)


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
    return MobilitySpec(m=constant(m), m0=m, m1=m)


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


def zero_sources(h_value: float = 1.0) -> SourceSpec:
    zero = constant(0.0)
    return SourceSpec(b_v=zero, f_v=zero, b_phi=zero, f_phi=zero,
                      h=constant(h_value))


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


def _sampled(name: str, f: Evaluator, s: np.ndarray) -> np.ndarray:
    """f(s), which must be a finite float array of the shape of s: the
    contract the solvers rely on.  Anything else raises a ValueError naming
    the evaluator."""
    try:
        out = f(s)
    except Exception as err:
        raise ValueError(f"evaluator {name} cannot be evaluated on an array: "
                         f"{type(err).__name__}: {err}") from err
    if not (isinstance(out, np.ndarray) and out.dtype.kind == "f"
            and out.shape == s.shape):
        got = getattr(out, "dtype", type(out).__name__)
        raise ValueError(f"evaluator {name} must return a float array of the "
                         f"shape {s.shape} of its argument, got {got} of "
                         f"shape {np.shape(out)}")
    bad = ~np.isfinite(out)
    if np.any(bad):
        raise ValueError(f"evaluator {name} returned a non-finite value at "
                         f"s={s[bad][0]}")
    return out


def sampled_evaluators(spec: ModelSpec):
    """(s, values): the 40,001 evenly spaced samples s of [-20, 20] (a
    spacing of 1e-3) and the value on them of each evaluator of spec, by
    name, sampled in the order m, eta, lambda, b_v, f_v, b_phi, f_phi, h,
    psi, psi1'', psi2''.  The first evaluator that fails on the array or
    does not return a finite float array of its shape raises a ValueError
    naming it: the contract check that ``validate`` and a trajectory's
    ``stepper.initialize_state`` both make."""
    pot, mob, visc, src = (spec.potential, spec.mobility, spec.viscosity,
                           spec.sources)
    s = np.linspace(-20.0, 20.0, 40001)
    return s, {name: _sampled(name, f, s) for name, f in (
        ("m", mob.m), ("eta", visc.eta), ("lambda", visc.lam),
        ("b_v", src.b_v), ("f_v", src.f_v), ("b_phi", src.b_phi),
        ("f_phi", src.f_phi), ("h", src.h), ("psi", pot.psi),
        ("psi1''", pot.ddpsi1), ("psi2''", pot.ddpsi2))}


def _bound_check(assumption, detail, values: np.ndarray, lower, upper,
                 s: np.ndarray) -> CheckResult:
    """lower <= values <= upper on the samples s; a failed entry reports the
    worst sample."""
    violation = np.maximum(lower - values, values - upper)
    k = int(np.argmax(violation))
    if violation[k] > 0.0:
        return CheckResult(assumption, False, detail, float(s[k]),
                           float(values[k]))
    return CheckResult(assumption, True, detail)


def validate(spec: ModelSpec) -> ValidationReport:
    """Audit assumptions (A1)-(A5) on the samples of ``sampled_evaluators``.

    tanh rounds to exactly +-1 in double precision from about |s| = 19 on,
    so the range samples both end values of every ``smooth_blend``
    exactly.

    Structural errors raise ValueError: rho outside [2,6], rho=2 with
    2*r1 <= r3, and an evaluator that breaks the contract
    (``sampled_evaluators``).  Ordinary bound
    violations come back as failed report entries naming the assumption.
    Pure: identical inputs give an identical report.
    """
    pot, mob, visc = spec.potential, spec.mobility, spec.viscosity
    if not (2.0 <= pot.rho <= 6.0):
        raise ValueError(f"(A5): growth exponent rho must lie in [2,6], got {pot.rho}")
    if pot.rho == 2.0 and not (2.0 * pot.r1 > pot.r3):
        raise ValueError("(A5): 2*R1 > R3 required when rho = 2")

    s, v = sampled_evaluators(spec)

    p = spec.params
    a1_ok = p.epsilon > 0 and p.nu > 0 and p.K > 0 and p.chi >= 0
    entries = [CheckResult(
        "(A1)", a1_ok,
        "epsilon, nu, K positive and chi non-negative" if a1_ok else
        f"bad constants: epsilon={p.epsilon}, nu={p.nu}, K={p.K}, "
        f"chi={p.chi}")]

    # (A2) mobility bounds
    entries.append(
        CheckResult("(A2)", False, f"m0 must be positive, got {mob.m0}")
        if mob.m0 <= 0 else
        _bound_check("(A2)", "m0 <= m(s) <= m1", v["m"], mob.m0, mob.m1, s))

    # (A3) viscosity bounds
    entries.append(
        CheckResult("(A3)", False, f"eta0 must be positive, got {visc.eta0}")
        if visc.eta0 <= 0 else
        _bound_check("(A3)", "eta0 <= eta(s) <= eta1", v["eta"], visc.eta0,
                     visc.eta1, s))
    entries.append(_bound_check("(A3)", "0 <= lambda(s) <= lambda0",
                                v["lambda"], 0.0, visc.lam0, s))

    # (A4) sources bounded (finite on the grid), h non-negative
    entries += [CheckResult("(A4)", True, f"{name} bounded on the sampling "
                            f"grid (max |{name}| = {np.max(np.abs(v[name])):.6g})")
                for name in ("b_v", "f_v", "b_phi", "f_phi")]
    entries.append(_bound_check("(A4)", "h >= 0", v["h"], 0.0, np.inf, s))

    # (A5) potential split
    if not (0 < pot.r1 < pot.r2) or pot.r3 <= 0:
        entries.append(CheckResult(
            "(A5)", False,
            f"need 0 < R1 < R2 and R3 > 0, got R1={pot.r1}, R2={pot.r2}, R3={pot.r3}"))
    entries.append(_bound_check("(A5)", "psi >= 0", v["psi"], 0.0, np.inf, s))
    growth = 1.0 + np.abs(s) ** (pot.rho - 2.0)
    entries.append(_bound_check(
        "(A5)", "R1(1+|s|^(rho-2)) <= psi1''(s) <= R2(1+|s|^(rho-2))",
        v["psi1''"], pot.r1 * growth, pot.r2 * growth, s))
    entries.append(_bound_check("(A5)", "|psi2''(s)| <= R3", v["psi2''"],
                                -pot.r3, pot.r3, s))

    return ValidationReport(tuple(entries))
