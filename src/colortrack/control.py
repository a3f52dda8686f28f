"""PI gain design by pole placement and the bilinear-discretized control law.

The closed loop of a first-order plant K/(tau*s + 1) under PI control is
second order; its characteristic polynomial is matched to the target
s^2 + 2*xi*wn*s + wn^2 derived from a settling-time / percent-overshoot
pair (2% settling convention, ts = 4/(xi*wn)).

Given a sampling period t, the design is made for the sampled loop
instead: the target poles s_i map to z-plane poles exp(s_i*t), which are
placed against the zero-order-hold plant b/(z - a) under the incremental
PI law (Astrom & Wittenmark, Computer-Controlled Systems, ch. 5). Gains
placed in continuous time and then discretized would move the poles and
overshoot well past the spec at slow frame rates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class PlantModel:
    """First-order servo axis: steady-state gain and time constant."""

    k: float  # output units per unit command
    tau: float  # seconds

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.k, self.tau)):
            raise ValueError("plant gain and time constant must be finite "
                             "and > 0")


@dataclass(frozen=True)
class LoopSpec:
    """Closed-loop transient targets."""

    ts: float  # settling time, seconds (2% band)
    po: float  # percent overshoot, in (0, 100)

    def __post_init__(self):
        if not (math.isfinite(self.ts) and self.ts > 0):
            raise ValueError("settling time must be finite and > 0")
        if not 0 < self.po < 100:
            raise ValueError("percent overshoot must be in (0, 100)")


@dataclass(frozen=True)
class PiGains:
    kp: float  # dimensionless
    ki: float  # 1/s


@dataclass(frozen=True)
class DesignDiagnostics:
    xi: float  # damping factor
    wn: float  # natural frequency, rad/s
    poles: tuple[complex, complex]


def damping_from_po(po: float) -> float:
    """Damping factor that yields the given percent overshoot.

    Inverts PO = 100 * exp(-xi*pi / sqrt(1 - xi^2)).
    """
    if not 0 < po < 100:
        raise ValueError("percent overshoot must be in (0, 100)")
    ln = math.log(po / 100.0)
    return -ln / math.sqrt(math.pi**2 + ln**2)


def feasible(plant: PlantModel, spec: LoopSpec) -> bool:
    """Whether pole placement meets spec on plant: ts <= 8*tau, else kp < 0."""
    return spec.ts <= 8 * plant.tau


def sampled_feasible(plant: PlantModel, spec: LoopSpec, t: float) -> bool:
    """Whether sampled pole placement at period t gives plant finite PI
    coefficients: its b is not 0 and its c0 and c1 do not overflow."""
    try:
        _place_sampled(plant, _target(spec).poles, t)
    except ValueError:
        return False
    return True


def _target(spec: LoopSpec) -> DesignDiagnostics:
    """xi, wn and the continuous s-plane poles that meet spec."""
    xi = damping_from_po(spec.po)
    wn = 4.0 / (spec.ts * xi)
    root = cmath.sqrt(complex(xi**2 - 1.0, 0.0))
    return DesignDiagnostics(xi, wn, (wn * (-xi + root), wn * (-xi - root)))


def _place_sampled(plant: PlantModel, poles: tuple[complex, complex],
                   t: float) -> tuple[float, float]:
    """c0 and c1 that place the sampled loop's poles at exp(s_i*t)."""
    p1, p2 = (cmath.exp(p * t) for p in poles)
    a = math.exp(-t / plant.tau)
    b = (1.0 - a) * plant.k
    if b == 0:
        raise ValueError(f"degenerate sampled plant b/(z - a) at t={t:g} s: "
                         f"a={a:.17g} gives b = 0")
    c0 = (1.0 + a - (p1 + p2).real) / b
    c1 = ((p1 * p2).real - a) / b
    if not (math.isfinite(c0) and math.isfinite(c1)):
        raise ValueError(f"degenerate sampled plant b/(z - a) at t={t:g} s: "
                         f"b={b:g} gives PI coefficients c0={c0:g}, "
                         f"c1={c1:g}, not finite")
    return c0, c1


def design_gains(plant: PlantModel, spec: LoopSpec,
                 t: Optional[float] = None) -> tuple[PiGains,
                                                     DesignDiagnostics]:
    """Place the closed-loop poles to meet the settling/overshoot spec.

    Without t the poles are placed in continuous time: matching
    tau*s^2 + (1 + kp*K)*s + ki*K against the target polynomial with
    xi*wn = 4/ts gives kp = (8*tau/ts - 1)/K and ki = wn^2*tau/K.

    With a sampling period t the same target poles s_i are placed in the
    z-plane at p_i = exp(s_i*t), for the loop that runs at that period:
    the incremental law C(z) = (c0*z + c1)/(z - 1) driving the exact
    zero-order-hold plant b/(z - a), a = exp(-t/tau), b = (1 - a)*K.
    Matching (z - 1)(z - a) + b*(c0*z + c1) to (z - p1)(z - p2) gives
    c0 = (1 + a - p1 - p2)/b and c1 = (p1*p2 - a)/b, and the returned
    gains are the ones whose Tustin discretization (`discretize` at t)
    yields exactly those coefficients: kp = (c0 - c1)/2, ki = (c0 + c1)/t.
    Only the poles are placed: the PI's zero -c1/c0 is 0 at ts = 8*tau but
    adds overshoot beyond po for faster specs.

    In both forms specs with ts > 8*tau are rejected (the continuous
    design would need kp < 0), and the diagnostics report xi, wn and the
    continuous s-plane poles. Continuous gains that overflow, and a
    sampled plant whose b rounds to 0 or whose c0 or c1 overflows
    (`sampled_feasible` is false), are rejected too.
    """
    if not feasible(plant, spec):
        raise ValueError(
            f"infeasible spec: ts={spec.ts:g} s exceeds 8*tau="
            f"{8 * plant.tau:g} s (kp would be negative)")
    if t is not None and t <= 0:
        raise ValueError("sampling period must be > 0")
    diag = _target(spec)
    if t is None:
        kp = (8.0 * plant.tau / spec.ts - 1.0) / plant.k
        ki = diag.wn * diag.wn * plant.tau / plant.k  # inf, not OverflowError
        if not (math.isfinite(kp) and math.isfinite(ki)):
            raise ValueError(f"gains kp={kp:g}, ki={ki:g} are not finite "
                             f"for K={plant.k:g}, tau={plant.tau:g}, "
                             f"ts={spec.ts:g}")
        return PiGains(kp, ki), diag
    c0, c1 = _place_sampled(plant, diag.poles, t)
    return PiGains((c0 - c1) / 2.0, (c0 + c1) / t), diag


@dataclass(frozen=True)
class IncrementalCoeffs:
    """Coefficients of the incremental law U[k] = U[k-1] + c1*E[k-1] + c0*E[k]."""

    c0: float  # multiplies E[k]
    c1: float  # multiplies E[k-1]


def discretize(gains: PiGains, t: float) -> IncrementalCoeffs:
    """Bilinear (Tustin) discretization of the PI controller at period t."""
    if t <= 0:
        raise ValueError("sampling period must be > 0")
    half = gains.ki * t / 2.0
    return IncrementalCoeffs(c0=half + gains.kp, c1=half - gains.kp)


@dataclass(frozen=True)
class ControllerState:
    """Runtime state of one axis: previous command, previous error, limits."""

    u_prev: float = 0.0
    e_prev: float = 0.0
    u_min: float = field(kw_only=True)
    u_max: float = field(kw_only=True)

    def __post_init__(self):
        if not self.u_min < self.u_max:
            raise ValueError("saturation limits must satisfy u_min < u_max")
        if not self.u_min <= self.u_prev <= self.u_max:
            raise ValueError("u_prev outside saturation limits")


def pi_step(state: ControllerState, coeffs: IncrementalCoeffs,
            e: float) -> tuple[float, ControllerState]:
    """One tick of the incremental control law with clamping anti-windup.

    The stored previous command is the clamped output, so the implicit
    integrator cannot wind up while saturated.
    """
    if not math.isfinite(e):
        raise ValueError(f"non-finite error input: {e}")
    u_raw = state.u_prev + state.e_prev * coeffs.c1 + e * coeffs.c0
    u = min(max(u_raw, state.u_min), state.u_max)
    return u, ControllerState(u, e, u_min=state.u_min, u_max=state.u_max)
