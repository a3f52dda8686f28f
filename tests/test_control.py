import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from colortrack.control import (ControllerState, IncrementalCoeffs, LoopSpec,
                                PiGains, PlantModel, damping_from_po,
                                design_gains, discretize, pi_step)
from colortrack.harness import DEFAULT_SAMPLE_TIME
from colortrack.plant import plant_step
from oracles import closed_loop_tf, po_from_damping


def test_type_validation():
    with pytest.raises(ValueError):
        PlantModel(0.0, 1.0)
    with pytest.raises(ValueError):
        PlantModel(1.0, -1.0)
    with pytest.raises(ValueError):
        LoopSpec(ts=0.0, po=10.0)
    with pytest.raises(ValueError):
        LoopSpec(ts=1.0, po=100.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="settling time"):
            LoopSpec(ts=bad, po=10.0)
        with pytest.raises(ValueError, match="plant gain"):
            PlantModel(bad, 1.0)
        with pytest.raises(ValueError, match="plant gain"):
            PlantModel(1.0, bad)


def test_damping_examples():
    # po -> 100 limit: xi -> 0
    assert damping_from_po(99.999) < 1e-4
    # po = 100*e^-pi makes ln(po/100) = -pi, so xi = pi/sqrt(2*pi^2)
    assert damping_from_po(100 * math.exp(-math.pi)) == pytest.approx(
        1 / math.sqrt(2), rel=1e-12)
    # evaluate the overshoot formula at xi=0.5 and invert
    assert damping_from_po(po_from_damping(0.5)) == pytest.approx(0.5,
                                                                  rel=1e-12)
    assert damping_from_po(16.3) == pytest.approx(0.5, abs=1e-4)


def test_damping_domain():
    for po in (0.0, 100.0, -5.0):
        with pytest.raises(ValueError):
            damping_from_po(po)


@given(st.floats(0.1, 99.0))
@settings(max_examples=200)
def test_damping_round_trip(po):
    assert po_from_damping(damping_from_po(po)) == pytest.approx(po, rel=1e-9)


def test_design_kp_boundary():
    gains, _ = design_gains(PlantModel(1.0, 1.0), LoopSpec(ts=8.0, po=10.0))
    assert gains.kp == pytest.approx(0.0, abs=1e-12)


def test_design_worked_example():
    # ts=4, po=100*e^-pi: xi=1/sqrt(2), wn=sqrt(2), so ki = wn^2*tau/K = 2
    gains, diag = design_gains(PlantModel(1.0, 1.0),
                               LoopSpec(ts=4.0, po=100 * math.exp(-math.pi)))
    assert gains.kp == pytest.approx(1.0, rel=1e-12)
    assert gains.ki == pytest.approx(2.0, rel=1e-12)
    assert diag.xi == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert diag.wn == pytest.approx(math.sqrt(2), rel=1e-12)


def test_design_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        design_gains(PlantModel(1.0, 0.15), LoopSpec(ts=1.6, po=5.0))


@pytest.mark.parametrize("k, tau, ts", [
    (1e-320, 0.2, 1.6),  # ki = wn^2*tau/K overflows; kp is exactly 0
    (1.0, 0.2, 1e-320),  # 8*tau/ts and wn = 4/(ts*xi) overflow
    (1.0, 0.2, 1e-200),  # wn is finite, but wn^2 overflows
], ids=["k-1e-320", "ts-1e-320", "ts-1e-200"])
def test_design_rejects_gains_that_are_not_finite(k, tau, ts):
    with pytest.raises(ValueError, match=r"gains kp=\S+, ki=inf are not "
                                         r"finite for K="):
        design_gains(PlantModel(k, tau), LoopSpec(ts=ts, po=5.0))


@given(st.floats(0.1, 20.0), st.floats(0.05, 2.0), st.floats(0.3, 0.99),
       st.floats(1.0, 60.0))
@settings(max_examples=200)
def test_design_pole_oracle(k, tau, ts_frac, po):
    """Roots of the closed-loop denominator land where the spec demands."""
    ts = 8 * tau * ts_frac
    plant = PlantModel(k, tau)
    gains, diag = design_gains(plant, LoopSpec(ts, po))
    num, den = closed_loop_tf(plant, gains)
    roots = np.roots(den)
    for r in roots:
        assert abs(r.real - (-4.0 / ts)) <= 1e-9 * (4.0 / ts)
    # the diagnostic (xi, wn) reproduces the same polynomial
    assert diag.xi * diag.wn == pytest.approx(4.0 / ts, rel=1e-12)
    assert po_from_damping(diag.xi) == pytest.approx(po, rel=1e-9)
    # DC gain is exactly 1: num and den share the constant coefficient
    assert num[-1] / den[-1] == 1.0
    assert sorted(np.round(roots, 9)) == pytest.approx(
        sorted(np.round(diag.poles, 9)), rel=1e-6)


def test_closed_loop_tf_example():
    num, den = closed_loop_tf(PlantModel(1.0, 1.0), PiGains(0.0, 1.0))
    assert num == (0.0, 1.0)
    assert den == (1.0, 1.0, 1.0)


def test_discretize_examples():
    c = discretize(PiGains(kp=1.0, ki=0.0), t=0.5)
    assert (c.c1, c.c0) == (-1.0, 1.0)
    c = discretize(PiGains(kp=0.0, ki=2.0), t=1.0)
    assert (c.c1, c.c0) == (1.0, 1.0)
    with pytest.raises(ValueError):
        discretize(PiGains(1.0, 1.0), t=0.0)


def test_pi_step_pure_p_constant_error():
    c = discretize(PiGains(kp=2.0, ki=0.0), t=0.1)
    state = ControllerState(u_prev=0.5, e_prev=3.0, u_min=-10, u_max=10)
    u, state = pi_step(state, c, 3.0)
    # increments cancel for constant error under pure P
    assert u == pytest.approx(0.5)
    u, state = pi_step(state, c, 3.0)
    assert u == pytest.approx(0.5)


def test_pi_step_zero_error_equilibrium():
    c = discretize(PiGains(1.0, 1.0), t=0.1)
    state = ControllerState(u_prev=0.7, u_min=-1, u_max=1)
    for _ in range(5):
        u, state = pi_step(state, c, 0.0)
        assert u == pytest.approx(0.7)


def test_pi_step_hand_trace():
    # kp=0, ki=2, T=1: c0 = c1 = 1
    c = discretize(PiGains(kp=0.0, ki=2.0), t=1.0)
    state = ControllerState(u_min=-100, u_max=100)
    u, state = pi_step(state, c, 1.0)
    assert u == pytest.approx(1.0)
    u, state = pi_step(state, c, 1.0)
    assert u == pytest.approx(3.0)


def test_pi_step_rejects_non_finite():
    c = IncrementalCoeffs(1.0, 0.0)
    state = ControllerState(u_min=-1.0, u_max=1.0)
    with pytest.raises(ValueError, match="non-finite"):
        pi_step(state, c, math.nan)


def test_pi_step_saturation_and_anti_windup():
    c = discretize(PiGains(kp=0.0, ki=2.0), t=1.0)
    state = ControllerState(u_min=-1.0, u_max=1.0)
    for _ in range(10):
        u, state = pi_step(state, c, 5.0)
    assert u == 1.0
    assert state.u_prev == 1.0  # clamped value is what gets stored
    # recovery is fast once the error flips: the stored command never wound
    # past the limit, so one more step with reversed error pulls it down
    u, state = pi_step(state, c, -5.0)
    u, state = pi_step(state, c, -5.0)
    assert u == -1.0


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=100)
def test_pi_step_linear_without_saturation(u_prev, e_prev, e, a, b):
    c = IncrementalCoeffs(c0=1.3, c1=-0.4)
    big = ControllerState(u_prev=u_prev, e_prev=e_prev,
                          u_min=-1e9, u_max=1e9)
    u, _ = pi_step(big, c, e)
    assert u == pytest.approx(u_prev + e_prev * c.c1 + e * c.c0, rel=1e-12,
                              abs=1e-12)


def test_controller_state_validation():
    with pytest.raises(ValueError):
        ControllerState(u_min=1.0, u_max=-1.0)
    with pytest.raises(ValueError):
        ControllerState(u_prev=5.0, u_min=-1.0, u_max=1.0)


def test_controller_state_limits_are_required_keywords():
    # the limits are the scenario's, so there is no default to fall back on
    for args, kwargs in (((), {}), ((0.0, 0.0), {}),
                         ((0.0, 0.0, -1.0, 1.0), {}),
                         ((), {"u_min": -1.0}), ((), {"u_max": 1.0})):
        with pytest.raises(TypeError):
            ControllerState(*args, **kwargs)
    state = ControllerState(0.5, 2.0, u_min=-1.0, u_max=1.0)
    assert (state.u_prev, state.e_prev) == (0.5, 2.0)


# -- discrete loop vs continuous reference -----------------------------------

def simulate_discrete_loop(plant, gains, t_step, horizon, ref=1.0):
    """Discrete PI + exact-ZOH plant; returns (times, outputs)."""
    coeffs = discretize(gains, t_step)
    cs = ControllerState(u_min=-1e9, u_max=1e9)
    x = 0.0
    times, ys = [], []
    for k in range(int(round(horizon / t_step))):
        e = ref - x
        u, cs = pi_step(cs, coeffs, e)
        x = plant_step(x, plant, u, t_step)
        times.append((k + 1) * t_step)
        ys.append(x)
    return np.array(times), np.array(ys)


def continuous_step_response(plant, gains, times):
    num, den = closed_loop_tf(plant, gains)
    _, y = signal.step(signal.lti(list(num), list(den)), T=times)
    return y


def test_discretization_convergence():
    """Deviation from the continuous loop halves with T and ends below 2%."""
    plant = PlantModel(1.0, 0.2)
    gains, _ = design_gains(plant, LoopSpec(ts=1.6, po=1.0))
    devs = []
    for t_step in (0.1, 0.05, 0.025, 0.0125):
        times, ys = simulate_discrete_loop(plant, gains, t_step, 8.0)
        ref = continuous_step_response(plant, gains, times)
        devs.append(float(np.max(np.abs(ys - ref))))
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.02


def measure_overshoot_and_settling(times, ys, ref=1.0, band=0.02):
    overshoot = 100.0 * max(0.0, float(ys.max()) - ref) / ref
    outside = np.abs(ys - ref) > band * ref
    settle = 0.0 if not outside.any() else times[
        min(int(np.flatnonzero(outside)[-1]) + 1, len(times) - 1)]
    return overshoot, settle


@pytest.mark.parametrize("ts,po", [(1.0, 10.0), (1.6, 5.0), (0.8, 20.0)])
def test_designed_loop_meets_spec_at_fine_step(ts, po):
    """Step response matches the (ts, po) targets in the fine-sampling limit."""
    plant = PlantModel(1.0, 0.2)
    gains, _ = design_gains(plant, LoopSpec(ts, po))
    times, ys = simulate_discrete_loop(plant, gains, 0.002, 6.0)
    overshoot, settle = measure_overshoot_and_settling(times, ys)
    assert overshoot == pytest.approx(po, rel=0.20)
    assert settle == pytest.approx(ts, rel=0.25)


@pytest.mark.parametrize("ts,po", [(1.0, 10.0), (1.6, 5.0), (0.8, 20.0)])
def test_sampled_design_places_z_poles(ts, po):
    """At the frame period, the sampled loop's poles are exp(s_i*T)."""
    plant = PlantModel(1.0, 0.2)
    t_step = DEFAULT_SAMPLE_TIME
    gains, diag = design_gains(plant, LoopSpec(ts, po), t_step)
    c = discretize(gains, t_step)
    a = math.exp(-t_step / plant.tau)
    b = (1.0 - a) * plant.k
    # (z - 1)(z - a) + b*(c0*z + c1)
    roots = np.roots([1.0, b * c.c0 - 1.0 - a, a + b * c.c1])
    targets = np.exp(np.array(diag.poles) * t_step)
    for target in targets:
        assert np.min(np.abs(roots - target)) <= 1e-9


@pytest.mark.parametrize("ts,po", [(1.0, 10.0), (1.6, 5.0), (0.8, 20.0)])
def test_sampled_design_at_frame_period(ts, po):
    """At the frame period the sampled design settles on spec and overshoots
    less than the continuous gains do at the same period.

    Only the poles are placed: the PI's own zero -c1/c0 (0 at ts = 8*tau,
    about 0.3 for the faster specs) adds overshoot beyond po.
    """
    plant = PlantModel(1.0, 0.2)
    t_step = DEFAULT_SAMPLE_TIME
    gains, _ = design_gains(plant, LoopSpec(ts, po), t_step)
    times, ys = simulate_discrete_loop(plant, gains, t_step, 6.0)
    overshoot, settle = measure_overshoot_and_settling(times, ys)
    assert settle == pytest.approx(ts, rel=0.25)
    continuous, _ = design_gains(plant, LoopSpec(ts, po))
    _, ys_c = simulate_discrete_loop(plant, continuous, t_step, 6.0)
    overshoot_c, _ = measure_overshoot_and_settling(times, ys_c)
    assert abs(overshoot - po) < abs(overshoot_c - po)


def test_sampled_design_meets_tracker_spec_at_frame_period():
    """The tracker's stock spec (ts = 8*tau in pixel units) is met at 10.9 fps."""
    plant = PlantModel(8.0, 0.2)  # 1 deg/unit at 8 px/deg
    t_step = DEFAULT_SAMPLE_TIME
    gains, _ = design_gains(plant, LoopSpec(ts=1.6, po=5.0), t_step)
    times, ys = simulate_discrete_loop(plant, gains, t_step, 6.0)
    overshoot, settle = measure_overshoot_and_settling(times, ys)
    assert overshoot == pytest.approx(5.0, rel=0.20)
    assert settle == pytest.approx(1.6, rel=0.25)


def test_sampled_design_validation():
    with pytest.raises(ValueError, match="sampling period"):
        design_gains(PlantModel(1.0, 0.2), LoopSpec(ts=1.6, po=5.0), 0.0)
    with pytest.raises(ValueError, match="infeasible"):
        design_gains(PlantModel(1.0, 0.15), LoopSpec(ts=1.6, po=5.0), 0.1)


@pytest.mark.parametrize("k, tau, reason", [
    (8.0, 1e300, "gives b = 0"),  # exp(-t/tau) rounds to 1
    (8e-320, 0.2, "not finite"),  # c0 = (1 + a - p1 - p2)/b overflows
])
def test_sampled_design_rejects_degenerate_plant(k, tau, reason):
    with pytest.raises(ValueError, match=rf"degenerate sampled plant .*"
                                         rf"{reason}"):
        design_gains(PlantModel(k, tau), LoopSpec(ts=1.6, po=5.0),
                     DEFAULT_SAMPLE_TIME)
