import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colortrack.control import PlantModel
from colortrack.harness import Scenario
from colortrack.imaging import render
from colortrack.plant import (CameraIntrinsics, CameraPose, PlantState,
                              error_px, plant_step, project)
from colortrack.region import RegionDescriptor, locate

INTR = CameraIntrinsics()
MODEL = PlantModel(k=2.0, tau=0.3)


def test_plant_step_decay():
    state = PlantState(angle=10.0)
    t = 0.1
    out = plant_step(state, MODEL, 0.0, t)
    assert out.angle == pytest.approx(10.0 * math.exp(-t / MODEL.tau))


def test_plant_step_dc_gain():
    state = PlantState()
    for _ in range(400):
        state = plant_step(state, MODEL, 3.0, 0.05)
    assert state.angle == pytest.approx(MODEL.k * 3.0, rel=1e-6)


def test_plant_step_fine_substep_oracle():
    """One exact ZOH step equals a 1000-substep Euler integration."""
    t = 0.08
    u = 1.7
    state = PlantState(angle=4.0)
    exact = plant_step(state, MODEL, u, t).angle
    x = 4.0
    dt = t / 1000
    for _ in range(1000):
        x += dt * (MODEL.k * u - x) / MODEL.tau
    assert abs(exact - x) < 1e-4  # Euler truncation, not ZOH error
    # against a much finer RK-style comparison the match is tighter
    assert exact == pytest.approx(
        4.0 * math.exp(-t / MODEL.tau)
        + MODEL.k * u * (1 - math.exp(-t / MODEL.tau)), abs=1e-12)


def test_plant_step_mechanical_clamp():
    state = PlantState(angle=0.0, limits=(-5.0, 5.0))
    for _ in range(100):
        state = plant_step(state, MODEL, 100.0, 0.1)
    assert state.angle == 5.0
    assert state.limits == (-5.0, 5.0)


def test_plant_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        plant_step(PlantState(), MODEL, 0.0, 0.0)


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-10, 10),
       st.floats(-10, 10), st.floats(0.5, 2.0), st.floats(-3, 3))
@settings(max_examples=100)
def test_plant_step_linear(x1, x2, u1, u2, a, b):
    t = 0.07

    def f(x, u):
        return plant_step(PlantState(angle=x), MODEL, u, t).angle

    combined = f(a * x1 + b * x2, a * u1 + b * u2)
    assert combined == pytest.approx(a * f(x1, u1) + b * f(x2, u2),
                                     rel=1e-9, abs=1e-9)


def test_project_examples():
    pose = CameraPose(pan=5.0, tilt=-3.0)
    assert project(5.0, -3.0, pose, INTR) == (160, 120)
    assert project(15.0, -3.0, pose, INTR) == (240, 120)
    assert project(10.0, 0.0, CameraPose(), INTR) == (240, 120)
    assert project(30.0, 0.0, CameraPose(), INTR) is None


def test_project_rounds_to_nearest():
    assert project(0.06, 0.0, CameraPose(), INTR) == (160, 120)
    assert project(0.07, 0.0, CameraPose(), INTR) == (161, 120)


def test_error_px_examples():
    reg = RegionDescriptor(top=0, bottom=0, left=0, right=0,
                           center_x=160, center_y=120, contour_length=1)
    assert error_px(reg, INTR) == (0.0, 0.0)
    corner = RegionDescriptor(top=0, bottom=0, left=0, right=0,
                              center_x=0, center_y=0, contour_length=1)
    assert error_px(corner, INTR) == (-160.0, -120.0)


def detect_center(scenario, pose):
    frame = render(scenario.scene_at(0.0), pose, scenario.intrinsics)
    mask = scenario.segment(frame, scenario.picked_threshold())
    return locate(mask)


def test_project_then_detect_recovers_offset():
    from colortrack.harness import ObjectMotion
    s = Scenario(motion=ObjectMotion(az=6.0, el=-4.0))
    reg = detect_center(s, CameraPose())
    ex, ey = error_px(reg, s.intrinsics)
    assert ex == pytest.approx(6.0 * INTR.ppd_x, abs=2)
    assert ey == pytest.approx(-4.0 * INTR.ppd_y, abs=2)


def test_error_invariant_to_absolute_pose():
    from colortrack.harness import ObjectMotion
    delta = 11.5
    s1 = Scenario(motion=ObjectMotion(az=3.0, el=2.0))
    s2 = Scenario(motion=ObjectMotion(az=3.0 + delta, el=2.0 + delta))
    e1 = error_px(detect_center(s1, CameraPose()), INTR)
    e2 = error_px(detect_center(s2, CameraPose(pan=delta, tilt=delta)), INTR)
    assert abs(e1[0] - e2[0]) <= 1
    assert abs(e1[1] - e2[1]) <= 1


def test_render_projection_consistency():
    """A small rendered shape is located within 1 px of its projection."""
    from colortrack.harness import ObjectMotion
    s = Scenario(motion=ObjectMotion(az=-7.25, el=3.5), object_size=1.0)
    reg = detect_center(s, CameraPose())
    x, y = project(-7.25, 3.5, CameraPose(), s.intrinsics)
    assert abs(reg.center_x - x) <= 1
    assert abs(reg.center_y - y) <= 1


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(width=0)
    with pytest.raises(ValueError):
        CameraIntrinsics(ppd_x=-1.0)
    for bad in (0.0, math.nan, math.inf):
        for axis in ("ppd_x", "ppd_y"):
            with pytest.raises(ValueError, match="pixels per degree"):
                CameraIntrinsics(**{axis: bad})
