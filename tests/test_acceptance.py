"""Acceptance suite: one pass/fail line per criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time
from fractions import Fraction

import numpy as np
from scipy import signal

from colortrack.cli import main as cli_main
from colortrack.control import (ControllerState, LoopSpec, PlantModel,
                                design_gains, discretize, pi_step)
from colortrack.harness import (CLOCK_SCENARIO, Scenario,
                                run_illumination_sweep, run_scenario)
from colortrack.imaging import Frame, decode, encode, narrow, widen
from colortrack.plant import plant_step
from colortrack.region import ScanParams, find_initial_run, trace_contour
from colortrack.segmentation import (ChromaThreshold, PackedBinaryMask,
                                     RgbBoxThreshold, chromaticity,
                                     segment_chroma, segment_rgb)
from oracles import (CORNER_START, closed_loop_tf, flood_oracle, mask_get,
                     mask_set, po_from_damping, retention, verdict_oracle,
                     zeros_mask)


def report(num, desc, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {desc}")
    assert passed, f"criterion {num} failed: {desc}"


def test_criterion_1_codec_exhaustive():
    start = time.perf_counter()
    ok = True
    for w in range(0x10000):
        if encode(*decode(w)) != w or narrow(*widen(w)) != w:
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(1, f"codec identities over 65536 words in {elapsed:.2f}s",
           ok and elapsed < 1.0)


def test_criterion_2_segmentation_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    rgb_t = RgbBoxThreshold(40, 200, 10, 220, 30, 240)
    chroma_t = ChromaThreshold(0.2, 0.6, 0.1, 0.5, i_min=30)
    tables = {id(rgb_t): verdict_oracle(rgb_t),
              id(chroma_t): verdict_oracle(chroma_t)}
    ok = True
    for _ in range(1000):
        words = rng.integers(0, 0x10000, (32, 32)).astype(np.uint16)
        frame = Frame(32, 32, words)
        for t, fn in ((rgb_t, segment_rgb), (chroma_t, segment_chroma)):
            expected = PackedBinaryMask.from_bool(tables[id(t)][words])
            if not np.array_equal(fn(frame, t).words, expected.words):
                ok = False
    # packed addressing vs a plain boolean array
    mask = zeros_mask(320, 240)
    ref = np.zeros((240, 320), dtype=bool)
    for _ in range(10_000):
        x = int(rng.integers(0, 320))
        y = int(rng.integers(0, 240))
        bit = int(rng.integers(0, 2))
        mask_set(mask, x, y, bit)
        ref[y, x] = bool(bit)
        if mask_get(mask, x, y) != int(ref[y, x]):
            ok = False
    ok = ok and np.array_equal(mask.to_bool(), ref)
    elapsed = time.perf_counter() - start
    report(2, f"segmenters + packing match oracles in {elapsed:.2f}s",
           ok and elapsed < 10.0)


def test_criterion_3_chromaticity_invariance():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(10_000):
        r = Fraction(int(rng.integers(1, 10**6)), int(rng.integers(1, 1000)))
        g = Fraction(int(rng.integers(0, 10**6)), int(rng.integers(1, 1000)))
        b = Fraction(int(rng.integers(0, 10**6)), int(rng.integers(1, 1000)))
        s = Fraction(int(rng.integers(1, 10**6)), int(rng.integers(1, 10**6)))
        if chromaticity(r * s, g * s, b * s) != chromaticity(r, g, b):
            ok = False
            break
    sweep = run_illumination_sweep(Scenario(),
                                   (1.0, 0.8, 0.6, 0.4))
    chroma_ok = all(f >= 0.95 for f in retention(sweep, "chroma"))
    rgb_ok = retention(sweep, "rgb")[-1] < 0.5
    report(3, "exact chroma scale invariance + sweep retention "
              f"(chroma {retention(sweep, 'chroma')[-1]:.2f}, "
              f"rgb {retention(sweep, 'rgb')[-1]:.2f} at level 0.4)",
           ok and chroma_ok and rgb_ok)


def test_criterion_4_contour_matches_flood_fill():
    start = time.perf_counter()
    ok = True
    for seed in range(500):
        rng = np.random.default_rng(seed)
        bits = np.zeros((32, 32), dtype=bool)
        x, y = int(rng.integers(4, 28)), int(rng.integers(4, 28))
        bits[y, x] = True
        for _ in range(int(rng.integers(1, 120))):
            x = min(max(x + int(rng.integers(-1, 2)), 0), 31)
            y = min(max(y + int(rng.integers(-1, 2)), 0), 31)
            bits[y, x] = True
        mask = PackedBinaryMask.from_bool(bits)
        row, _, right = find_initial_run(mask, ScanParams(1))
        reg = trace_contour(mask, (right, row))  # counted, not walked
        if (reg.top, reg.bottom, reg.left, reg.right) != \
                flood_oracle(bits, (right, row))[0]:
            ok = False
    elapsed = time.perf_counter() - start
    report(4, f"500 blob contours equal flood-fill boxes in {elapsed:.2f}s",
           ok and elapsed < 10.0)


def test_criterion_5_gain_design_round_trip():
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(100):
        k = float(rng.uniform(0.1, 20.0))
        tau = float(rng.uniform(0.05, 2.0))
        ts = float(rng.uniform(0.1, 1.0)) * 8 * tau
        po = float(rng.uniform(0.5, 80.0))
        plant = PlantModel(k, tau)
        gains, diag = design_gains(plant, LoopSpec(ts, po))
        num, den = closed_loop_tf(plant, gains)
        roots = np.roots(den)
        target = 4.0 / ts
        if any(abs(-r.real - target) > 1e-9 * target for r in roots):
            ok = False
        if abs(po_from_damping(diag.xi) - po) > 1e-9 * po:
            ok = False
        if num[-1] / den[-1] != 1.0:
            ok = False
    report(5, "100 random designs: poles at -4/ts, PO round-trip 1e-9, "
              "DC gain exactly 1", ok)


def test_criterion_6_discretization_convergence():
    plant = PlantModel(1.0, 0.2)
    gains, _ = design_gains(plant, LoopSpec(ts=1.6, po=1.0))
    num, den = closed_loop_tf(plant, gains)
    sysc = signal.lti(list(num), list(den))
    devs = []
    for t_step in (0.1, 0.05, 0.025, 0.0125):
        coeffs = discretize(gains, t_step)
        cs = ControllerState(u_min=-1e9, u_max=1e9)
        x = 0.0
        times, ys = [], []
        for k in range(int(round(8.0 / t_step))):
            e = 1.0 - x
            u, cs = pi_step(cs, coeffs, e)
            x = plant_step(x, plant, u, t_step)
            times.append((k + 1) * t_step)
            ys.append(x)
        _, ref = signal.step(sysc, T=np.array(times))
        devs.append(float(np.max(np.abs(np.array(ys) - ref))))
    monotone = all(a > b for a, b in zip(devs, devs[1:]))
    report(6, "deviation vs continuous loop "
              + " -> ".join(f"{d:.4f}" for d in devs)
              + " (monotone, < 0.02 at finest)",
           monotone and devs[-1] < 0.02)


def test_criterion_7_tracking_settling():
    start = time.perf_counter()
    s = Scenario(kind="step_track", duration=5.0,
                 spec=LoopSpec(ts=1.6, po=5.0),
                 motion=CORNER_START)
    _, metrics = run_scenario(s)
    elapsed = time.perf_counter() - start
    settle_ok = (metrics.settling_time is not None
                 and abs(metrics.settling_time - 1.6) <= 0.25 * 1.6)
    overshoot_ok = abs(metrics.overshoot_pct - 5.0) <= 0.20 * 5.0
    report(7, f"corner-start settling {metrics.settling_time:.2f}s "
              f"(target 1.6 +- 25%: {'ok' if settle_ok else 'out'}), "
              f"overshoot {metrics.overshoot_pct:.1f}% "
              f"(target 5 +- 20% rel: {'ok' if overshoot_ok else 'out'}), "
              f"runtime {elapsed:.2f}s",
           settle_ok and overshoot_ok and elapsed < 5.0)


def test_criterion_8_clock_motion_statistics():
    # what `colortrack clock` runs: two revolutions of an 87.57 px circle
    _, metrics = run_scenario(CLOCK_SCENARIO)
    report(8, f"mean radius {metrics.mean_radius:.2f} px "
              f"(87.57 +- 2), std {metrics.radius_std:.2f} px (< 4)",
           abs(metrics.mean_radius - 87.57) <= 2.0
           and metrics.radius_std < 4.0)


def test_criterion_9_track_determinism(tmp_path, capsys):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("kind = step_track\nduration = 2.0\n"
                   "motion = fixed\nmotion_az = 15\nmotion_el = -10\n")
    payloads = []
    for name in ("run1.csv", "run2.csv"):
        csv = tmp_path / name
        code = cli_main(["track", "--config", str(cfg), "--csv", str(csv)])
        assert code == 0
        payloads.append(csv.read_bytes())
    capsys.readouterr()  # drop the CLI's own report output
    report(9, "repeated track runs emit byte-identical CSV",
           payloads[0] == payloads[1])
