"""Metric names, units and directions, and the per-layer numbers of a trace.

The traced run's per-layer times are self times per call, as medians over
the calls. A `.calls` metric is calls per frame (per operation on
offline_vga), and a `.share` is the layer's summed time over the summed
time of the rounds, both without the tracer's own work.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path
from statistics import median

PREDICTIONS = Path(__file__).resolve().parent / "predictions.json"

# name: (unit, better). Printed with --trace 0.
END_TO_END = {
    "frames_per_s": ("1/s", "higher"),
    "frame_ms_p50": ("ms", "lower"),
    "frame_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed with --trace 1.
PER_LAYER = {
    "imaging.render.ms": ("ms", "lower"),
    "imaging.render.calls": ("count", "lower"),
    "imaging.render.share": ("fraction", "lower"),
    "imaging.read_ppm.ms": ("ms", "lower"),
    "segmentation.segment.ms": ("ms", "lower"),
    "segmentation.segment.calls": ("count", "lower"),
    "segmentation.segment.share": ("fraction", "lower"),
    "segmentation.mask_px": ("px", "lower"),
    "segmentation.threshold.ms": ("ms", "lower"),
    "segmentation.threshold.calls": ("count", "lower"),
    "segmentation.write_pbm.ms": ("ms", "lower"),
    "region.locate.ms": ("ms", "lower"),
    "region.locate.share": ("fraction", "lower"),
    "region.scan.ms": ("ms", "lower"),
    "region.scan.rows": ("count", "lower"),
    "region.scan.hit_ratio": ("fraction", "higher"),
    "region.contour.ms": ("ms", "lower"),
    "region.contour.len": ("px", "lower"),
    "region.fill.ms": ("ms", "lower"),
    "region.fill.px": ("px", "lower"),
    "control.design.ms": ("ms", "lower"),
    "control.pi_step.us": ("us", "lower"),
    "control.pi_step.calls": ("count", "lower"),
    "plant.step.us": ("us", "lower"),
    "plant.step.calls": ("count", "lower"),
    "harness.self.ms": ("ms", "lower"),
    "harness.self.share": ("fraction", "lower"),
    "harness.metrics.ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# The report's simulated results are deterministic: a change that only
# makes the code faster leaves them identical.
SIMULATED = {
    "error_rate": ("fraction", "lower"),
    "settle_err_s": ("s", "lower"),
    "overshoot_err_pct": ("%", "lower"),
    "radius_err_px": ("px", "lower"),
    "radius_std_px": ("px", "lower"),
}

# Beyond p90, a run's frames are mostly bursts of the neighbours' work, too
# short for the speed reference to see: across five 50 s step_track runs
# of the same code, p99 spread 0.125 (IQR over median) and p90 0.017, and
# the p99 frames clustered in time, not in frame number.
TAIL_PERCENTILES = (90.0, 75.0, 50.0)


def tail(values):
    """(percentile, value, samples beyond it) for the frame-time tail.

    The highest of TAIL_PERCENTILES with at least ten samples beyond it,
    nearest-rank; the median when no percentile has ten.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            break
    return p, ordered[max(rank, 1) - 1], n - rank


def attrs(name, args, kwargs, result):
    """Counts the traced run attaches to a layer's span."""
    if name == "segmentation.segment":
        return {"mask_px": result.count()}
    if name == "region.scan":
        mask = args[0]
        return {"rows": mask.height if result is None else result[0] + 1,
                "hit": result is not None}
    if name == "region.contour":
        return {"len": result.contour_length, "fill_px": result.pixel_count}
    return None


def check_calls(workload: str, calls: dict) -> list[str]:
    """Every span runs where predicted, and only there.

    A renamed or bypassed function would otherwise zero a layer silently.
    """
    zero = set(json.loads(PREDICTIONS.read_text())["zero_calls"][workload])
    problems = []
    for name, n in sorted(calls.items()):
        if name in zero and n:
            problems.append(f"span {name} ran {n} times on {workload}, "
                            "predicted never")
        elif name not in zero and not n:
            problems.append(f"span {name} recorded no calls on {workload}")
    return problems


def per_layer(tracer, frames: int, rounds_s: float, overhead_pct: float):
    """Per-layer metrics from a traced pass of `frames` frames.

    rounds_s is the pass's total time without the tracer's own work.
    """
    spans = defaultdict(list)
    for name, self_s, excl_s, extra in tracer.self_times():
        spans[name].append((self_s, excl_s, extra))

    def med(name, value=lambda s: s[0]):
        values = [value(s) for s in spans[name]]
        return median(values) if values else 0.0

    def share(name, index=0):
        return sum(s[index] for s in spans[name]) / rounds_s

    def per_frame(name):
        return len(spans[name]) / frames

    fills = [s for s in spans["region.contour"]
             if s[2]["fill_px"] is not None]
    scans = spans["region.scan"]
    runs = spans["harness.run"]
    frames_per_run = frames / len(runs) if runs else 1
    return {
        "imaging.render.ms": 1e3 * med("imaging.render"),
        "imaging.render.calls": per_frame("imaging.render"),
        "imaging.render.share": share("imaging.render"),
        "imaging.read_ppm.ms": 1e3 * med("imaging.read_ppm"),
        "segmentation.segment.ms": 1e3 * med("segmentation.segment"),
        "segmentation.segment.calls": per_frame("segmentation.segment"),
        "segmentation.segment.share": share("segmentation.segment"),
        "segmentation.mask_px": med("segmentation.segment",
                                    lambda s: s[2]["mask_px"]),
        "segmentation.threshold.ms": 1e3 * med("segmentation.threshold"),
        "segmentation.threshold.calls": per_frame("segmentation.threshold"),
        "segmentation.write_pbm.ms": 1e3 * med("segmentation.write_pbm"),
        "region.locate.ms": 1e3 * med("region.locate"),
        "region.locate.share": share("region.locate", 1),
        "region.scan.ms": 1e3 * med("region.scan"),
        "region.scan.rows": med("region.scan", lambda s: s[2]["rows"]),
        "region.scan.hit_ratio": (sum(s[2]["hit"] for s in scans)
                                  / len(scans) if scans else 0.0),
        # With the fill on, the walk alone is the probe's time.
        "region.contour.ms": 1e3 * med(
            "region.contour",
            lambda s: s[2]["probe_s"] if s[2]["fill_px"] is not None
            else s[0]),
        "region.contour.len": med("region.contour", lambda s: s[2]["len"]),
        "region.fill.ms": (1e3 * median(s[0] - s[2]["probe_s"] for s in fills)
                           if fills else 0.0),
        "region.fill.px": (median(s[2]["fill_px"] for s in fills)
                           if fills else 0.0),
        "control.design.ms": 1e3 * med("control.design"),
        "control.pi_step.us": 1e6 * med("control.pi_step"),
        "control.pi_step.calls": per_frame("control.pi_step"),
        "plant.step.us": 1e6 * med("plant.step"),
        "plant.step.calls": per_frame("plant.step"),
        "harness.self.ms": 1e3 * med("harness.run") / frames_per_run,
        "harness.self.share": share("harness.run"),
        "harness.metrics.ms": 1e3 * med("harness.metrics"),
        "trace.overhead_pct": overhead_pct,
    }
