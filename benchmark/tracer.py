"""Span recorder for the traced run, patched in from outside the program.

The program has no tracing of its own, so the benchmark wraps each layer's
public functions at the names through which `harness` and `region.locate`
look them up, and the offline pipeline's module attributes. Nothing under
`src/` changes; the originals are restored when the context ends.

A span is [name, start, end, parent, attrs]. Spans whose name starts with
`trace.` are the tracer's own work (counting mask pixels, the gate's checks,
the contour-only probe for the fill time). They are children of the span
that was open when they ran, so they leave every layer's self time, and
their durations are summed so frame times can exclude them. They call no
patched function, so they never nest in one another.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from colortrack import harness, imaging, region, segmentation

# (module, attribute, span name). The module is where the caller looks the
# name up, so patching it reaches exactly the calls the layer receives.
PATCHES = (
    (harness, "render", "imaging.render"),
    (harness, "segment_chroma", "segmentation.segment"),
    (harness, "segment_rgb", "segmentation.segment"),
    (harness, "threshold_from_pick", "segmentation.threshold"),
    (harness, "locate", "region.locate"),
    (harness, "design_gains", "control.design"),
    (harness, "discretize", "control.discretize"),
    (harness, "pi_step", "control.pi_step"),
    (harness, "plant_step", "plant.step"),
    (harness, "compute_metrics", "harness.metrics"),
    (region, "find_initial_run", "region.scan"),
    (region, "trace_contour", "region.contour"),
    (imaging, "read_ppm", "imaging.read_ppm"),
    (segmentation, "threshold_from_pick", "segmentation.threshold"),
    (segmentation, "segment_chroma", "segmentation.segment"),
    (segmentation, "segment_rgb", "segmentation.segment"),
    (segmentation, "write_pbm", "segmentation.write_pbm"),
    (region, "locate", "region.locate"),
)

# Every span name the traced run can record; the prediction file says on
# which workload each one must, or must not, be called.
SPAN_NAMES = tuple(sorted({name for _, _, name in PATCHES}
                          | {"harness.run", "bench.op", "region.fill"}))


@contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class Marks:
    """Frame boundaries: one clock read per frame, plus the round's end.

    Each mark also stores the running total of the benchmark's own time
    (the tracer's, or the speed reference's), so a frame's duration can
    exclude it. With a `speed`, a mark may first run the speed reference;
    in a traced round that run is a tracer span.
    """

    def __init__(self, tracer=None, speed=None):
        self.tracer = tracer
        self.speed = speed
        self.t = []
        self.own = []

    def own_s(self):
        if self.tracer:
            return self.tracer.own_s
        return self.speed.spent_s if self.speed else 0.0

    def sample_speed(self, force=False):
        if self.tracer:
            with self.tracer.span("trace.speed"):
                self.speed.sample(force)
        else:
            self.speed.sample(force)

    def mark(self):
        if self.speed:
            self.sample_speed(force=not self.t)
        self.t.append(time.perf_counter())
        self.own.append(self.own_s())

    def frame_ms(self):
        """Durations between consecutive marks, less own time, in ms."""
        return [1e3 * ((b - a) - (ob - oa)) for a, b, oa, ob
                in zip(self.t, self.t[1:], self.own, self.own[1:])]

    def scaled_frame_ms(self):
        """frame_ms at the machine's nominal speed (see calibrate.py)."""
        return [ms * self.speed.scale(a)
                for ms, a in zip(self.frame_ms(), self.t)]

    def clocked(self, fn):
        def clocked_call(*args, **kwargs):
            self.mark()
            return fn(*args, **kwargs)
        return clocked_call


class Tracer:
    """Records spans in memory; `observe` runs after each layer call.

    observe(name, args, kwargs, result) returns a dict of counts to attach
    to the span, or None. It runs inside a `trace.observe` span.
    """

    def __init__(self, observe):
        self.observe = observe
        self.spans = []
        self.stack = []
        self.own_s = 0.0  # total duration of top-level trace.* spans

    @contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
            if name.startswith("trace."):  # tracer spans never nest
                self.own_s += rec[2] - rec[1]

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if name == "region.contour" and kwargs.get("fill_count"):
                    # No public span covers the fill: time the same walk
                    # without it, and the fill is the difference.
                    with self.span("trace.contour_probe"):
                        fn(*args, **{**kwargs, "fill_count": False})
                result = fn(*args, **kwargs)
            with self.span("trace.observe"):
                rec[4] = self.observe(name, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self, marks=None):
        """Wrap every patch point; `marks` also clocks each render call."""
        wrapped = []
        for module, attr, name in PATCHES:
            fn = self.wrap(name, getattr(module, attr))
            if marks is not None and name == "imaging.render":
                fn = marks.clocked(fn)
            wrapped.append((module, attr, fn))
        with patched(wrapped):
            yield

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, _ in self.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")

    def calls(self):
        """Number of calls recorded under each span name."""
        counts = dict.fromkeys(SPAN_NAMES, 0)
        for rec in self.spans:
            if rec[0] in counts:
                counts[rec[0]] += 1
        counts["region.fill"] = sum(
            1 for rec in self.spans if rec[0] == "trace.contour_probe")
        return counts

    def self_times(self):
        """Per span: (name, self s, s without tracer work, attrs).

        Self time is the span's duration minus what its children cover,
        tracer spans included.
        """
        n = len(self.spans)
        child_s = [0.0] * n
        own_s = [0.0] * n
        probe_s = [0.0] * n
        for rec in self.spans:
            name, start, end, parent, _ = rec
            d = end - start
            if parent >= 0:
                child_s[parent] += d
                if name == "trace.contour_probe":
                    probe_s[parent] = d
            if name.startswith("trace."):
                p = parent
                while p >= 0:
                    own_s[p] += d
                    p = self.spans[p][3]
        out = []
        for i, (name, start, end, _, attrs) in enumerate(self.spans):
            d = end - start
            out.append((name, d - child_s[i], d - own_s[i],
                        dict(attrs or {}, probe_s=probe_s[i])))
        return out
