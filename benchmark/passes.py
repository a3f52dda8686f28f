"""The passes of one workload run: the correctness gate, then timed rounds.

A round is one whole scenario run, or one pass over all stills. An
untraced round reads the clock once per frame and, between frames, runs the
speed reference (calibrate.py), whose time it takes out; a traced round
also records spans and takes the tracer's own time out.
"""

import gc
import time
from contextlib import nullcontext
from statistics import median

from colortrack import harness

import gate
import layers
from calibrate import Speed
from tracer import Marks, Tracer, patched

SETUP_PROBES = 7  # fresh interpreters per run; their median is setup_s


class Pass:
    """Frame times, round times and results of the rounds of one kind.

    Each round keeps its host times and the same times at the machine's
    nominal speed (see calibrate.py).
    """

    def __init__(self):
        self.rounds = []  # (frame_ms, seconds, scaled frame_ms, scaled s)
        self.results = []

    def add(self, times, result):
        self.rounds.append(times)
        self.results.append(result)

    @property
    def frames(self):
        return sum(len(r[0]) for r in self.rounds)

    @property
    def seconds(self):
        return sum(r[1] for r in self.rounds)

    def summary(self, scaled=True):
        """All frame times of the pass, and its frames per second."""
        frames = [ms for r in self.rounds for ms in r[2 if scaled else 0]]
        round_s = median(r[3 if scaled else 1] for r in self.rounds)
        return frames, len(self.rounds[0][0]) / round_s


def no_span(name):
    return nullcontext()


def timed_round(workload, marks, span):
    """One round; returns its times (as Pass.rounds holds them) and result."""
    start = time.perf_counter()
    own = marks.own_s()
    result = workload.round(marks, span)
    marks.sample_speed(force=True)
    seconds = time.perf_counter() - start - (marks.own_s() - own)
    times = (marks.frame_ms(), seconds, marks.scaled_frame_ms(),
             seconds * marks.speed.round_scale())
    return times, result


def untraced_round(workload):
    """One round whose only instrumentation is one clock read per frame,
    and the speed reference between frames."""
    marks = Marks(speed=Speed())
    with patched([(harness, "render", marks.clocked(harness.render))]):
        return timed_round(workload, marks, no_span)


def traced_round(workload, tracer):
    """One round under the tracer; its own work is taken out of the time."""
    marks = Marks(tracer, Speed())
    with tracer.installed(marks):
        return timed_round(workload, marks, tracer.span)


def gate_pass(workload):
    """The correctness gate: a traced round that checks every mask and region.

    Returns the round's result, its frame count, the checker, the number
    of frames it rejected and every problem found.
    """
    checker = gate.Gate()
    tracer = Tracer(checker.observe)
    marks = Marks(tracer)
    with tracer.installed(marks):
        reference = workload.round(marks, tracer.span)
    truth = workload.check(reference)
    problems = (checker.problems + list(truth.values())
                + layers.check_calls(workload.name, tracer.calls()))
    rejected = len(checker.rejected | truth.keys())
    return reference, len(marks.t) - 1, checker, rejected, problems


def timed_passes(workload, seconds, trace, probe):
    """Whole rounds until `seconds` have passed.

    With `trace`, traced rounds alternate with the untraced ones. With a
    set-up probe, SETUP_PROBES probes are spread evenly between the rounds,
    so their median samples the machine over the whole run.
    """
    untraced = Pass()
    traced = Pass() if trace else None
    layer_tracer = Tracer(layers.attrs)
    setup = []
    gc.collect()
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if probe and len(setup) < SETUP_PROBES and \
                now >= start + seconds * len(setup) / SETUP_PROBES:
            setup.append(probe())
        untraced.add(*untraced_round(workload))
        if traced:
            traced.add(*traced_round(workload, layer_tracer))
        if time.perf_counter() >= start + seconds:
            break
    while probe and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return untraced, traced, layer_tracer, setup
