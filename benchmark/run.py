#!/usr/bin/env python3
"""colortrack benchmark: host time per frame of the tracking loop.

Usage, from the root of the repository:

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

With --workload, one workload runs in this process. It makes its inputs
from the seed, runs the correctness gate as a traced pass, then repeats
whole rounds for at least --seconds, measuring set-up time in fresh
interpreters between them. The last line of output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced pass with --trace 1. The
end-to-end times are host times scaled to the machine's nominal speed by a
reference workload run between frames (calibrate.py); the report also
prints them unscaled. The exit code is nonzero when any check fails.

Without --workload, every workload runs in turn, each in a fresh
interpreter, and their reports are printed one after another.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

import calibrate
import layers

# Single-threaded numerics; set before numpy is first imported.
THREADS_ENV = {name: "1" for name in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREADS_ENV)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("step_track", "clock_motion", "offline_vga")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload here (default: all, in turn)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="minimum timed length; whole rounds are completed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


def import_program():
    """Import colortrack from this checkout's src/, and from nowhere else."""
    if not (SRC / "colortrack" / "__init__.py").is_file():
        sys.exit(f"error: no colortrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import colortrack
    found = Path(colortrack.__file__).resolve().parent
    if found != SRC / "colortrack":
        sys.exit(f"error: imported colortrack from {found}, not {SRC}")


def environment() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **THREADS_ENV}


def setup_probe(workload):
    """A function that measures set-up time once, in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload.name,
           json.dumps(workload.probe_spec())]

    def probe() -> tuple[float, float]:
        """Host seconds, and seconds at the machine's nominal speed."""
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        raw, scaled = proc.stdout.split()[-2:]
        return float(raw), float(scaled)
    return probe


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    import_program()
    import passes
    import workloads

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = workloads.make(args.workload, args.seed, out_dir)
    probe = None if args.trace else setup_probe(workload)
    if probe:
        probe()  # dropped: only the first pays for cold caches and compiling
    reference, gate_frames, checker, rejected, problems = passes.gate_pass(
        workload)
    untraced, traced, layer_tracer, setup = passes.timed_passes(
        workload, args.seconds, args.trace, probe)

    timed = [untraced] + ([traced] if traced else [])
    ref = repr(reference)
    for p in timed:
        if any(repr(r) != ref for r in p.results):
            problems.append("a timed round's results differ from the gate's")
    # Every round repeats the gate round's frames, so each round loses, or
    # has rejected, the same frames.
    rounds = 1 + sum(len(p.results) for p in timed)
    attempted = gate_frames + sum(p.frames for p in timed)
    failed = min(attempted,
                 (workload.lost(reference) + rejected) * rounds)

    frames, fps = untraced.summary()
    pct, tail_ms, beyond = layers.tail(frames)
    if args.trace:
        overhead = 100.0 * (median(traced.summary()[0]) / median(frames)
                            - 1.0)
        metrics = layers.per_layer(layer_tracer, traced.frames,
                                   traced.seconds, overhead)
        units = layers.PER_LAYER
        host = {}
        layer_tracer.write(out_dir / "spans.jsonl")
    else:
        metrics = {
            "frames_per_s": fps,
            "frame_ms_p50": median(frames),
            "frame_ms_tail": tail_ms,
            "setup_s": median(s for _, s in setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = layers.END_TO_END
        host_frames, host_fps = untraced.summary(scaled=False)
        host = {"frames_per_s": host_fps,
                "frame_ms_p50": median(host_frames),
                "frame_ms_tail": layers.tail(host_frames)[1],
                "setup_s": median(h for h, _ in setup)}
    simulated = {"error_rate": (failed / attempted, "fraction"),
                 **workload.simulated(reference)}
    tail_note = (f"p{pct:g} of {len(frames)} frames in "
                 f"{len(untraced.rounds)} rounds, {beyond} beyond it")
    env = environment()

    print(f"colortrack benchmark: {args.workload}, seed {args.seed}, "
          f"{sum(p.seconds for p in timed):.1f} s timed, trace {args.trace}")
    print("  " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"  gate: {checker.masks} masks and {checker.regions} regions "
          f"checked, {len(problems)} problems")
    if host:
        print(f"  times at nominal machine speed (speed reference "
              f"{1e3 * calibrate.NOMINAL_S:g} ms), unscaled host times "
              f"after them")
    for name, value in metrics.items():
        unit, better = units[name]
        note = f"  (unscaled {host[name]:.6g})" if name in host else ""
        if name == "frame_ms_tail":
            note += f"  ({tail_note})"
        print(f"  {name:30s} {value:14.6g} {unit:8s} {better}{note}")
    for name, (value, unit) in simulated.items():
        note = (f"  ({failed} of {attempted} frames failed)"
                if name == "error_rate" else "  (simulated, deterministic)")
        print(f"  {name:30s} {value:14.6g} {unit:8s} "
              f"{layers.SIMULATED[name][1]}{note}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }
    with open(out_dir / "rounds.json", "w") as f:
        json.dump(untraced.rounds, f)
    with open(out_dir / "result.json", "w") as f:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "environment": env,
                   "frame_ms_tail": tail_note, "unscaled": host,
                   "simulated": {k: {"value": v, "unit": u}
                                 for k, (v, u) in simulated.items()},
                   "problems": problems}, f, indent=1)
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
