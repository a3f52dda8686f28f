"""Set-up time of one workload, in a fresh interpreter.

Usage: setup_probe.py WORKLOAD SPEC_JSON

Prints the seconds from `import colortrack` to the end of the workload's
first operation, then the same time at the machine's nominal speed (see
calibrate.py), from speed reference runs made afterwards. Rebuilding the
workload from SPEC_JSON (inputs that run.py has already written) is not
counted.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
SPEED_RUNS = 5


def main(argv):
    name, spec = argv
    start = time.perf_counter()
    import colortrack  # noqa: F401  (the import is what is timed)
    imported = time.perf_counter()
    import workloads
    workload = workloads.from_probe_spec(name, json.loads(spec))
    ready = time.perf_counter()
    workload.first_operation()
    end = time.perf_counter()
    setup_s = (imported - start) + (end - ready)
    import calibrate
    speed = calibrate.Speed()
    for _ in range(SPEED_RUNS):
        speed.sample(force=True)
    print(repr(setup_s), repr(setup_s * speed.round_scale()))


if __name__ == "__main__":
    main(sys.argv[1:])
