#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarized as BENCH_<n>.json.

Usage, from the root of the repository:

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 161-170 \
        --out BENCH_16.json [--claim step_track:frame_ms_p50]

DIR is a checkout of each tree to compare (for example a `git archive` of
each commit); each must be a directory. The seeds must be two or more and
distinct, since a workload is compared over its pairs and one pair gives
no quartiles. Bad seeds or checkouts exit with status 2 before any run.
For every workload that BENCHMARK.json declares, every seed
runs the benchmark command it declares, with `--workload W --seed S
--seconds N --trace 0` and N its `run_seconds`, once in each checkout and
one run at a time: the parent first on odd seeds, the change first on even
ones. A run's record is the last line the command prints. The output is
rewritten after every run, so an interrupted series keeps what it
measured. It holds every run, and per
workload and end-to-end metric the medians and quartiles
(statistics.quantiles(n=4, method='inclusive')) of each side, the change's
wins over the seed pairs, the parent's interquartile range, the gap between
the medians (positive when the change is better) and whether the change
stays within the metric's bound from BENCHMARK.json. With --claim, it
states whether the claimed metric met the rule: the change wins at least
nine pairs in ten and the median gap exceeds the parent's interquartile
range, and the change's share of failed operations (its summed `failed`
over its summed `attempted`) is no larger than the parent's; a claim that
names no workload and end-to-end metric of BENCHMARK.json exits with
status 2 before any run. Each
workload reports both sides' failed shares. Nothing is written inside
either checkout except what the benchmark itself writes there.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PER_PAIR = ("setup_s", "peak_rss_mb")


def parse_seeds(text: str) -> list[int]:
    """'161-170' or '161,163,170': two or more distinct seeds."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(v) for v in text.split(",")]
    if len(seeds) < 2 or len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(
            f"{text!r} gives seeds {seeds}; a comparison needs two or more "
            "distinct seeds")
    return seeds


def checkout(text: str) -> Path:
    """A checkout's path, which must be a directory."""
    path = Path(text).resolve()
    if not path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is not a directory")
    return path


def order(seed: int) -> tuple[str, str]:
    """The sides in the order they run: the parent first on odd seeds."""
    return SIDES if seed % 2 else SIDES[::-1]


def parse_claim(text: str, bench: dict) -> tuple[str, str]:
    """'WORKLOAD:METRIC', checked against BENCHMARK.json's names."""
    workload, _, metric = text.partition(":")
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [d["name"] for d in bench["end_to_end"]]
    if workload not in workloads or metric not in metrics:
        raise ValueError(
            f"--claim {text!r}: expected WORKLOAD:METRIC with WORKLOAD one "
            f"of {', '.join(workloads)} and METRIC one of "
            f"{', '.join(metrics)}")
    return workload, metric


def run_once(checkout: Path, command, workload, seed, seconds) -> dict:
    """One benchmark run in `checkout`, as the runs list records it."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    rec = {"returncode": proc.returncode, "correct": False}
    try:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        rec.update(
            correct=last["correct"], attempted=last["attempted"],
            failed=last["failed"],
            metrics={k: v["value"] for k, v in last["metrics"].items()})
    except (IndexError, ValueError, KeyError, TypeError):
        rec["stderr"] = proc.stderr[-2000:]
    return rec


def _stats(values) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3}


def summarize(runs, end_to_end, claim=None) -> dict:
    """Per workload and metric, the two sides' spread and the comparison.

    `runs` are run records with workload, seed, side, metrics, attempted
    and failed; `end_to_end` is BENCHMARK.json's list of metric
    declarations; `claim` is (workload, metric) or None. Pairs are matched
    by seed, and only seeds with metrics on both sides count.
    """
    by_key = {(r["workload"], r["seed"], r["side"]): r
              for r in runs if "metrics" in r}
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds = sorted({s for w, s, _ in by_key if w == workload
                        and all((w, s, side) in by_key for side in SIDES)})
        if len(seeds) < 2:
            continue
        table = out[workload] = {}
        recs = {side: [by_key[workload, s, side] for s in seeds]
                for side in SIDES}
        table["failed_share"] = {
            side: sum(r["failed"] for r in recs[side])
            / sum(r["attempted"] for r in recs[side]) for side in SIDES}
        for decl in end_to_end:
            name, sign = decl["name"], 1 if decl["better"] == "lower" else -1
            values = {side: [r["metrics"][name] for r in recs[side]]
                      for side in SIDES}
            stats = {side: _stats(values[side]) for side in SIDES}
            p, c = stats["parent"]["median"], stats["change"]["median"]
            wins = sum(sign * (a - b) > 0 for a, b in zip(*values.values()))
            worse = sign * (c - p) / p
            table[name] = {
                "unit": decl["unit"], "better": decl["better"],
                "bound": decl["bound"], **stats,
                "change_over_parent": c / p,
                "change_wins": f"{wins} of {len(seeds)}",
                "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
                "median_gap": sign * (p - c),
                "worse_by_fraction_of_parent": worse,
                "within_bound": worse <= decl["bound"]}
            if name in PER_PAIR:
                table[name]["per_pair"] = [
                    {"seed": s, "parent": a, "change": b,
                     "change_over_parent": b / a}
                    for s, a, b in zip(seeds, *values.values())]
    result = {}
    if claim:
        workload, metric = claim
        m = out.get(workload, {}).get(metric)
        wins, n = ((int(v) for v in m["change_wins"].split(" of "))
                   if m else (0, 0))
        share = out[workload]["failed_share"] if m else {}
        result["claimed_gain"] = {
            "workload": workload, "metric": metric,
            "rule": "change wins at least nine tenths of the pairs, the "
                    "median gap exceeds the parent's interquartile range, "
                    "and the change's failed share is no larger",
            **({k: m[k] for k in ("change_wins", "median_gap", "parent_iqr",
                                  "change_over_parent")} if m else {}),
            **({"failed_share": share} if m else {}),
            "met": bool(m) and wins >= math.ceil(0.9 * n)
            and m["median_gap"] > m["parent_iqr"]
            and share["change"] <= share["parent"]}
    result["end_to_end"] = out
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=checkout, required=True)
    p.add_argument("--change", type=checkout, required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--claim", help="WORKLOAD:METRIC")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:  # before any run, so a bad claim costs no benchmark time
        claim = parse_claim(args.claim, bench) if args.claim else None
    except ValueError as e:
        p.error(str(e))
    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in args.seeds:
            for i, side in enumerate(order(seed)):
                rec = {"workload": workload, "seed": seed, "side": side,
                       "ran_first": i == 0,
                       **run_once(checkouts[side], bench["command"],
                                  workload, seed, bench["run_seconds"])}
                runs.append(rec)
                print(json.dumps({k: rec.get(k) for k in
                                  ("workload", "seed", "side", "returncode",
                                   "metrics")}), flush=True)
                doc = {"seeds": args.seeds,
                       "quartiles": "statistics.quantiles(n=4, "
                                    "method='inclusive') over each side's "
                                    "runs",
                       **summarize(runs, bench["end_to_end"], claim),
                       "runs": runs}
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
