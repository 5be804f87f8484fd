"""Steadiness check: run every workload repeatedly, each run a fresh
process with its own seed, and report the median and quartiles of every
end-to-end metric against the bound in ``BENCHMARK.json``.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out perfbench/steady/set1
    python3 perfbench/steady.py --compare perfbench/steady/set1.json perfbench/steady/set2.json

A metric is steady when its quartile spread, ``(q3 - q1) / median``, is
within its bound; every metric is held to this, ``setup_s`` included.
Two sets agree when no median is worse in the second set than in the
first by more than the bound.  The runs go round-robin over the workloads, so a
slow spell of the host is shared between them.  ``--out`` writes the
report as ``<stem>.txt`` and the raw values as ``<stem>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common


def one_run(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=common.ROOT, capture_output=True,
                          text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread_rows(spec: dict, values: dict) -> list[str]:
    """One report line per metric: quartiles, spread and verdict."""
    rows = []
    for item in spec["end_to_end"]:
        name = item["name"]
        series = values[name]
        q1, median, q3 = common.quartiles(series)
        spread = (q3 - q1) / median
        verdict = "ok" if spread <= item["bound"] else "TOO NOISY"
        rows.append(f"  {name:18s} {item['unit']:4s} q1={q1:<12.6g} "
                    f"median={median:<12.6g} q3={q3:<12.6g} "
                    f"spread={spread:.4f} bound={item['bound']:.2f} "
                    f"[{verdict}]")
    return rows


def worse_by(item: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if item["better"] == "lower" else -change


def measure(args, spec: dict) -> int:
    names = [item["name"] for item in spec["workloads"]]
    chosen = args.workloads or names
    raw: dict = {name: {"runs": []} for name in chosen}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in chosen:
            result = one_run(spec, workload, seed, args.seconds)
            raw[workload]["runs"].append({"seed": seed, **result})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
    lines = [f"perfbench steadiness: {args.runs} runs per workload, seeds "
             f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
             f"{args.seconds}s each"]
    healthy = True
    for workload in chosen:
        runs = raw[workload]["runs"]
        values = {item["name"]: [run["metrics"][item["name"]]["value"]
                                 for run in runs]
                  for item in spec["end_to_end"]}
        raw[workload]["values"] = values
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        correct = all(run["correct"] for run in runs)
        lines.append(f"{workload}: correct={correct} failed={failed} of "
                     f"{attempted} attempted")
        rows = spread_rows(spec, values)
        healthy = healthy and correct and failed == 0 and \
            not any("TOO NOISY" in row for row in rows)
        lines.extend(rows)
    report = "\n".join(lines)
    print(report)
    if args.out:
        stem = Path(args.out)
        stem.parent.mkdir(parents=True, exist_ok=True)
        stem.with_suffix(".txt").write_text(report + "\n")
        stem.with_suffix(".json").write_text(json.dumps(raw, indent=1) + "\n")
    return 0 if healthy else 1


def compare(args, spec: dict) -> int:
    first, second = (json.loads(Path(path).read_text())
                     for path in args.compare)
    lines = [f"perfbench medians: {args.compare[1]} against "
             f"{args.compare[0]}"]
    healthy = True
    for workload in first:
        lines.append(f"{workload}:")
        for item in spec["end_to_end"]:
            name = item["name"]
            before = common.quartiles(first[workload]["values"][name])[1]
            after = common.quartiles(second[workload]["values"][name])[1]
            worse = worse_by(item, before, after)
            verdict = "ok" if worse <= item["bound"] else "WORSE"
            healthy = healthy and verdict == "ok"
            lines.append(f"  {name:18s} {before:<12.6g} -> {after:<12.6g} "
                         f"worse by {worse:+.4f} bound={item['bound']:.2f} "
                         f"[{verdict}]")
    report = "\n".join(lines)
    print(report)
    if args.out:
        Path(args.out).with_suffix(".txt").write_text(report + "\n")
    return 0 if healthy else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", default=None,
                        help="write <stem>.txt and <stem>.json")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        default=None,
                        help="compare the medians of two saved sets")
    args = parser.parse_args(argv)
    spec = common.load_spec()
    if args.compare:
        return compare(args, spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
