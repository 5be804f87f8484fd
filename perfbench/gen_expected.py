"""Generate ``perfbench/expected.json``: the exact decision for every nest
any workload can send.

    python3 perfbench/gen_expected.py [--commit SHA]

Decisions come from the engine path the workloads use (``api.optimize``
on a fresh ``AnalysisEngine``, ``bound=8``, machine ``alpha``).  Every
depth <= 2 entry is cross-checked against the brute-force oracle
(``repro.baselines.brute_force.brute_force_choose``: re-unroll and
re-measure every vector of the same space); any disagreement aborts
without writing.  Depth-3 entries are regression goldens: re-measuring
all 81 points of a three-deep nest's unroll box is too slow to run on
every regeneration.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import common


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default=None,
                        help="commit the decisions were generated at "
                             "(default: git HEAD)")
    args = parser.parse_args(argv)
    common.require_source_tree()
    from repro import api
    from repro.baselines.brute_force import brute_force_choose
    from repro.engine import AnalysisEngine

    machine = api.coerce_machine(common.MACHINE)
    doc = {
        "format": 1,
        "commit": args.commit or _commit(),
        "machine": common.MACHINE,
        "bound": common.BOUND,
        "note": ("depth <= 2 entries agree with brute_force_choose over the "
                 "same unroll space; depth-3 entries are regression goldens "
                 "(not brute-force checked)"),
        "pools": {},
    }
    disagreements = 0
    for name, (seed, count) in common.POOLS.items():
        engine = AnalysisEngine()
        entries = []
        checked = 0
        started = time.perf_counter()
        for index, nest in enumerate(common.pool_nests(name)):
            result = api.optimize(common.wire_nest(nest, name, index),
                                  machine, bound=common.BOUND, engine=engine)
            entry = {
                "index": index,
                "structural_key": result.nest.structural_key(),
                "depth": nest.depth,
                "unroll": list(result.unroll),
                "balance": common.fraction_text(result.balance),
                "oracle": "golden",
            }
            if nest.depth <= 2:
                oracle = brute_force_choose(result.nest, machine,
                                            result.space)
                checked += 1
                if (oracle.unroll != result.unroll
                        or oracle.breakdown.balance != result.balance):
                    disagreements += 1
                    print(f"{name}[{index}]: engine {result.unroll} "
                          f"{result.balance} != brute force {oracle.unroll} "
                          f"{oracle.breakdown.balance}", file=sys.stderr)
                entry["oracle"] = "brute_force"
            entries.append(entry)
        doc["pools"][name] = {"corpus_seed": seed, "count": count,
                              "entries": entries}
        print(f"{name}: {count} nests, {checked} brute-force checked, "
              f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
    if disagreements:
        print(f"{disagreements} disagreement(s) with the oracle; "
              f"expected.json not written", file=sys.stderr)
        return 1
    common.EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {common.EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
