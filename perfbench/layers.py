"""One engine pass over a nest pool, untraced or traced, in a fresh process.

    seq 0 399 | python3 perfbench/layers.py --pool corpus --seed 3 --traced 1 [--spans out.json]

The untraced pass is the engine path every workload uses
(``api.optimize`` on a fresh ``AnalysisEngine``).  The traced pass makes
the same decision from the layers' public functions -- ``coerce_nest``,
``build_dependence_graph``, ``safe_unroll_bounds``,
``loop_locality_scores``, ``partition_ugs``, then ``choose_unroll`` with
those artifacts and timing ``tables_builder``/``stage`` hooks -- and keeps
one span per call in memory, written out when the pass ends.  A fresh
process per pass matters: the ``lru_cache`` memos in ``reuse.group`` and
``unroll.streams`` and nest interning are process-global, so a second
pass in one process would start partly warm.

The pass takes the positions of its nests in the seeded order one per
line of standard input and answers each with the nest's milliseconds,
so the parent decides when each nest runs: it samples the host's speed
between nests, or alternates an untraced and a traced pass.  The last
line of standard output is one JSON object: the pass's wall time,
per-nest latencies, spans and decisions, CPU and peak RSS when
untraced, the per-layer totals when traced.  ``corpus_cold``'s timed
work is the untraced pass over the corpus pool.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager

import common
import workloads


def untraced_pass(specs, machine, positions) -> dict:
    """The engine path as users call it, timed per nest from outside.
    ``positions`` (a :class:`Steps`) says which nest comes next."""
    from repro import api
    from repro.engine import AnalysisEngine

    engine = AnalysisEngine()
    decisions, balances, keys, latencies = [], [], [], []
    spans: list[tuple[float, float, float]] = []  # (start, end, cpu_s)
    start = time.perf_counter()
    for position in positions:
        began, cpu_began = time.perf_counter(), time.process_time()
        try:
            result = api.optimize(specs[position], machine,
                                  bound=common.BOUND, engine=engine)
        except Exception as err:  # a failed op is reported, not fatal
            print(f"{type(err).__name__}: {err}", file=sys.stderr)
            decisions.append(None)
            balances.append(None)
            keys.append(None)
        else:
            decisions.append(list(result.unroll))
            balances.append(common.fraction_text(result.balance))
            keys.append(result.nest.structural_key())
        ended = time.perf_counter()
        spans.append((began, ended, time.process_time() - cpu_began))
        latencies.append((ended - began) * 1e3)
        positions.done(latencies[-1])
    return {
        "wall_s": time.perf_counter() - start,
        "cpu_s": sum(cpu for _, _, cpu in spans),
        "peak_rss_mb": common.peak_rss_mb("self"),
        "latency_ms": latencies,
        "spans": spans,
        "decisions": decisions,
        "balances": balances,
        "keys": keys,
        "optimize_calls": engine.metrics.counter("engine.optimize"),
        "ugs_hit_ratio": engine.metrics.hit_rate("cache.ugs"),
    }


def traced_pass(specs, machine, positions) -> tuple[dict, list]:
    """The same decisions from the layers' own functions, one span per
    call.  ``positions`` as for :func:`untraced_pass`."""
    from repro import api
    from repro.dependence.graph import build_dependence_graph
    from repro.engine.metrics import Metrics
    from repro.engine.ugscache import UgsTableCache
    from repro.reuse.locality import loop_locality_scores
    from repro.reuse.ugs import partition_ugs
    from repro.unroll.optimize import choose_unroll
    from repro.unroll.safety import safe_unroll_bounds
    from repro.unroll.tables import build_tables

    # The engine's own UGS cache size for its default capacity of 256.
    metrics = Metrics()
    ugs_cache = UgsTableCache(capacity=4096, metrics=metrics)
    line_size = machine.cache_line_words
    spans: list[tuple] = []  # (nest, layer, start_s, end_s)
    results = []
    depths: dict[int, int] = {}

    loop_start = time.perf_counter()
    for number in positions:
        spec = specs[number]

        @contextmanager
        def span(layer: str):
            start = time.perf_counter()
            try:
                yield
            finally:
                spans.append((number, layer, start, time.perf_counter()))

        with span("nest"):
            with span("ir.parse"):
                nest = api.coerce_nest(spec)
            with span("dependence.graph"):
                graph = build_dependence_graph(nest, include_input=False)
            with span("dependence.safety"):
                safety = safe_unroll_bounds(nest, graph)
            with span("reuse.locality"):
                scores = tuple(loop_locality_scores(nest,
                                                    line_size=line_size))
            with span("reuse.partition"):
                ugs = tuple(partition_ugs(nest))

            def tables_builder(target, space, line, trip, ugs=ugs):
                with span("unroll.tables"):
                    return build_tables(target, space, line_size=line,
                                        trip=trip, ugs=list(ugs),
                                        ugs_cache=ugs_cache)

            @contextmanager
            def stage(name: str):
                with span(f"unroll.{name}"):
                    yield

            result = choose_unroll(nest, machine, common.BOUND,
                                   graph=graph, safety=safety, scores=scores,
                                   tables_builder=tables_builder,
                                   stage=stage)
        results.append(result)
        depths[number] = nest.depth
        nest_start, nest_end = spans[-1][2:]
        positions.done((nest_end - nest_start) * 1e3)
    wall = time.perf_counter() - loop_start

    totals: dict[str, float] = {}
    tables_ms: list[float] = []
    depth3_tables = 0.0
    for number, layer, start, end in spans:
        if layer == "nest":
            continue
        totals[layer] = totals.get(layer, 0.0) + (end - start)
        if layer == "unroll.tables":
            tables_ms.append((end - start) * 1e3)
            if depths[number] == 3:
                depth3_tables += end - start
    nest_s = sum(end - start for _, layer, start, end in spans
                 if layer == "nest")
    summary = {
        "wall_s": wall,
        "nest_s": nest_s,
        "decisions": [list(result.unroll) for result in results],
        "layer_s": totals,
        "coverage": sum(totals.values()) / nest_s,
        "tables_ms": tables_ms,
        "tables_depth3_share": (depth3_tables / totals["unroll.tables"]
                                if totals.get("unroll.tables") else 0.0),
        "space_points": sum(len(result.space) for result in results),
        "ugs_hit_ratio": metrics.hit_rate("cache.ugs"),
        "nests": len(specs),
    }
    summary.update(_micro_timings(results, machine))
    return summary, spans


def _micro_timings(results, machine) -> dict:
    """Encode and fast-tier cost per nest, outside the traced pass's wall
    so they do not count as tracing overhead."""
    from repro import api
    from repro.predict.model import load_default_model
    from repro.serve import protocol

    def encode(result):
        payload = protocol.optimize_payload(result.nest, machine, result)
        return json.dumps(payload).encode("utf-8")

    predictor = load_default_model()
    nests = [result.nest for result in results]
    out = {"encode_us": common.median_mean_us(encode, results),
           "predict_us": 0.0, "predictions": []}
    if predictor is not None:
        out["predict_us"] = common.median_mean_us(
            lambda nest: api.predict_unroll(nest, machine, model=predictor),
            nests)
        for nest in nests:
            prediction = api.predict_unroll(nest, machine, model=predictor)
            out["predictions"].append(
                list(prediction.unroll) if prediction is not None else None)
    return out


class Steps:
    """The positions a pass visits, one per line of standard input, each
    answered with that nest's milliseconds on standard output."""

    def __iter__(self):
        for line in sys.stdin:
            yield int(line)

    def done(self, latency_ms: float) -> None:
        print(latency_ms, flush=True)


def pool_sources(pool: str, order: list[int]) -> list[str]:
    """The pool's nests as DO-loop source, in ``order``."""
    from repro.ir.printer import format_nest

    nests = common.pool_nests(pool)
    return [format_nest(nests[index]) for index in order]


def pass_order(pool: str, seed: int) -> list[int]:
    """The pool in the seeded order every pass of this seed uses."""
    if pool == "corpus":
        return workloads.corpus_order(seed)
    order = list(range(common.POOLS[pool][1]))
    common.seeded_rng(seed, f"layers:{pool}").shuffle(order)
    return order


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", choices=sorted(common.POOLS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="write the traced pass's spans here (JSON)")
    args = parser.parse_args(argv)
    common.require_source_tree()
    from repro import api

    machine = api.coerce_machine(common.MACHINE)
    order = pass_order(args.pool, args.seed)
    specs = pool_sources(args.pool, order)
    steps = Steps()
    if not args.traced:
        summary = untraced_pass(specs, machine, steps)
    else:
        summary, spans = traced_pass(specs, machine, steps)
        if args.spans:
            origin = min(start for _, _, start, _ in spans)
            with open(args.spans, "w") as handle:
                json.dump([{"nest": order[number], "layer": layer,
                            "start_us": round((start - origin) * 1e6, 1),
                            "dur_us": round((end - start) * 1e6, 1)}
                           for number, layer, start, end in spans], handle)
    summary["order"] = order
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
