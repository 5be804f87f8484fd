"""Shared pieces of the repo benchmark: checkout paths, the fixed nest
pools every workload draws from, the expected-answers file, percentile
rules, the answer check and host-speed calibration.

Nothing here imports :mod:`repro` at module level, so the entry point can
report a missing source tree before touching it.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"

MACHINE = "alpha"
BOUND = 8

#: The nest pools.  ``corpus`` is the first 400 nests of the default
#: corpus (``iter_corpus()``, seed 1997): ``corpus_cold`` runs all of it,
#: and ``serve_mixed`` draws its warmed set from it.  ``novel`` comes
#: from a different corpus seed and feeds ``serve_mixed``'s misses, so no
#: miss is a nest the warm-up pass has already answered.
POOLS = {"corpus": (1997, 400), "novel": (4242, 320)}


def require_source_tree() -> None:
    """Exit with code 2 unless the checkout holds the program's source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes: the checkout's source first, and
    any table cache a child might open kept inside the checkout."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(BENCH_DIR / "out" / "cache")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def pool_nests(name: str) -> list:
    """The pool's nests, in corpus order (``LoopNest`` objects)."""
    from repro.corpus import iter_corpus
    from repro.corpus.generator import CorpusConfig

    seed, count = POOLS[name]
    return list(iter_corpus(CorpusConfig(seed=seed), count=count))


def wire_nest(nest, pool: str, index: int) -> dict:
    """The serialized form a request carries: DO-loop source plus a name
    unique within the pools."""
    from repro.ir.printer import format_nest

    return {"source": format_nest(nest), "name": f"{pool}{index:04d}"}


def peak_rss_mb(pid: str) -> float:
    """Peak resident set of a process (``VmHWM``; ``pid`` may be
    ``"self"``).  Unlike ``ru_maxrss`` it starts afresh at ``exec``, so a
    child does not inherit the benchmark's own footprint."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def decision_matches(entry: dict, unroll, balance) -> bool:
    """A served exact decision against its expected entry: the unroll
    vector, and the balance the wire carries as a float."""
    return (list(unroll) == entry["unroll"]
            and balance == float(Fraction(entry["balance"])))


# -- statistics ------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank
    ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail_percentile(values, q: float, min_beyond: int = 10) -> float:
    """The ``q``-th percentile, refused (``ValueError``) when fewer than
    ``min_beyond`` samples lie beyond it: such a tail is one or two
    outliers, not a percentile."""
    beyond = samples_beyond(len(values), q)
    if beyond < min_beyond:
        raise ValueError(f"p{q:g} of {len(values)} samples has only "
                         f"{beyond} beyond it (need {min_beyond})")
    return percentile(values, q)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median_mean_us(fn, items, repeats: int = 5) -> float:
    """Median over ``repeats`` passes of the mean microseconds ``fn``
    takes per item (a micro-timing steady enough to compare)."""
    import statistics
    import time

    means = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            fn(item)
        means.append((time.perf_counter() - start) * 1e6 / len(items))
    return statistics.median(means)


def seeded_rng(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")


# -- host-speed calibration --------------------------------------------------------

def pin_to_one_cpu() -> None:
    """Bind this process, and so every process it starts, to one CPU.

    The host's slow spells can strike one vCPU and not the other, so the
    calibration kernel has to run where the measured work runs; with
    the program, its callers and the kernel on one CPU it always does.
    (With the callers on the other vCPU, their share of each round trip
    escaped the calibration and moved the served p50 by a third.)
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


#: What the reference kernel is scaled to take.  Every time the benchmark
#: reports is scaled as if the host ran the kernel in exactly this long.
REFERENCE_MS = 30.0

#: How far around a piece of work its calibration samples may lie.
CALIBRATION_SPAN_S = 3.0

#: Work between calibration samples, in seconds (a sample costs about a
#: tenth of that).
CALIBRATE_EVERY_S = 0.3


class _Node:
    __slots__ = ("level", "stride", "offsets")

    def __init__(self, level: int, stride: int, offsets: tuple):
        self.level = level
        self.stride = stride
        self.offsets = offsets


#: A heap of about 20 MB the kernel walks at random, built on first use
#: (in the benchmark's own process, never the program's).
_HEAP: dict = {}
_HEAP_SIZE = 100_000
_HEAP_KEYS: list = []


def _heap_walk() -> list:
    if not _HEAP:
        for step in range(_HEAP_SIZE):
            _HEAP[(step, step % 7)] = [step, (step * 7919) % _HEAP_SIZE,
                                       str(step)]
        picks = random.Random(1).choices(range(_HEAP_SIZE), k=4000)
        _HEAP_KEYS.extend((pick, pick % 7) for pick in picks)
    return _HEAP_KEYS


def reference_ms() -> float:
    """Milliseconds one run of a fixed interpreter-bound kernel takes now.

    The kernel does the kinds of work the analyzer does -- dict updates
    keyed by tuples, short list sorts, exact ``Fraction`` arithmetic,
    building and sorting small objects, chasing pointers through a heap
    larger than the caches -- and calls nothing of the program's, so no
    change to the program can move it.  Only the host's speed does.  Of
    the mixes tried on a shared 2-vCPU virtual machine, this one followed
    the program's own slow spells most closely.
    """
    import gc
    import time

    keys = _heap_walk()
    # The collector stays off: a collection would walk the caller's heap,
    # which is not the host's speed.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        count = 0
        for step in range(12000):
            key = (step % 211, step % 17)
            table[key] = table.get(key, 0) + step
            small = [step & 7, step & 3, step & 1]
            small.sort()
            count += small[0] + len(table)
        for key in keys:
            value = _HEAP[key]
            count += len(_HEAP[(value[1], value[1] % 7)][2])
        total = Fraction(0)
        for step in range(1, 1200):
            total += Fraction(step % 13 + 1, step % 7 + 1)
            if total > 100:
                total = Fraction(total.numerator % 97,
                                 total.denominator % 89 + 1)
        nodes = [_Node(step % 97, (step * 7) % 13, (step, step + 1))
                 for step in range(3500)]
        nodes.sort(key=lambda node: (node.stride, node.level))
        count += len({(node.level, node.stride, node.offsets)
                      for node in nodes})
        return (time.perf_counter() - start) * 1e3
    finally:
        if collecting:
            gc.enable()


class Calibrator:
    """Host-speed samples interleaved with the measured work.

    On a shared virtual machine the same interpreter work runs up to 1.8
    times slower for seconds to minutes at a time.  The benchmark runs
    :func:`reference_ms` between pieces of the program's work and scales
    each piece by ``REFERENCE_MS`` over the kernel's time around it, so a
    slow spell stretches the kernel and the program alike and cancels
    out.  Every scaled time therefore reads as on a host where the kernel
    takes exactly ``REFERENCE_MS``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, ms)
        self.sample()

    def sample(self) -> None:
        import time

        measured = reference_ms()
        self.samples.append((time.perf_counter(), measured))

    def since_last(self) -> float:
        """Seconds since the last sample ended."""
        import time

        return time.perf_counter() - self.samples[-1][0]

    def factor(self, start: float, end: float) -> float:
        """The scale for work done between ``start`` and ``end``
        (``perf_counter`` times): ``REFERENCE_MS`` over the mean of the
        samples ending within :data:`CALIBRATION_SPAN_S` of the work,
        always including the last one before it and the first after it
        (one sample alone jitters by a fifth)."""
        import statistics

        times = [at for at, _ in self.samples]
        first = max(0, bisect.bisect_right(times, start) - 1)
        last = min(len(times) - 1, bisect.bisect_left(times, end))
        while first > 0 and times[first - 1] >= start - CALIBRATION_SPAN_S:
            first -= 1
        while (last + 1 < len(times)
               and times[last + 1] <= end + CALIBRATION_SPAN_S):
            last += 1
        window = [ms for _, ms in self.samples[first:last + 1]]
        return REFERENCE_MS / statistics.fmean(window)

    def scaled(self, start: float, end: float) -> float:
        """Seconds between ``start`` and ``end``, host-speed scaled."""
        return (end - start) * self.factor(start, end)
