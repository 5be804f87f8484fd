"""The repo benchmark: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload corpus_cold --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  Workloads (perfbench/NOTES.md has
the detail):

* ``corpus_cold`` -- cold passes of ``api.optimize`` over the 400-nest
  corpus pool in a seeded order, each in a fresh process, until
  ``--seconds`` have gone by (a pass is never cut short).
* ``serve_mixed`` -- two closed-loop callers against a fresh
  ``python -m repro serve --port 0``; one request in four is a novel
  nest (exact tier, ``bound=8``), the rest repeat a warmed set.

The whole run is bound to one CPU.  Every time reported is scaled by the
host's speed, sampled with a fixed reference kernel between pieces of
the program's work (``common.Calibrator``).  Every answer is checked:
exact decisions against ``expected.json``, analyze/transform bodies
against ``api.analyze``/``api.transform`` computed during setup.  With
``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the per-layer ones (``layers.py`` passes in fresh
processes, wire and parse micro-timings on the bodies the run sent).  A
human-readable report goes to standard error; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import common
import workloads

#: Fresh processes started per run to measure set-up; the median is kept.
SETUP_REPEATS = 5

#: ``serve_mixed``'s window runs in slices of this many seconds, with
#: this many host-speed samples in the pause after each.
SLICE_S = 2.5
SLICE_SAMPLES = 3

#: The end-to-end tail percentile (every workload has >= 200 samples, so
#: at least 10 lie beyond it).
TAIL_Q = 95

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


# -- set-up ------------------------------------------------------------------

@dataclass
class Prepared:
    """Everything a run needs before its first timed operation."""

    workload: str
    seed: int
    expected: dict
    specs: dict = field(default_factory=dict)  # (pool, index) -> wire nest
    order: list = field(default_factory=list)  # corpus_cold's pass order
    sources: list = field(default_factory=list)  # corpus_cold's DO-loop text
    warm: list = field(default_factory=list)   # serve: distinct repeats
    sequences: list = field(default_factory=list)  # per caller
    analyze_expected: dict = field(default_factory=dict)
    transform_expected: dict = field(default_factory=dict)

    def entry(self, pool: str, index: int) -> dict:
        return self.expected["pools"][pool]["entries"][index]


def prepare(workload: str, seed: int) -> Prepared:
    """Generate the workload's inputs and the answers to check against."""
    from repro import api
    from repro.ir.printer import format_nest
    from repro.serve import protocol

    prep = Prepared(workload, seed, common.load_expected())
    for pool in common.POOLS:
        entries = prep.expected["pools"][pool]["entries"]
        if len(entries) != common.POOLS[pool][1]:
            raise SystemExit(f"perfbench: expected.json holds "
                             f"{len(entries)} {pool} entries, the pool has "
                             f"{common.POOLS[pool][1]}; regenerate it")
    corpus = common.pool_nests("corpus")
    if workload == "corpus_cold":
        prep.order = workloads.corpus_order(seed)
        prep.sources = [format_nest(corpus[index]) for index in prep.order]
        return prep
    depths = [entry["depth"] for entry in
              prep.expected["pools"]["corpus"]["entries"]]
    prep.warm = workloads.warm_set(seed, depths)
    prep.sequences = [workloads.mixed_sequence(seed, caller, depths)
                      for caller in range(workloads.MIXED_CALLERS)]
    novel = common.pool_nests("novel")
    for caller in range(workloads.MIXED_CALLERS):
        for index in workloads.novel_share(seed, caller):
            prep.specs[("novel", index)] = common.wire_nest(
                novel[index], "novel", index)
    machine = api.coerce_machine(common.MACHINE)
    for request in prep.warm:
        index = request.index
        spec = prep.specs.setdefault(
            ("corpus", index), common.wire_nest(corpus[index], "corpus",
                                                index))
        if request.kind == "analyze":
            nest = api.coerce_nest(spec)
            prep.analyze_expected[index] = protocol.analyze_payload(
                nest, machine, api.analyze(nest, machine))
        elif request.kind == "transform":
            nest = api.coerce_nest(spec)
            unrolled = api.transform(nest, prep.entry("corpus",
                                                      index)["unroll"])
            prep.transform_expected[index] = protocol.transform_payload(
                nest, machine, unrolled)
    return prep


def probe_setup(workload: str, seed: int, calibrator) -> float:
    """Seconds from starting a fresh benchmark process to its inputs
    being ready (the process prints ``ready`` and exits), host-speed
    scaled."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--seed",
         str(seed), "--probe"], cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait(timeout=STOP_TIMEOUT_S)
    if line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    calibrator.sample()
    return elapsed * calibrator.factor(started, started + elapsed)


# -- the server under test ---------------------------------------------------

class Server:
    """A fresh ``python -m repro serve --port 0`` subprocess."""

    def __init__(self):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_at = time.perf_counter()
        # Drain the pipe so a chatty server can never block on it.
        self._drain = threading.Thread(target=self._drain_output,
                                       daemon=True)
        self._drain.start()

    def _wait_ready(self) -> int:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + READY_TIMEOUT_S
        buffer = b""
        while True:
            match = re.search(rb"listening on http://[^:\s]+:(\d+)", buffer)
            if match:
                return int(match.group(1))
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not become ready")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        "server exited before ready: "
                        + buffer.decode("utf-8", "replace")[-500:])
                buffer += chunk

    def _drain_output(self) -> None:
        for _ in self.proc.stdout:
            pass

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}") as handle:
            return handle.read()

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the server so far."""
        fields = self._proc_file("stat").rpartition(")")[2].split()
        ticks = int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(str(self.proc.pid))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=STOP_TIMEOUT_S)
        self.proc.stdout.close()


# -- requests and their checks -----------------------------------------------

@dataclass
class Record:
    """One completed operation."""

    start: float
    end: float
    request: object      # workloads.Request (serve) or pool index (corpus)
    verdict: str         # ok | failed | wrong | fast | disagree
    depth: int = 0
    scale: float = 1.0   # host-speed factor (common.Calibrator)

    @property
    def latency_ms(self) -> float:
        """Host-speed scaled milliseconds."""
        return (self.end - self.start) * 1e3 * self.scale


def _without_name(payload: dict) -> dict:
    """A response body minus its echoed nest name.  The server keys its
    result cache by structure, so a nest structurally identical to one
    answered before gets that nest's name echoed back; the analysis is
    the same either way."""
    return {key: value for key, value in payload.items() if key != "nest"}


def check_answer(prep: Prepared, request, status, doc) -> str:
    """``ok``, ``failed`` (non-2xx or no body), ``wrong`` (an answer that
    differs from the expected one), ``fast`` (a fast-tier answer equal to
    the exact one) or ``disagree`` (a fast-tier answer that differs from
    it: counted, not a failure)."""
    if status != 200 or not isinstance(doc, dict) or doc.get("ok") is not True:
        return "failed"
    if request.kind in ("analyze", "transform"):
        expected = (prep.analyze_expected if request.kind == "analyze"
                    else prep.transform_expected)[request.index]
        return "ok" if _without_name(doc) == _without_name(expected) \
            else "wrong"
    entry = prep.entry(request.pool, request.index)
    if doc.get("structural_key") != entry["structural_key"]:
        return "wrong"
    if doc.get("tier") == "fast":
        return "fast" if doc.get("unroll") == entry["unroll"] \
            else "disagree"
    return "ok" if common.decision_matches(entry, doc.get("unroll", ()),
                                           doc.get("balance")) else "wrong"


def corpus_verdict(entry: dict, unroll, balance: str | None,
                   key: str | None) -> str:
    """``corpus_cold``'s check: ``failed`` when the pass raised (no
    decision), ``wrong`` unless nest, vector and exact balance match."""
    if unroll is None:
        return "failed"
    if (key == entry["structural_key"] and unroll == entry["unroll"]
            and balance == entry["balance"]):
        return "ok"
    return "wrong"


def corpus_records(prep: Prepared, done: dict, tally: Tally) -> list:
    """One ``layers.py`` pass over the corpus pool, checked nest by nest
    against the file; scaled latencies when the pass has them."""
    records = []
    latencies = done.get("scaled_ms", done["latency_ms"])
    for position, index in enumerate(prep.order):
        entry = prep.entry("corpus", index)
        verdict = corpus_verdict(entry, done["decisions"][position],
                                 done["balances"][position],
                                 done["keys"][position])
        records.append(Record(0.0, latencies[position] / 1e3, index,
                              verdict, entry["depth"]))
        tally.add(records[-1])
    return records


class Caller:
    """One closed-loop caller: a JSON-lane and a frame-lane client."""

    def __init__(self, prep: Prepared, port: int):
        from repro.serve.client import Client

        self.prep = prep
        self.clients = {
            lane: Client("127.0.0.1", port, timeout=120.0, transport=lane,
                         max_retries=0)
            for lane in ("json", "binary")}
        self.bodies: dict[tuple, bytes] = {}  # request key -> bytes sent
        self.reported = 0  # failed or wrong answers printed so far

    def send(self, request) -> Record:
        spec = self.prep.specs[(request.pool, request.index)]
        params = {"tier": request.tier} if request.tier else {}
        lane = "binary" if request.lane == "frame" else "json"
        client = self.clients[lane]
        start = time.perf_counter()
        try:
            status, doc = client.call(request.kind, spec, None, params)
        except (OSError, http.client.HTTPException):
            status, doc = None, None
        end = time.perf_counter()
        if request.key not in self.bodies:
            self.bodies[request.key] = (
                client._encode_frame(request.kind, spec, None, params)
                if lane == "binary" else
                json.dumps({"nest": spec, **params}).encode("utf-8"))
        depth = self.prep.entry(request.pool, request.index)["depth"]
        verdict = check_answer(self.prep, request, status, doc)
        if verdict in ("failed", "wrong") and self.reported < 5:
            self.reported += 1
            print(f"{verdict}: {request} -> {status} {str(doc)[:300]}",
                  file=sys.stderr)
        return Record(start, end, request, verdict, depth)

    def close(self) -> None:
        for client in self.clients.values():
            client.close()


# -- statistics ----------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and how they ended."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def add(self, record: Record) -> None:
        self.attempted += 1
        if record.verdict in ("failed", "wrong"):
            self.failed += 1
        if record.verdict == "wrong":
            self.wrong += 1


def latency_summary(records: list[Record]) -> dict:
    values = [record.latency_ms for record in records]
    return {"latency_p50_ms": statistics.median(values),
            "latency_p95_ms": common.tail_percentile(values, TAIL_Q),
            "samples": len(values)}


def split_line(name: str, records: list[Record]) -> str:
    """One class of a run's latencies, with every tail that has ten
    samples beyond it."""
    values = [record.latency_ms for record in records]
    if not values:
        return f"  {name}: no samples"
    parts = [f"n={len(values)}", f"p50={statistics.median(values):.3f}ms"]
    for q in (95, 99):
        if common.samples_beyond(len(values), q) >= 10:
            parts.append(f"p{q}={common.percentile(values, q):.3f}ms")
    return f"  {name}: " + " ".join(parts)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- workloads -----------------------------------------------------------------

def run_corpus_cold(prep: Prepared, seconds: float, calibrator,
                    setup_s: float,
                    report: list[str]) -> tuple[dict, Tally, dict]:
    """Cold passes over the corpus pool in the seed's order, each in a
    fresh process, started until ``seconds`` have gone by.  Every metric
    covers every nest of every pass, host-speed scaled."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(calibrated_pass("corpus", prep.seed, calibrator))
    tally = Tally()
    records: list[Record] = []
    for done in passes:
        records.extend(corpus_records(prep, done, tally))
    answered = [record for record in records if record.verdict != "failed"]
    summary = latency_summary(answered)
    busy_s = sum(record.end for record in answered)
    metrics = {
        "throughput_per_s": metric(len(answered) / busy_s, "1/s"),
        "latency_p50_ms": metric(summary["latency_p50_ms"], "ms"),
        "latency_p95_ms": metric(summary["latency_p95_ms"], "ms"),
        "cpu_ms_per_op": metric(sum(done["scaled_cpu_s"] for done in passes)
                                * 1e3 / len(records), "ms"),
        "peak_rss_mb": metric(max(done["peak_rss_mb"] for done in passes),
                              "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    reference = [ms for _, ms in calibrator.samples]
    report.append(f"  passes: {len(passes)} x {len(prep.order)} nests, "
                  f"walls " + ", ".join(f"{done['wall_s']:.2f}s"
                                        for done in passes)
                  + f"; scaled busy {busy_s:.2f}s; tail p{TAIL_Q} over "
                  f"{summary['samples']} samples; ugs hit ratio "
                  f"{passes[0]['ugs_hit_ratio']:.3f}")
    report.append(f"  host speed: reference kernel median "
                  f"{statistics.median(reference):.2f}ms over "
                  f"{len(reference)} samples (scaled to "
                  f"{common.REFERENCE_MS:g}ms)")
    report.append(split_line("depth<=2", [r for r in answered
                                          if r.depth <= 2]))
    report.append(split_line("depth=3", [r for r in answered
                                         if r.depth == 3]))
    context = {"requests": len(records),
               "counters": {"engine.optimize": sum(done["optimize_calls"]
                                                   for done in passes)}}
    return metrics, tally, context


def _counter_delta(before: dict, after: dict) -> dict:
    names = set(before) | set(after)
    return {name: after.get(name, 0) - before.get(name, 0) for name in names}


def _metrics_doc(caller: Caller) -> dict:
    status, doc = caller.clients["json"].metrics()
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return doc["metrics"]


class Gate:
    """Lets the callers run in slices.  Between slices the window pauses:
    every caller finishes the request it has in flight, and the host's
    speed is sampled with nothing else running."""

    def __init__(self):
        self._cond = threading.Condition()
        self._paused = True
        self._busy = 0

    def enter(self) -> None:
        with self._cond:
            while self._paused:
                self._cond.wait()
            self._busy += 1

    def leave(self) -> None:
        with self._cond:
            self._busy -= 1
            self._cond.notify_all()

    def pause(self) -> None:
        with self._cond:
            self._paused = True
            while self._busy:
                self._cond.wait()

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()


def run_serve(prep: Prepared, seconds: float, calibrator,
              setup_parts: dict,
              report: list[str]) -> tuple[dict, Tally, dict]:
    ready = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server = Server()
        calibrator.sample()
        ready.append(calibrator.scaled(server.started, server.ready_at))
    callers = [Caller(prep, server.port) for _ in prep.sequences]
    tally = Tally()
    try:
        warm = Tally()
        warm_records = []
        for request in prep.warm:
            warm_records.append(callers[0].send(request))
            warm.add(warm_records[-1])
            if calibrator.since_last() >= common.CALIBRATE_EVERY_S:
                calibrator.sample()
        calibrator.sample()
        warm_s = sum(calibrator.scaled(record.start, record.end)
                     for record in warm_records)
        setup_s = (setup_parts["inputs_s"] + statistics.median(ready)
                   + warm_s)

        before = _metrics_doc(callers[0])
        gate = Gate()
        stop = threading.Event()  # a caller ran out, or time is up
        per_caller: list[list[Record]] = [[] for _ in callers]

        def loop(number: int) -> None:
            caller, records = callers[number], per_caller[number]
            for request in prep.sequences[number]:
                gate.enter()
                try:
                    if stop.is_set():
                        return
                    records.append(caller.send(request))
                finally:
                    gate.leave()
            stop.set()

        threads = [threading.Thread(target=loop, args=(number,))
                   for number in range(len(callers))]
        for thread in threads:
            thread.start()
        slices = []  # (start, end, server CPU seconds)
        worked = 0.0
        try:
            while not stop.is_set() and worked < seconds:
                cpu0 = server.cpu_s()
                start = time.perf_counter()
                gate.resume()
                stop.wait(min(SLICE_S, seconds - worked))
                gate.pause()
                end = time.perf_counter()
                slices.append((start, end, server.cpu_s() - cpu0))
                worked += end - start
                for _ in range(SLICE_SAMPLES):
                    calibrator.sample()
        finally:
            stop.set()
            gate.resume()
            for thread in threads:
                thread.join()
        after = _metrics_doc(callers[0])
        peak_rss = server.peak_rss_mb()
    finally:
        for caller in callers:
            caller.close()
        server.stop()

    everything = [record for records in per_caller for record in records]
    for record in everything:
        tally.add(record)
    tally.wrong += warm.wrong
    tally.failed += warm.failed
    tally.attempted += warm.attempted
    scaled_window = sum(calibrator.scaled(start, end)
                        for start, end, _ in slices)
    scaled_cpu = sum(cpu * calibrator.factor(start, end)
                     for start, end, cpu in slices)
    for record in everything:
        record.scale = calibrator.factor(record.start, record.end)
    answered = [record for record in everything if record.verdict != "failed"]
    summary = latency_summary(answered)
    metrics = {
        "throughput_per_s": metric(len(answered) / scaled_window, "1/s"),
        "latency_p50_ms": metric(summary["latency_p50_ms"], "ms"),
        "latency_p95_ms": metric(summary["latency_p95_ms"], "ms"),
        "cpu_ms_per_op": metric(scaled_cpu * 1e3 / len(everything), "ms"),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    counters = _counter_delta(before.get("counters", {}),
                              after.get("counters", {}))
    stage_before = before.get("stages", {}).get("stage.optimize", {})
    stage_after = after.get("stages", {}).get("stage.optimize", {})
    context = {
        "counters": counters,
        "requests": len(everything),
        "auto_sent": sum(1 for record in everything
                         if record.request.tier == "auto"),
        "fast": sum(1 for record in everything
                    if record.verdict in ("fast", "disagree")),
        "disagree": sum(1 for record in everything
                        if record.verdict == "disagree"),
        "stage_optimize_s": (stage_after.get("total_s", 0.0)
                             - stage_before.get("total_s", 0.0)),
        "bodies": {key: body for caller in callers
                   for key, body in caller.bodies.items()},
    }
    window_s = sum(end - start for start, end, _ in slices)
    report.append(
        f"  requests: {len(everything)} in {len(slices)} slices, "
        f"{window_s:.2f}s wall, {scaled_window:.2f}s scaled; "
        f"{len(callers)} caller(s); tail p{TAIL_Q} over "
        f"{summary['samples']} samples; raw p50 "
        f"{statistics.median((r.end - r.start) * 1e3 for r in answered):.3f}ms")
    reference = [ms for _, ms in calibrator.samples]
    report.append(f"  host speed: reference kernel median "
                  f"{statistics.median(reference):.2f}ms over "
                  f"{len(reference)} samples (scaled to "
                  f"{common.REFERENCE_MS:g}ms)")
    report.append(
        f"  set-up (scaled): inputs {setup_parts['inputs_s']:.3f}s + server "
        f"ready {statistics.median(ready):.3f}s (median of {len(ready)}) + "
        f"warm pass {warm_s:.3f}s over {len(prep.warm)} distinct requests")
    report.append(split_line("lane json", [r for r in answered
                                           if r.request.lane == "json"]))
    report.append(split_line("lane frame", [r for r in answered
                                            if r.request.lane == "frame"]))
    variants = sorted({(r.request.kind, r.request.lane, r.request.tier or "")
                       for r in answered})
    for kind, lane, tier in variants:
        report.append(split_line(f"{kind} {lane} {tier}".rstrip(), [
            r for r in answered if (r.request.kind, r.request.lane,
                                    r.request.tier or "") ==
            (kind, lane, tier)]))
    report.append(split_line("hit", [r for r in answered
                                     if not r.request.novel]))
    report.append(split_line("miss", [r for r in answered
                                      if r.request.novel]))
    report.append(split_line("miss_shallow", [
        r for r in answered if r.request.novel and r.depth <= 2]))
    report.append(f"  server counters over the window: "
                  f"optimize={counters.get('engine.optimize', 0)} "
                  f"rejected={counters.get('serve.rejected', 0)} "
                  f"timeouts={counters.get('serve.timeouts', 0)} "
                  f"errors={counters.get('serve.errors', 0)} "
                  f"stage.optimize={context['stage_optimize_s']:.3f}s")
    return metrics, tally, context


# -- the traced run's per-layer measurements ---------------------------------

def calibrated_pass(pool: str, seed: int, calibrator) -> dict:
    """One untraced ``layers.py`` engine pass over ``pool`` in a fresh
    process, driven one nest at a time so that host-speed samples fall
    between nests.  Adds ``scaled_ms`` per nest and ``scaled_cpu_s`` to
    the pass's summary."""
    proc = subprocess.Popen(
        [sys.executable, str(common.BENCH_DIR / "layers.py"), "--pool",
         pool, "--seed", str(seed), "--traced", "0"],
        cwd=common.ROOT, env=common.child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True)
    try:
        calibrator.sample()
        for position in range(common.POOLS[pool][1]):
            proc.stdin.write(f"{position}\n")
            proc.stdin.flush()
            if not proc.stdout.readline():
                raise RuntimeError("layers.py stopped mid-pass")
            if calibrator.since_last() >= common.CALIBRATE_EVERY_S:
                calibrator.sample()
        out, _ = proc.communicate(timeout=STOP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"layers.py failed ({proc.returncode})")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    calibrator.sample()
    done = json.loads(out.strip().splitlines()[-1])
    factors = [calibrator.factor(start, end)
               for start, end, _ in done["spans"]]
    done["scaled_ms"] = [(end - start) * 1e3 * factor for (start, end, _),
                         factor in zip(done["spans"], factors)]
    done["scaled_cpu_s"] = sum(cpu * factor for (_, _, cpu), factor
                               in zip(done["spans"], factors))
    return done


def lockstep_passes(pool: str, seed: int, spans_path: str) -> list[dict]:
    """An untraced and a traced pass over ``pool``, each in its own fresh
    process, advanced one nest at a time in turn (which goes first
    alternates), so the host's slow spells fall on both alike and their
    ratio is the tracing overhead."""
    command = [sys.executable, str(common.BENCH_DIR / "layers.py"),
               "--pool", pool, "--seed", str(seed)]
    procs = [subprocess.Popen(command + extra, cwd=common.ROOT,
                              env=common.child_env(), text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
             for extra in (["--traced", "0"],
                           ["--traced", "1", "--spans", spans_path])]
    try:
        for position in range(common.POOLS[pool][1]):
            for proc in procs if position % 2 == 0 else procs[::-1]:
                proc.stdin.write(f"{position}\n")
                proc.stdin.flush()
                if not proc.stdout.readline():
                    raise RuntimeError("layers.py stopped mid-pass")
        summaries = []
        for proc in procs:
            out, _ = proc.communicate(timeout=STOP_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"layers.py failed ({proc.returncode})")
            summaries.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return summaries


def wire_timings(prep: Prepared, context: dict) -> dict:
    """Parse and decode cost per request on the bodies this run sent (for
    ``corpus_cold``, the v1 and v2 bodies that would carry its nests)."""
    from repro import api
    from repro.serve import protocol

    if prep.workload == "corpus_cold":
        corpus = common.pool_nests("corpus")
        specs = [common.wire_nest(corpus[index], "corpus", index)
                 for index in prep.order]
        json_bodies = [("optimize", json.dumps({"nest": spec}).encode())
                       for spec in specs]
        frames = []
        for spec in specs:
            nest = api.coerce_nest(spec)
            frames.append(protocol.encode_request_frame(
                "optimize", {"nest": api.serialize_nest(nest)},
                key=nest.structural_key()))
    else:
        bodies = context["bodies"]
        specs = [prep.specs[(pool, index)]
                 for pool, index in {(key[2], key[3]) for key in bodies}]
        json_bodies = [(key[0], body) for key, body in bodies.items()
                       if key[1] == "json"]
        frames = [body for key, body in bodies.items() if key[1] == "frame"]
    return {
        "ir.parse_us": common.median_mean_us(api.coerce_nest, specs),
        "wire.json_decode_us": common.median_mean_us(
            lambda item: protocol.parse_request(item[0], item[1]),
            json_bodies),
        "wire.frame_decode_us": common.median_mean_us(protocol.parse_frame_request,
                                         frames),
    }


def per_layer(prep: Prepared, context: dict | None, tally: Tally,
              report: list[str]) -> tuple[dict, bool]:
    """Every per-layer metric, and whether the traced decisions equal
    the untraced engine path's and the expected file's.  ``context`` is
    what the serve run saw; for ``corpus_cold`` (``None``) the untraced
    pass here is the workload's run, checked into ``tally``."""
    pool = "novel" if prep.workload == "serve_mixed" else "corpus"
    out_dir = common.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{prep.workload}-{prep.seed}.json"
    plain, traced = lockstep_passes(pool, prep.seed, str(spans_path))
    entries = prep.expected["pools"][pool]["entries"]
    expected = [entries[index]["unroll"] for index in traced["order"]]
    consistent = traced["decisions"] == plain["decisions"] == expected
    if context is None:
        corpus_records(prep, plain, tally)
        context = {"requests": len(plain["decisions"]),
                   "counters": {"engine.optimize": plain["optimize_calls"]}}
    layer_s = traced["layer_s"]
    counters = context.get("counters", {})
    requests = context.get("requests", 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    if prep.workload == "serve_mixed":
        fast_served = ratio(context["fast"], context["auto_sent"])
        disagree = ratio(context["disagree"], context["fast"])
    else:
        predictions = traced["predictions"]
        disagree = ratio(sum(1 for got, want in zip(predictions, expected)
                             if got is not None and got != want),
                         sum(1 for got in predictions if got is not None))
        fast_served = 0.0
    optimize_per_request = ratio(counters.get("engine.optimize", 0),
                                 requests)
    values = {
        "unroll.tables_ms": (layer_s.get("unroll.tables", 0.0) * 1e3, "ms"),
        "unroll.tables_p95_ms": (common.tail_percentile(
            traced["tables_ms"], 95), "ms"),
        "unroll.tables_depth3_share": (traced["tables_depth3_share"],
                                       "ratio"),
        "unroll.search_ms": (layer_s.get("unroll.search", 0.0) * 1e3, "ms"),
        "unroll.space_points": (traced["space_points"], "count"),
        "reuse.locality_ms": (layer_s["reuse.locality"] * 1e3, "ms"),
        "reuse.partition_ms": (layer_s["reuse.partition"] * 1e3, "ms"),
        "dependence.graph_ms": ((layer_s["dependence.graph"]
                                 + layer_s["dependence.safety"]) * 1e3,
                                "ms"),
        "wire.encode_us": (traced["encode_us"], "us"),
        "predict.predict_us": (traced["predict_us"], "us"),
        "predict.fast_served_ratio": (fast_served, "ratio"),
        "predict.disagree_ratio": (disagree, "ratio"),
        "engine.ugs_hit_ratio": (traced["ugs_hit_ratio"], "ratio"),
        "engine.optimize_per_request": (optimize_per_request, "ratio"),
        "serve.result_cache_hit_ratio": (ratio(
            counters.get("serve.cache.hit", 0),
            counters.get("serve.requests", 0)), "ratio"),
        "serve.frame_cache_hit_ratio": (ratio(
            counters.get("serve.frame_fast_hits", 0),
            counters.get("serve.frame_fast_hits", 0)
            + counters.get("serve.frame_fast_misses", 0)), "ratio"),
        "serve.mean_batch_jobs": (ratio(counters.get("serve.batched_jobs", 0),
                                        counters.get("serve.batches", 0)),
                                  "jobs"),
        "serve.coalesced": (counters.get("serve.coalesced", 0), "count"),
        "serve.rejected": (counters.get("serve.rejected", 0), "count"),
        "serve.timeouts": (counters.get("serve.timeouts", 0), "count"),
        "serve.errors": (counters.get("serve.errors", 0), "count"),
        "trace.coverage": (traced["coverage"], "ratio"),
        "trace.overhead": (traced["nest_s"] * 1e3 / sum(plain["latency_ms"]),
                           "ratio"),
    }
    for name, value in wire_timings(prep, context).items():
        values[name] = (value, "us")
    report.append(
        f"  traced {pool} pass: {traced['nests']} nests in lockstep with an "
        f"untraced pass, {traced['nest_s']:.2f}s traced / "
        f"{sum(plain['latency_ms']) / 1e3:.2f}s untraced, "
        f"coverage {traced['coverage']:.4f}, decisions "
        f"{'equal' if consistent else 'DIFFER'}; spans in {spans_path}")
    return {name: metric(value, unit)
            for name, (value, unit) in sorted(values.items())}, consistent


# -- entry point -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    why = {item["name"]: item["why"]
           for item in common.load_spec()["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(why), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # set-up timing child
    args = parser.parse_args(argv)
    common.require_source_tree()
    if args.probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    report = [f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}: "
              f"{why[args.workload]}"]
    common.pin_to_one_cpu()
    calibrator = common.Calibrator()
    prep = prepare(args.workload, args.seed)
    # corpus_cold's traced run is its lockstep pair of passes alone: the
    # untraced one of the pair is the workload, checked like any other.
    context, tally, consistent = None, Tally(), True
    if not (args.trace and args.workload == "corpus_cold"):
        inputs_s = statistics.median(
            probe_setup(args.workload, args.seed, calibrator)
            for _ in range(SETUP_REPEATS))
        if args.workload == "corpus_cold":
            metrics, tally, context = run_corpus_cold(
                prep, args.seconds, calibrator, inputs_s, report)
        else:
            metrics, tally, context = run_serve(
                prep, args.seconds, calibrator, {"inputs_s": inputs_s},
                report)
    if args.trace:
        metrics, consistent = per_layer(prep, context, tally, report)
    for name, value in metrics.items():
        report.append(f"  {name} = {value['value']:.6g} {value['unit']}")
    report.append(f"  attempted={tally.attempted} failed={tally.failed} "
                  f"wrong={tally.wrong}")
    correct = tally.wrong == 0 and consistent
    print("\n".join(report), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
