"""Tests of the benchmark's own pieces (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DEPTHS = [1 + index % 3 for index in range(common.POOLS["corpus"][1])]


def test_same_seed_same_caller_sequences():
    for caller in range(workloads.MIXED_CALLERS):
        first = workloads.mixed_sequence(7, caller, DEPTHS)
        assert first == workloads.mixed_sequence(7, caller, DEPTHS)
        assert first != workloads.mixed_sequence(8, caller, DEPTHS)
    stream = list(itertools.islice(workloads.warm_stream(7, 0, DEPTHS), 500))
    assert stream == list(itertools.islice(
        workloads.warm_stream(7, 0, DEPTHS), 500))
    assert workloads.corpus_order(7) == workloads.corpus_order(7)
    assert workloads.warm_set(7, DEPTHS) == workloads.warm_set(7, DEPTHS)
    assert workloads.warm_set(7, DEPTHS) != workloads.warm_set(8, DEPTHS)


def test_callers_send_disjoint_novel_nests_one_block_in_four():
    shares = [set(workloads.novel_share(3, caller))
              for caller in range(workloads.MIXED_CALLERS)]
    assert not shares[0] & shares[1]
    assert len(shares[0] | shares[1]) == common.POOLS["novel"][1]
    sequence = workloads.mixed_sequence(3, 0, DEPTHS)
    for start in range(0, len(sequence), workloads.MIXED_BLOCK):
        block = sequence[start:start + workloads.MIXED_BLOCK]
        assert sum(request.novel for request in block) == 1


def test_warm_set_is_distinct_and_covers_each_depth():
    warm = workloads.warm_set(5, DEPTHS)
    assert len({request.key for request in warm}) == len(warm) == 200
    depths = [DEPTHS[index] for index in workloads.warm_nests(DEPTHS)]
    assert sorted(set(depths)) == [1, 2, 3]
    assert max(depths.count(d) for d in (1, 2, 3)) - \
        min(depths.count(d) for d in (1, 2, 3)) <= 1


def test_tail_percentile_needs_ten_samples_beyond():
    assert common.samples_beyond(200, 95) == 10
    assert common.samples_beyond(199, 95) == 9
    assert common.tail_percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError):
        common.tail_percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        common.tail_percentile(list(range(999)), 99)
    assert common.tail_percentile(list(range(1000)), 99) == 989


ENTRY = {"structural_key": "k", "depth": 2, "unroll": [1, 0],
         "balance": "3/2"}


def _prep() -> run.Prepared:
    expected = {"pools": {"corpus": {"entries": [ENTRY]}}}
    return run.Prepared("serve_mixed", 0, expected,
                        analyze_expected={0: {"ok": True, "kind": "analyze"}})


def _tally(verdicts) -> run.Tally:
    tally = run.Tally()
    for verdict in verdicts:
        tally.add(run.Record(0.0, 1.0, None, verdict))
    return tally


def test_non_2xx_and_wrong_answers_are_failures():
    prep = _prep()
    optimize = workloads.Request("optimize", "json", "corpus", 0)
    good = {"ok": True, "structural_key": "k", "unroll": [1, 0],
            "balance": 1.5}
    assert run.check_answer(prep, optimize, 200, good) == "ok"
    assert run.check_answer(prep, optimize, 500, good) == "failed"
    assert run.check_answer(prep, optimize, 429, {"ok": False}) == "failed"
    assert run.check_answer(prep, optimize, None, None) == "failed"
    assert run.check_answer(prep, optimize, 200,
                            dict(good, unroll=[2, 0])) == "wrong"
    assert run.check_answer(prep, optimize, 200,
                            dict(good, balance=1.25)) == "wrong"
    analyze = workloads.Request("analyze", "json", "corpus", 0)
    assert run.check_answer(prep, analyze, 200,
                            {"ok": True, "kind": "analyze"}) == "ok"
    assert run.check_answer(prep, analyze, 200,
                            {"ok": True, "kind": "other"}) == "wrong"
    tally = _tally(["ok", "failed", "wrong", "ok"])
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, 1)


def test_fast_tier_disagreement_is_not_a_failure():
    prep = _prep()
    auto = workloads.Request("optimize", "json", "corpus", 0, tier="auto")
    fast = {"ok": True, "structural_key": "k", "tier": "fast"}
    assert run.check_answer(prep, auto, 200,
                            dict(fast, unroll=[1, 0])) == "fast"
    verdict = run.check_answer(prep, auto, 200, dict(fast, unroll=[0, 0]))
    assert verdict == "disagree"
    assert _tally([verdict]).failed == 0


def test_corpus_verdicts():
    assert run.corpus_verdict(ENTRY, [1, 0], "3/2", "k") == "ok"
    assert run.corpus_verdict(ENTRY, [0, 0], "3/2", "k") == "wrong"
    assert run.corpus_verdict(ENTRY, [1, 0], "1/1", "k") == "wrong"
    assert run.corpus_verdict(ENTRY, [1, 0], "3/2", "other") == "wrong"
    assert run.corpus_verdict(ENTRY, None, None, None) == "failed"
    assert _tally([run.corpus_verdict(ENTRY, [0, 0], "3/2", "k")]).failed == 1


def test_calibrator_scales_by_the_kernel_times_around_the_work():
    span = common.CALIBRATION_SPAN_S
    calibrator = common.Calibrator.__new__(common.Calibrator)
    calibrator.samples = [(0.0, 30.0), (0.5 * span, 60.0), (3 * span, 60.0),
                          (10 * span, 15.0)]
    reference = common.REFERENCE_MS
    # The bracketing pair plus every sample within the span of the work.
    assert calibrator.factor(0.6 * span, 0.7 * span) == reference / 50.0
    # Far from every sample: only the bracketing pair.
    assert calibrator.factor(5 * span, 6 * span) == reference / 37.5
    assert calibrator.scaled(5 * span, 6 * span) == pytest.approx(
        span * reference / 37.5)
    # After the last sample: the last one alone.
    assert calibrator.factor(11 * span, 12 * span) == reference / 15.0
