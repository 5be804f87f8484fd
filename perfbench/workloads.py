"""Seeded inputs of the workloads.

Every function here is a pure function of the seed (and of the committed
pools), so a run can be replayed and the tests can pin determinism.  The
program under test sees only what these functions produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import common

#: ``serve_mixed``'s warmed set: this many nests, each asked in every
#: variant below -- 200 distinct requests, each answered once in set-up.
#: The set is the same for every seed, so set-up does the same work on
#: every run (a seeded choice of depth-3 nests moved it by a quarter).
WARM_NESTS = 40

#: (variant name, verb, lane, tier, weight) of the repeat traffic.  The
#: weights are not measured traffic but a reading of the workload's
#: brief: "mostly" v1 JSON optimize, "a minority share" over v2 frames,
#: "a share" with ``tier=auto`` and "some" analyze and transform.
WARM_VARIANTS = (
    ("optimize_json", "optimize", "json", None, 0.55),
    ("optimize_frame", "optimize", "frame", None, 0.20),
    ("optimize_auto", "optimize", "json", "auto", 0.15),
    ("analyze_json", "analyze", "json", None, 0.05),
    ("transform_json", "transform", "json", None, 0.05),
)

#: One request in four of ``serve_mixed`` is a novel nest.
MIXED_BLOCK = 4

#: ``serve_mixed`` runs this many closed-loop callers (the host's cores).
MIXED_CALLERS = 2


@dataclass(frozen=True)
class Request:
    """One request a caller sends: which nest, which verb, which lane."""

    kind: str            # analyze | optimize | transform
    lane: str            # json | frame
    pool: str            # corpus | novel
    index: int           # position of the nest in its pool
    tier: str | None = None
    novel: bool = False

    @property
    def key(self) -> tuple:
        return (self.kind, self.lane, self.pool, self.index, self.tier)


def corpus_order(seed: int) -> list[int]:
    """``corpus_cold``'s passes: the whole corpus pool, in a seeded order.

    Every pass does the same work -- one cold pass over the same nests --
    and the seed moves which nest meets a warm UGS cache.  Independent
    corpora per seed spread throughput by a quarter between seeds, far
    beyond any useful regression bound.
    """
    order = list(range(common.POOLS["corpus"][1]))
    common.seeded_rng(seed, "corpus_cold").shuffle(order)
    return order


def warm_nests(depths: list[int]) -> list[int]:
    """The warmed nests: an equal share of each depth from the corpus
    pool (``depths[i]`` is the depth of pool nest ``i``), drawn once with
    a fixed generator."""
    rng = common.seeded_rng(0, "serve_mixed:warm")
    by_depth: dict[int, list[int]] = {}
    for index, depth in enumerate(depths):
        by_depth.setdefault(depth, []).append(index)
    levels = sorted(by_depth)
    chosen: list[int] = []
    for slot, depth in enumerate(levels):
        share = (WARM_NESTS // len(levels)
                 + (1 if slot < WARM_NESTS % len(levels) else 0))
        chosen.extend(rng.sample(by_depth[depth], share))
    rng.shuffle(chosen)
    return chosen


def warm_set(seed: int, depths: list[int]) -> list[Request]:
    """Every distinct repeat request, in the order the warm-up pass
    sends them."""
    requests = [Request(kind, lane, "corpus", index, tier)
                for index in warm_nests(depths)
                for _, kind, lane, tier, _ in WARM_VARIANTS]
    common.seeded_rng(seed, "serve_mixed:warm-order").shuffle(requests)
    return requests


def warm_stream(seed: int, caller: int, depths: list[int]):
    """An endless seeded stream of repeat requests for one caller."""
    rng = common.seeded_rng(seed, f"serve_mixed:caller{caller}")
    nests = warm_nests(depths)
    weights = [weight for *_, weight in WARM_VARIANTS]
    while True:
        _, kind, lane, tier, _ = rng.choices(WARM_VARIANTS, weights)[0]
        yield Request(kind, lane, "corpus", rng.choice(nests), tier)


def novel_share(seed: int, caller: int) -> list[int]:
    """The novel nests one ``serve_mixed`` caller sends, in order: a
    seeded permutation of the novel pool dealt round-robin, so callers
    never send the same novel nest."""
    order = list(range(common.POOLS["novel"][1]))
    common.seeded_rng(seed, "serve_mixed:novel").shuffle(order)
    return order[caller::MIXED_CALLERS]


def mixed_sequence(seed: int, caller: int, depths: list[int]) -> list[Request]:
    """One ``serve_mixed`` caller's whole sequence: blocks of
    :data:`MIXED_BLOCK` requests, each with exactly one novel nest at a
    seeded position and repeats of the warmed set elsewhere.  It ends
    with the block holding the caller's last novel nest."""
    rng = common.seeded_rng(seed, f"serve_mixed:slots{caller}")
    repeats = warm_stream(seed, caller, depths)
    sequence: list[Request] = []
    for index in novel_share(seed, caller):
        slot = rng.randrange(MIXED_BLOCK)
        for position in range(MIXED_BLOCK):
            if position == slot:
                sequence.append(Request("optimize", "json", "novel", index,
                                        novel=True))
            else:
                sequence.append(next(repeats))
    return sequence
