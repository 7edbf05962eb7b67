"""The four workloads: seeded inputs, one timed public call, oracle checks.

Every workload is a closed loop with one client: the next call starts only
after the previous one returned and its output was checked.  ``setup``
makes every input from the workload seed; the library receives only those
inputs.  ``check`` runs outside the timed region and relies on nothing
inside the library that could be switched off: stored digests of the exact
report bytes, and the benchmark's own exact arithmetic in ``oracle``.

The campaign and root-ordering inputs come from fixed pools of campaign
and projection seeds, because their digests are stored in ``digests.json``
by ``make_digests.py``.  The workload seed picks the order in which a run
visits its pool.  ``HELD_OUT_SEED`` alone visits a separate block of each
pool, so a later claim can be re-checked on inputs no tuning has seen.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from qibg import bigcell, exactmat, harness, rootsys

import oracle

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"
HELD_OUT_SEED = 7919

CAMPAIGN_LENGTHS = (10, 20, 40, 80)
GOLDEN_PATH = HERE.parent / "tests" / "golden" / "campaign_n3_seed7.json"
GOLDEN_CONFIG = harness.CampaignConfig(3, (5, 10, 20, 40), 100, 7)
GOLDEN_SHA256 = "14579db33888227ef7c10479f2f113788a165da40f5ed3f5d95bd0d8011661de"

# pool -> (keys in the main block, keys in the held-out block after it)
POOLS = {
    "column_campaign": (256, 32),
    "clockwise_campaign": (128, 16),
    "root_orderings": (32, 4),
}
SYSTEMS = (("A", 8), ("B", 8), ("C", 8), ("D", 8), ("BC", 8),
           ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8))
ROOT_ROUND = len(SYSTEMS) + 1  # root_orderings calls a round: E8 twice
BIGCELL_MATRICES = 2048


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable      # (seed, tracer or None) -> state with a .calls list
    call: Callable       # (state, input) -> output; the timed public call
    check: Callable      # (state, input, output) -> True when the output is right
    items: Callable      # input -> items the call completes
    traced_calls: int    # calls in the traced pass
    round_len: int = 1   # the loop stops only after a whole round of calls
    finish: Callable | None = None  # (state) -> True; one extra checked item per run


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def pool_keys(pool: str, seed: int, salt: str = "") -> list:
    main, held_out = POOLS[pool]
    keys = list(range(main, main + held_out) if seed == HELD_OUT_SEED else range(main))
    random.Random(f"{pool}/{salt}/{seed}").shuffle(keys)
    return keys


def _span(tracer, layer):
    return tracer.span(layer) if tracer else nullcontext()


def _campaign_items(config) -> int:
    return len(config.word_lengths) * config.samples_per_length


# --- column_campaign ----------------------------------------------------------


def _column_setup(seed, tracer):
    return SimpleNamespace(
        digests=load_digests()["column_campaign"],
        calls=[harness.CampaignConfig(5, CAMPAIGN_LENGTHS, 5, s)
               for s in pool_keys("column_campaign", seed)])


def _column_call(state, config):
    return harness.run_campaign(config)


def _column_check(state, config, report) -> bool:
    got = oracle.digest(harness.report_to_json_bytes(report))
    return report.violations == 0 and got == state.digests[str(config.seed)]


def _golden_check(state) -> bool:
    """The pinned campaign report, reproduced byte for byte."""
    want = GOLDEN_PATH.read_bytes()
    got = harness.report_to_json_bytes(harness.run_campaign(GOLDEN_CONFIG))
    return got == want and oracle.digest(want) == GOLDEN_SHA256


# --- clockwise_campaign -------------------------------------------------------


def _clockwise_setup(seed, tracer):
    # builds A5 and its lookup tables, which every call's ordering reuses
    rootsys.sl_class_ordering(6)
    return SimpleNamespace(
        digests=load_digests()["clockwise_campaign"],
        calls=[harness.CampaignConfig(6, CAMPAIGN_LENGTHS, 1, s)
               for s in pool_keys("clockwise_campaign", seed)])


def _clockwise_call(state, config):
    return harness.compare_strategies(config)


def _clockwise_check(state, config, report) -> bool:
    got = oracle.json_digest(harness.comparison_to_json(report))
    return (report.all_verified and report.total_reannihilations == 0
            and all(s.reannihilations == 0 for s in report.samples)
            and got == state.digests[str(config.seed)])


# --- root_orderings -----------------------------------------------------------


def _system_name(rs) -> str:
    return f"{rs.family}{rs.rank}"


def _root_setup(seed, tracer):
    systems = []
    for family, rank in SYSTEMS:
        with _span(tracer, "rootsys.build"):
            rs = rootsys.build(family, rank)
        with _span(tracer, "rootsys.tables"):
            rootsys.is_closed((), rs)  # the first call builds the lookup tables
        systems.append(rs)
    keys = [pool_keys("root_orderings", seed, _system_name(rs)) for rs in systems]
    # One round visits every system once and E8 a second time, on another
    # key.  E8's calls take over twice as long as any other system's, so
    # with one visit they would be 1/9 of all calls and call_ms_p90 would
    # sit at their fastest few; with two it sits mid-way through them.
    e8 = keys[-1]
    calls = [call for r in range(len(e8))
             for call in [(rs, ks[r]) for rs, ks in zip(systems, keys)]
             + [(systems[-1], e8[-1 - r])]]
    return SimpleNamespace(digests=load_digests()["root_orderings"], calls=calls)


def _root_call(state, item):
    rs, projection_seed = item
    proj = rootsys.sample_projection(rs, projection_seed)
    return proj, rootsys.verify_notation_invariants(rs, proj)


def _root_check(state, item, out) -> bool:
    rs, projection_seed = item
    proj, report = out
    ordering = rootsys.class_ordering(rs, proj)
    want = state.digests[_system_name(rs)][str(projection_seed)]
    return (report.all_ok and not report.failures
            and report.class_count == len(ordering.positive_classes)
            and oracle.ordering_digest(proj, ordering) == want)


# --- bigcell_scan -------------------------------------------------------------


def _random_nonsingular(rng, n):
    while True:
        g = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if exactmat.determinant(g) != 0:
            return g


def _bigcell_setup(seed, tracer):
    rng = random.Random(f"bigcell_scan/{seed}")
    orderings = {n: rootsys.sl_class_ordering(n, seed=rng.randrange(2 ** 31))
                 for n in range(3, 7)}
    calls = []
    # the sizes cycle in a fixed pattern, so every seed gets the same mix
    for j in range(BIGCELL_MATRICES // 2):
        for g in (_random_nonsingular(rng, 3 + j % 4),
                  exactmat.random_word(3 + j % 3, 30, rng.randrange(2 ** 63))):
            n = len(g)
            calls.append((g, rng.randint(1, n * (n - 1) // 2)))
    return SimpleNamespace(orderings=orderings, calls=calls)


def _bigcell_call(state, item):
    g, index = item
    member = bigcell.in_big_cell(g)
    try:
        fac = bigcell.ul_factorize(g)
    except bigcell.NotInBigCell:
        return member, None, None, None
    report = bigcell.denominator_and_norm_check(g)
    split = bigcell.unipotent_class_split(fac.u_plus, state.orderings[len(g)], index)
    return member, fac, report, split


def _bigcell_check(state, item, out) -> bool:
    g, index = item
    member, fac, report, split = out
    minors = oracle.corner_minors(g)
    expected = all(minors)
    if member != expected or (fac is not None) != expected:
        return False
    if fac is None:
        return True
    u, p = fac.u_plus, fac.p_minus
    positions = oracle.class_positions(state.orderings[len(g)])
    parts = oracle.mat_mul(oracle.mat_mul(split.left_part, split.mid_part),
                           split.right_part)
    return (oracle.supported_on(u, positions) and oracle.is_lower_triangular(p)
            and oracle.mat_mul(u, p) == g
            and report.minors == minors
            and report.denominators_divide and report.norm_bound_ok
            and parts == u
            and oracle.supported_on(split.left_part, positions[:index - 1])
            and oracle.supported_on(split.mid_part, positions[index - 1:index])
            and oracle.supported_on(split.right_part, positions[index:]))


WORKLOADS = {
    w.name: w for w in (
        Workload("column_campaign", _column_setup, _column_call, _column_check,
                 _campaign_items, traced_calls=64, finish=_golden_check),
        Workload("clockwise_campaign", _clockwise_setup, _clockwise_call,
                 _clockwise_check, _campaign_items, traced_calls=16),
        Workload("root_orderings", _root_setup, _root_call, _root_check,
                 lambda item: 1, traced_calls=4 * ROOT_ROUND,
                 round_len=ROOT_ROUND),
        Workload("bigcell_scan", _bigcell_setup, _bigcell_call, _bigcell_check,
                 lambda item: 1, traced_calls=512),
    )
}
