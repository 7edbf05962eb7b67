"""Regenerate digests.json: the exact outputs every pooled input must give.

    python3 perfbench/make_digests.py

Run it only when a change is meant to alter those outputs; the digests pin
the report bytes the same way tests/golden pins the campaign report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qibg import harness, rootsys  # noqa: E402

import oracle  # noqa: E402
from workloads import (CAMPAIGN_LENGTHS, DIGESTS_PATH, POOLS,  # noqa: E402
                       SYSTEMS)


def _keys(pool):
    main, held_out = POOLS[pool]
    return range(main + held_out)


def main() -> None:
    column = {
        str(s): oracle.digest(harness.report_to_json_bytes(harness.run_campaign(
            harness.CampaignConfig(5, CAMPAIGN_LENGTHS, 5, s))))
        for s in _keys("column_campaign")}
    clockwise = {
        str(s): oracle.json_digest(harness.comparison_to_json(harness.compare_strategies(
            harness.CampaignConfig(6, CAMPAIGN_LENGTHS, 1, s))))
        for s in _keys("clockwise_campaign")}
    orderings = {}
    for family, rank in SYSTEMS:
        rs = rootsys.build(family, rank)
        table = orderings[f"{family}{rank}"] = {}
        for s in _keys("root_orderings"):
            proj = rootsys.sample_projection(rs, s)
            table[str(s)] = oracle.ordering_digest(proj, rootsys.class_ordering(rs, proj))
    DIGESTS_PATH.write_text(json.dumps({
        "column_campaign": column,
        "clockwise_campaign": clockwise,
        "root_orderings": orderings,
    }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
