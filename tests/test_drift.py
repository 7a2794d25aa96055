"""Verdicts and witnesses of the whole catalog over a range of models.

Every identity is checked in the free model at truncations min..min+2 and in
the matrix model at dimensions min..min+1 with seeds 0-5: 435 reports.  Their
JSON, verdicts and witnesses both, is pinned in
``tests/fixtures_catalog_drift.jsonl``, one report per line, so a change to
how the catalog is written or evaluated must leave every one unchanged.  The
file was written by the checker whose sides were hand-written builders, before
the catalog became expressions.  To rewrite it after a deliberate change of
output:

    PYTHONPATH=src python tests/test_drift.py
"""

from __future__ import annotations

import json
from pathlib import Path

from nilbch.weilcheck import CATALOG, CheckParams, check_identity

FIXTURE = Path(__file__).with_name("fixtures_catalog_drift.jsonl")
SEEDS = range(6)


def _reports() -> list[dict]:
    out = []
    for entry in CATALOG:
        for trunc in range(entry.order, entry.order + 3):
            out.append(check_identity(entry.id, "free", CheckParams(trunc=trunc)))
        for dim in range(entry.order + 1, entry.order + 3):
            for seed in SEEDS:
                out.append(check_identity(entry.id, "matrix", CheckParams(dim=dim, seed=seed)))
    return [report.to_json_obj() for report in out]


def test_verdicts_and_witnesses_do_not_drift():
    with FIXTURE.open(encoding="utf-8") as fh:
        expected = [json.loads(line) for line in fh]
    got = _reports()
    assert len(got) == len(expected) == 435
    for report, pinned in zip(got, expected):
        assert report == pinned, (report["id"], report["model"], report["params"])


if __name__ == "__main__":
    with FIXTURE.open("w", encoding="utf-8") as fh:
        for report in _reports():
            fh.write(json.dumps(report, sort_keys=True) + "\n")
