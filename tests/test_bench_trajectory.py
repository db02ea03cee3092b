"""`BENCH_trajectory.json` stays consistent with its own pairs.

Each record keeps the per-pair values of a claimed end-to-end gain; the
medians, quartiles (exclusive method) and `lower_in` it states must be the
ones those pairs give, to the four decimals they are written with.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"
RECORDS = json.loads(TRAJECTORY.read_text())["records"]
COMMIT = re.compile(r"[0-9a-f]{7,40}")


def _close(recorded, computed):
    return abs(recorded - computed) <= 5e-5 + 1e-12


@pytest.mark.parametrize("index", range(len(RECORDS)))
def test_statistics_recompute_from_the_pairs(index):
    record = RECORDS[index]
    pairs = record["pairs_parent_change"]
    assert len(record["seeds"]) == len(pairs)
    assert all(len(pair) == 2 for pair in pairs)
    for side, values in zip(("parent", "change"), zip(*pairs)):
        q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
        assert _close(record[side]["median"], statistics.median(values)), side
        assert all(map(_close, record[side]["quartiles"], (q1, q3))), side
    lower = sum(change < parent for parent, change in pairs)
    assert record["lower_in"] == f"{lower} of {len(pairs)}"


def test_every_record_names_its_commit():
    # a commit cannot hold its own hash, so the record it adds names its
    # parent instead and the next change fills in the commit
    *named, last = RECORDS
    for record in named:
        assert COMMIT.fullmatch(record["commit"] or ""), record.get("description")
    assert COMMIT.fullmatch(last["commit"] or last["parent_commit"])
