"""Frozen artifacts for the embedded digit-counting preset.

These files pin the serialization formats: if regeneration stops matching
them byte for byte, either the encoding or the fixture schema drifted.
"""

from __future__ import annotations

import copy
import json
import pathlib
from itertools import combinations, product

import pytest

from cdcsim.cli import main, replay_fixture

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("regen")
    assert main(["fixture", "--preset", "paper-wordcount", "--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("scheme", ["uncoded", "cdc", "cdc-ld"])
def test_transcripts_match_frozen_bytes(regenerated, scheme):
    frozen = (FIXTURE_DIR / f"paper-wordcount-fixture-{scheme}.json").read_bytes()
    fresh = (regenerated / f"fixture-{scheme}.json").read_bytes()
    assert fresh == frozen


def test_placement_matches_frozen_bytes(regenerated):
    frozen = (FIXTURE_DIR / "paper-wordcount-placement.json").read_bytes()
    assert (regenerated / "placement.json").read_bytes() == frozen


@pytest.mark.parametrize("scheme", ["uncoded", "cdc", "cdc-ld"])
def test_frozen_fixtures_still_decode(scheme):
    doc = json.loads((FIXTURE_DIR / f"paper-wordcount-fixture-{scheme}.json").read_text())
    assert replay_fixture(doc) == "pass"


@pytest.mark.parametrize("scheme, edits", [("uncoded", 132), ("cdc", 132), ("cdc-ld", 12)])
def test_two_flip_edits_fail(scheme, edits):
    # the same bit flipped in the last payload of two broadcasts: a pair an
    # integer-sum reduce can cancel, yet every decoded value is checked, so
    # each edit fails (or is refused as unreadable)
    doc = json.loads((FIXTURE_DIR / f"paper-wordcount-fixture-{scheme}.json").read_text())
    passed, count = [], 0
    for pair, bit in product(combinations(range(len(doc["transcript"]["broadcasts"])), 2),
                             range(2)):
        edited = copy.deepcopy(doc)
        for i in pair:
            payload = edited["transcript"]["broadcasts"][i]["payloads"][-1]
            payload["hex"] = f"{int(payload['hex'], 16) ^ 1 << bit:x}"
        count += 1
        try:
            if replay_fixture(edited) != "fail":
                passed.append((pair, bit))
        except ValueError:
            pass
    assert count == edits
    assert passed == []


def test_frozen_rank_compressed_costs():
    doc = json.loads((FIXTURE_DIR / "paper-wordcount-fixture-cdc-ld.json").read_text())
    by_sender = {}
    for b in doc["transcript"]["broadcasts"]:
        bits = sum(p["bits"] for p in b["payloads"])
        by_sender[b["sender"]] = by_sender.get(b["sender"], 0) + bits
    # T=6 run: per-node cost is rho*(T/2) + rho*3 with ranks (2, 3, 2, 0)
    assert by_sender == {1: 12, 2: 18, 3: 12, 4: 0}
