"""The small-spec space end to end, and the synthetic store's values pinned.

Every spec with K = 2..5, r and s in 1..K, N = C(K, r), Q = C(K, s) and T in
{1, 5, 8} runs under each scheme that applies to it.  T=1 and T=5 put values
at widths that are not whole bytes in the store and in every node's table.
So that a node reduces two functions and a value set holds two files, each
s = 1 spec also runs with N = 2 C(K, r), Q = 2K and T = 15, where every value
set's 60 bits split evenly r ways.
"""

from __future__ import annotations

import hashlib
import json
from math import comb

import pytest

from cdcsim.analytics import build_load_report
from cdcsim.cli import build_workload, fixture_to_json, replay_fixture
from cdcsim.codec import segment_width
from cdcsim.engine import dump_json, run
from cdcsim.placement import JobSpec, group_sizes
from cdcsim.workloads import SyntheticRankWorkload

WORKLOAD = {"kind": "synthetic", "seed": 1}


def small_specs():
    for K in range(2, 6):
        for r in range(1, K + 1):
            for s in range(1, K + 1):
                for T in (1, 5, 8):
                    yield JobSpec(K=K, N=comb(K, r), Q=comb(K, s), r=r, s=s, T=T)
            yield JobSpec(K=K, N=2 * comb(K, r), Q=2 * K, r=r, s=1, T=15)


def padded(spec: JobSpec) -> bool:
    """Whether some value set's segments carry padding bits: the set does
    not split evenly r ways, or at s >= 2 into whole field symbols."""
    return any(segment_width(spec, ell) * spec.r
               != comb(spec.r, ell - spec.s) * spec.eta1 * spec.eta2 * spec.T
               for ell in group_sizes(spec.K, spec.r, spec.s))


def flip_first_bit(doc: dict) -> bool:
    """Flip the lowest bit of the first payload with a non-zero width; False
    when the transcript carries no payload bits."""
    for b in doc["transcript"]["broadcasts"]:
        for payload in b["payloads"]:
            if payload["bits"]:
                payload["hex"] = f"{int(payload['hex'], 16) ^ 1:x}"
                return True
    return False


def test_every_small_spec_verifies_replays_and_meets_its_closed_form():
    runs = exact = flipped = silent = 0
    for spec in small_specs():
        workload = build_workload(WORKLOAD, spec)
        verdict = "pass" if spec.s == 1 else "not-applicable"
        schemes = ("uncoded", "cdc", "cdc-ld") if spec.s == 1 else ("cdc", "cdc-ld")
        for scheme in schemes:
            case = (spec, scheme)
            result = run(spec, workload, scheme)
            runs += 1
            assert result.verification == verdict, case
            doc = json.loads(dump_json(fixture_to_json(result, WORKLOAD)))
            assert replay_fixture(doc) == verdict, case
            if scheme == "uncoded" or not padded(spec):
                report = build_load_report(result)
                deviation = (report.deviation_alt if scheme == "cdc-ld" and spec.s > 1
                             else report.deviation)
                assert deviation == 0, case
                exact += 1
            if spec.s == 1:
                if flip_first_bit(doc):
                    assert replay_fixture(doc) == "fail", case
                    flipped += 1
                else:
                    silent += 1
    assert runs == 408
    # of the 56 specs at s=1, the 16 with r = K leave no node a file to
    # receive, so none of their three transcripts carries a payload bit
    assert (flipped, silent) == (3 * 40, 3 * 16)
    # the uncoded runs and the coded runs without padding, which include
    # every run of the 14 specs with Q = 2K
    assert exact == 278


# sha256 of ValueTable.data for SyntheticRankWorkload(seed, duplicate_prob) at
# K=4 N=6 Q=8 r=2 s=1, per (seed, duplicate_prob, T)
STORE_DIGESTS = {
    (0, 0.0, 1): "4b51f1fb05e917056b93ea7884c06a95c813231661294fd26e79d61a292925c6",
    (0, 0.0, 5): "fd02c768bdb426bdf9c2f54902b2e2bf37b489bf30256be85fa8279474e33ffa",
    (0, 0.0, 64): "cc911c4f0bde33f6eba5088f26456bd9d3117a531bf7cc2cf0925c4a4f1f8166",
    (0, 0.5, 1): "8a5f52c7330b665a06d60b22b3bc6c3eae4ff4369561ac7a761ed7c55f7acf20",
    (0, 0.5, 5): "b9995628dd763ef63371a2798dfb585a43be59353d26e86ee9063d6d58ab3337",
    (0, 0.5, 64): "4a20659a7166480aeaad52ea2882e7d6eef40f7732f5358a3064d4c4fe8d26bd",
    (0, 1.0, 1): "5bf90435cd45d0475cbb0ace7e7e3a672ed2a3a4984ad3e8624d8878725a9c2e",
    (0, 1.0, 5): "a4d3f225c6e961cf02e2e97312948c164d52414eda79a0d23c2dcbed675ab0fb",
    (0, 1.0, 64): "de6a4234c4a6272d66f00bd326986d1f6e9277eb22b22bbe249317a0d16a6be0",
    (1, 0.0, 1): "99129f60849d1b4ce9706177a0ffc9b136564121331cf13fb0d3ab91beb971c0",
    (1, 0.0, 5): "8f8307168b0c0e3d8868b41fb7b5eb15cd9a9359738bf6fe45557fcb37c5d686",
    (1, 0.0, 64): "886b6d3833215caedc3345e5911a7ef08dc95b20f06c57a5c53ed08542f2645c",
    (1, 0.5, 1): "d502e551a1d5f78b7efd0f80daaacd83ba52774b22589aeb8a67bed18eb0d6dc",
    (1, 0.5, 5): "7dfde8127fe8a9b25122bee7d951e61bd4346b1c061ee4703b90c0f2870bc174",
    (1, 0.5, 64): "23bf3a1b15dd1a32dd06459fe6de2acc17d22198eb011117ec9b24e80c831c1e",
    (1, 1.0, 1): "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
    (1, 1.0, 5): "9d4d9b7e821f3cc4c1d92c6c31d71862dbb0ba643a414b3960d750bab09c4b82",
    (1, 1.0, 64): "c6d80a218a345ddde801a1853fcd12590c3bd11e596f52a94e91c8f1e9e94097",
    (7, 0.0, 1): "5b0d3e4c61c157dabf80d801f6774b5ac2536fcf3f981f8217f019d2d1dc5e4b",
    (7, 0.0, 5): "cb75290f56a2d57f3120ee7ef121193fd8ef509c69387160fa7597dc1061579a",
    (7, 0.0, 64): "133470024221f9006ddda0b1493167af7aafb96cb36e8b81f83b73893da2186f",
    (7, 0.5, 1): "429f50ebc5cc71db94bf8d082041c1422b3113d22ff8526801659804fa79cf16",
    (7, 0.5, 5): "c42c29334ee0d0d402a1fe8f3f0fd34972a627022a7d33c9d81d24746ef2b2a6",
    (7, 0.5, 64): "0bfa742d912d6d46abc06f96cccee86e330a5d32ac43411788409a7b0170eb5f",
    (7, 1.0, 1): "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
    (7, 1.0, 5): "9fae053b229a02427a3eb0e854b29f1b4f47b6f9141099a8064de25f3ebde42a",
    (7, 1.0, 64): "41bbac6d66e6bff258b0f4120456157b07d5c2e4e633d0fb0f715bb282148f51",
}


@pytest.mark.parametrize("seed, duplicate_prob, T", list(STORE_DIGESTS))
def test_synthetic_store_pinned(seed, duplicate_prob, T):
    # the values a seed draws are part of every artifact a synthetic run
    # writes; they depend on CPython's random, so each interpreter checks them
    spec = JobSpec(K=4, N=6, Q=8, r=2, s=1, T=T)
    data = SyntheticRankWorkload(seed, duplicate_prob).build_store(spec).data
    assert hashlib.sha256(data).hexdigest() == STORE_DIGESTS[seed, duplicate_prob, T]
