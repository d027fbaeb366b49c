"""Full map/shuffle/reduce runs: verification, accounting, determinism."""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from fractions import Fraction
from math import comb, inf, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcsim.codec import IncompleteShuffleError
from cdcsim.engine import (
    UnsupportedCombinationError,
    _payload_from_json,
    decode_and_verify,
    dump_json,
    reduce_phase,
    run,
    run_uncoded_shuffle,
    transcript_from_json,
    transcript_to_json,
)
from cdcsim.gf2 import BitVec
from cdcsim.placement import JobSpec, make_placement
from cdcsim.workloads import (
    CodedLinearTransformWorkload,
    LinearTransformWorkload,
    SyntheticRankWorkload,
    WordCountWorkload,
)
from oracles import recount

PAPER_BLOCKS = (
    (1, 2, 1, 2, 2, 3, 1),
    (2, 1, 1, 1, 1, 2, 1),
    (2, 3, 1, 2, 1, 3, 1),
    (3, 1, 1, 2, 1, 3, 2),
    (1, 1, 3, 1, 4, 1, 4),
    (1, 1, 4, 1, 2, 3, 1),
)


def paper_workload():
    return WordCountWorkload(PAPER_BLOCKS)


class TestPaperRun:
    def test_cdc_ld_node1_bits(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        result = run(spec, paper_workload(), "cdc-ld")
        assert result.bits_by_node[1] == 36
        assert result.verification == "pass"

    def test_cdc_node_bits(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        result = run(spec, paper_workload(), "cdc")
        assert all(result.bits_by_node[k] == 45 for k in range(1, 5))
        assert result.load_empirical == Fraction(1, 4)

    def test_reduce_outputs(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        result = run(spec, paper_workload(), "cdc")
        blocks = [list(b) for b in PAPER_BLOCKS]
        assert result.outputs[1][1] == recount(blocks, 1) == 22
        assert result.reference == {q: recount(blocks, q) for q in range(1, 5)}

    def test_rho_table(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        result = run(spec, paper_workload(), "cdc-ld")
        assert result.rho == {(1, 3): 2, (2, 3): 3, (3, 3): 2, (4, 3): 0}


class TestUncoded:
    def test_load_is_one_minus_r_over_k(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        result = run(spec, paper_workload(), "uncoded")
        assert result.load_empirical == Fraction(1, 2)

    def test_smallest_holder_sends(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        store = paper_workload().build_store(spec)
        transcript = run_uncoded_shuffle(spec, placement, store)
        for b in transcript.broadcasts:
            n = b.meta["n"]
            assert b.sender == min(placement.batch_of_file[n])

    def test_zero_bits_at_full_replication(self):
        spec = JobSpec(K=4, N=6, Q=4, r=4, s=1, T=6)
        for scheme in ("uncoded", "cdc", "cdc-ld"):
            result = run(spec, paper_workload(), scheme)
            assert sum(result.bits_by_node.values()) == 0
            assert result.verification == "pass"

    def test_various_k_r(self):
        # (K=10, r=4) load = 0.6; small enough to run directly at eta1=1
        spec = JobSpec(K=10, N=210, Q=10, r=4, s=1, T=2)
        result = run(spec, SyntheticRankWorkload(seed=0), "uncoded")
        assert result.load_empirical == Fraction(3, 5)

    def test_multi_copy_reduce_unsupported(self):
        spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
        with pytest.raises(UnsupportedCombinationError):
            run(spec, SyntheticRankWorkload(seed=0), "uncoded")


class TestSchemeEquivalence:
    @pytest.mark.parametrize("spec,workload", [
        (JobSpec(K=5, N=20, Q=5, r=2, s=1, T=16),
         SyntheticRankWorkload(seed=5, duplicate_prob=0.3)),
        (JobSpec(K=4, N=6, Q=4, r=2, s=1, T=8),
         WordCountWorkload(PAPER_BLOCKS)),
        (JobSpec(K=4, N=12, Q=4, r=2, s=1, T=6),
         LinearTransformWorkload.random(24, 16, 12, seed=8)),
        (JobSpec(K=5, N=10, Q=5, r=2, s=1, T=4),
         CodedLinearTransformWorkload(LinearTransformWorkload.random(20, 16, 10, seed=9))),
    ])
    def test_all_schemes_match_reference(self, spec, workload):
        results = {scheme: run(spec, workload, scheme)
                   for scheme in ("uncoded", "cdc", "cdc-ld")}
        reference = results["uncoded"].reference
        for result in results.values():
            assert result.verification == "pass"
            assert result.reference == reference
            for k, out in result.outputs.items():
                for q, v in out.items():
                    assert v == reference[q]

    def test_recovered_values_bit_exact(self):
        spec = JobSpec(K=5, N=20, Q=5, r=2, s=1, T=16)
        workload = SyntheticRankWorkload(seed=77, duplicate_prob=0.5)
        store = workload.build_store(spec)
        for scheme in ("uncoded", "cdc", "cdc-ld"):
            result = run(spec, workload, scheme)
            for k, recovered in result.recovered.items():
                for qn, v in recovered.items():
                    assert v == store[qn]


class TestAccounting:
    def test_transcript_bits_match_counters(self):
        spec = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)
        workload = SyntheticRankWorkload(seed=3)
        for scheme in ("uncoded", "cdc", "cdc-ld"):
            result = run(spec, workload, scheme)
            recomputed = {k: 0 for k in range(1, 6)}
            for b in result.transcript.broadcasts:
                recomputed[b.sender] += sum(p.nbits for p in b.payloads)
            assert recomputed == result.bits_by_node

    def test_cdc_message_count_and_length(self):
        # s=1: each node sends C(K-1, r) messages of eta1*eta2*T/r bits
        spec = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)
        result = run(spec, SyntheticRankWorkload(seed=3), "cdc")
        per_node = {k: 0 for k in range(1, 6)}
        for b in result.transcript.broadcasts:
            per_node[b.sender] += 1
        assert all(count == comb(4, 2) for count in per_node.values())
        expected_bits = comb(4, 2) * spec.eta1 * spec.eta2 * spec.T // spec.r
        assert all(result.bits_by_node[k] == expected_bits for k in range(1, 6))

    def test_cdc_ld_bits_match_rank_formula(self):
        spec = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)
        result = run(spec, SyntheticRankWorkload(seed=3), "cdc-ld")
        msg_len = spec.eta1 * spec.eta2 * spec.T // spec.r
        count = comb(4, 2)
        for k in range(1, 6):
            rho = result.rho[(k, 3)]
            assert result.bits_by_node[k] == rho * msg_len + rho * count


class TestRankDegeneracy:
    def test_duplicates_make_compression_win(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=64)
        workload = SyntheticRankWorkload(seed=21, duplicate_prob=1.0)
        ld = run(spec, workload, "cdc-ld")
        plain = run(spec, workload, "cdc")
        assert sum(ld.bits_by_node.values()) < sum(plain.bits_by_node.values())
        assert all(rho <= 1 for rho in ld.rho.values())
        assert ld.verification == "pass"

    def test_full_rank_costs_coefficient_overhead(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=64)
        workload = SyntheticRankWorkload(seed=21, duplicate_prob=0.0)
        ld = run(spec, workload, "cdc-ld")
        plain = run(spec, workload, "cdc")
        assert all(rho == comb(3, 2) for rho in ld.rho.values())
        assert sum(ld.bits_by_node.values()) > sum(plain.bits_by_node.values())


class TestGeneralS:
    def test_accounting_only_runs(self):
        spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
        for scheme in ("cdc", "cdc-ld"):
            result = run(spec, SyntheticRankWorkload(seed=2), scheme)
            assert result.verification == "not-applicable"
            assert result.outputs is None
            assert sum(result.bits_by_node.values()) > 0

    def test_s2_cdc_bit_count(self):
        # group size 3: 1 component of 8 bits; size 4: 2 components of 4 bits
        spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
        result = run(spec, SyntheticRankWorkload(seed=2), "cdc")
        assert sum(result.bits_by_node.values()) == 12 * 8 + 4 * 8
        assert result.load_empirical == Fraction(4, 9)

    @pytest.mark.parametrize("kw, scheme, digest", [
        (dict(K=7, N=35, Q=35, r=3, s=4, T=13), "cdc",
         "b8016a46594360ab8371c9a183d54d6f3b4153f6d6a200807e129fb685e2bc3e"),
        (dict(K=7, N=35, Q=35, r=3, s=4, T=13), "cdc-ld",
         "ba801cf795ba9f26cc19eba121a90ad2f2fefa165f14fae7bc82a3dd2947c5a2"),
        (dict(K=6, N=15, Q=20, r=2, s=3, T=17), "cdc",
         "e5880e7d24f034db06e1414d791358b31b577f4c06fc89e03b0105255cd7e6a4"),
        (dict(K=6, N=15, Q=20, r=2, s=3, T=17), "cdc-ld",
         "97042ef528dcd65eef6c84e89b1e3d098e17423722427eb5d3015c83da17d399"),
    ], ids=["s4-cdc", "s4-cdc-ld", "s3-cdc", "s3-cdc-ld"])
    def test_transcript_payloads_frozen(self, kw, scheme, digest):
        # frozen payload bits: group sizes here need GF(2^2), GF(2^3) and
        # GF(2^4), and T is not a multiple of lambda, so segments get padded
        result = run(JobSpec(**kw), SyntheticRankWorkload(seed=1), scheme)
        text = dump_json(transcript_to_json(result.transcript))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestReducePhase:
    def test_zero_workload_zero_outputs(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        w = WordCountWorkload(tuple(() for _ in range(6)))
        result = run(spec, w, "cdc")
        assert all(v == 0 for out in result.outputs.values() for v in out.values())

    def test_identity_transform_reproduces_inputs(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=4)
        matrix = tuple(BitVec(1 << i, 16) for i in range(16))
        rng = random.Random(31)
        inputs = tuple(BitVec(rng.getrandbits(16), 16) for _ in range(6))
        result = run(spec, LinearTransformWorkload(matrix, inputs), "cdc")
        for q in range(1, 5):
            expected = BitVec.concat_all(BitVec(x.value >> (q - 1) * 4 & 0xf, 4) for x in inputs)
            assert result.reference[q] == expected

    def test_missing_value_propagates(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        workload = paper_workload()
        store = workload.build_store(spec)
        # every node holds its own mapped values but received nothing
        recovered = {k: {} for k in range(1, 5)}
        with pytest.raises(IncompleteShuffleError):
            reduce_phase(spec, placement, store, recovered, workload)

    def test_dropped_broadcast_fails_decode(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        workload = paper_workload()
        store = workload.build_store(spec)
        result = run(spec, workload, "cdc")
        transcript = result.transcript
        transcript.broadcasts.pop(0)
        with pytest.raises(IncompleteShuffleError):
            decode_and_verify(spec, placement, store, transcript, workload)


class TestDeterminism:
    def test_byte_identical_transcripts(self):
        spec = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=12)
        workload = SyntheticRankWorkload(seed=123, duplicate_prob=0.4)
        a = run(spec, workload, "cdc-ld")
        b = run(spec, workload, "cdc-ld")
        assert dump_json(transcript_to_json(a.transcript)) == dump_json(transcript_to_json(b.transcript))

    def test_transcript_json_roundtrip(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        result = run(spec, paper_workload(), "cdc-ld")
        doc = transcript_to_json(result.transcript)
        back = transcript_from_json(doc)
        assert dump_json(transcript_to_json(back)) == dump_json(doc)
        # and the deserialized transcript still decodes
        placement = make_placement(spec)
        store = paper_workload().build_store(spec)
        _, _, _, verdict = decode_and_verify(spec, placement, store, back, paper_workload())
        assert verdict == "pass"


# Every JSON value json.dumps takes, in the shapes it takes them: text with
# non-ASCII characters and lone surrogates, big ints, NaN, +-inf and -0.0,
# lists and tuples, and dicts keyed by one sortable family of key types.
TEXT = st.text(st.characters(exclude_categories=())
               | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=["Cs"]),
               max_size=6)
FLOATS = st.floats() | st.sampled_from([nan, inf, -inf, -0.0])
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 200, 2 ** 200) | FLOATS | TEXT,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
        | st.dictionaries(st.integers(-2 ** 70, 2 ** 70) | FLOATS | st.booleans(),
                          children, max_size=4)
        | st.dictionaries(st.none(), children)),
    max_leaves=30,
)


def stdlib_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestDumpJson:
    """``dump_json`` writes the bytes of ``json.dumps(sort_keys=True, indent=2)``,
    which is the oracle here only."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(obj=JSON_TREES)
    def test_matches_stdlib_json(self, obj):
        assert dump_json(obj) == stdlib_json(obj)

    @pytest.mark.parametrize("obj", [
        {1, 2}, b"ab", BitVec(3, 2), {"x": [0, {"y": {1}}]}, {(1, 2): 0}, {1: "a", "b": 2},
    ], ids=["set", "bytes", "bitvec", "nested-set", "tuple-key", "mixed-keys"])
    def test_rejects_what_stdlib_json_rejects(self, obj):
        with pytest.raises(TypeError):
            stdlib_json(obj)
        with pytest.raises(TypeError):
            dump_json(obj)

    def test_dump_json_peak_memory(self):
        # an uncoded-shaped transcript of 30 000 broadcasts, about 7.5 MB of
        # text; json.dumps's indent encoder, which lists every chunk, peaks near 61 MB
        rng = random.Random(30)
        doc = {"transcript": {"scheme": "uncoded", "broadcasts": [
            {"kind": "uncoded", "meta": {"n": rng.randint(1, 120), "q": rng.randint(1, 360)},
             "payloads": [{"bits": 64, "hex": f"{rng.getrandbits(64):x}"}],
             "sender": rng.randint(1, 10)}
            for _ in range(30_000)]}}
        tracemalloc.start()
        try:
            text = dump_json(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text) > 7_000_000
        assert peak < 32_000_000


def _int16(text: str) -> int | None:
    try:
        return int(text, 16)
    except ValueError:
        return None


class TestPayloadHex:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(text=st.text("0123456789abcdefABCDEFxX_ +-\t\u0663\u0669", max_size=6)
           .filter(lambda t: _int16(t) is not None and _int16(t) >= 0))
    def test_accepts_exactly_the_canonical_form(self, text):
        canonical = f"{int(text, 16):x}"
        if text == canonical:
            assert _payload_from_json({"bits": 24, "hex": text}).to_hex() == canonical
        else:
            with pytest.raises(ValueError, match="is not written as"):
                _payload_from_json({"bits": 24, "hex": text})
