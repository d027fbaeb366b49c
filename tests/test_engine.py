"""Full map/shuffle/reduce runs: verification, accounting, determinism."""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product
from math import comb, inf, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcsim.codec import (IncompleteShuffleError, build_vset, full_message, groups_containing,
                          ld_compress, own_columns)
from cdcsim.engine import (
    SCHEMES,
    Broadcasts,
    UnsupportedCombinationError,
    _payload_from_json,
    decode_and_verify,
    dump_json,
    node_decoder,
    reduce_phase,
    run,
    run_cdc_ld_shuffle,
    run_cdc_shuffle,
    run_uncoded_shuffle,
    transcript_from_json,
    transcript_to_json,
    validate_transcript,
)
from cdcsim.gf2 import Gf2Matrix, pack
from cdcsim.placement import JobSpec, group_sizes, make_placement, needed_values
from cdcsim.workloads import (
    CodedLinearTransformWorkload,
    LinearTransformWorkload,
    SyntheticRankWorkload,
    ValueTable,
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

    @pytest.mark.parametrize("spec, workload", [
        (JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30), paper_workload()),
        (JobSpec(K=5, N=10, Q=10, r=2, s=2, T=8), SyntheticRankWorkload(5, duplicate_prob=0.9)),
    ], ids=["s1-paper", "s2-duplicates"])
    def test_ranks_are_read_from_the_transcript(self, spec, workload):
        placement, store = make_placement(spec), workload.build_store(spec)
        want = {(k, ell): ld_compress(ell, [full_message(k, g, placement, store)
                                            for g in groups_containing(spec, k, ell)], spec).rho
                for k in range(1, spec.K + 1) for ell in group_sizes(spec.K, spec.r, spec.s)}
        assert len(set(want.values())) > 1  # the ranks tell the nodes apart
        assert run_cdc_ld_shuffle(spec, placement, store).ranks() == want
        assert run(spec, workload, "cdc-ld").rho == want
        s1 = JobSpec(spec.K, spec.N, spec.Q, spec.r, 1, spec.T)
        assert run_uncoded_shuffle(s1, make_placement(s1), workload.build_store(s1)).ranks() is None
        assert run_cdc_shuffle(spec, placement, store).ranks() is None
        assert run(spec, workload, "cdc").rho is None


class TestUncoded:
    def test_load_is_one_minus_r_over_k(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        result = run(spec, paper_workload(), "uncoded")
        assert result.load_empirical == Fraction(1, 2)

    def test_smallest_holder_sends(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        store = paper_workload().build_store(spec)
        cols = run_uncoded_shuffle(spec, placement, store).broadcasts
        assert len(cols) > 0
        for sender, n in zip(cols.senders, cols.meta["n"]):
            assert sender == min(placement.batch_of_file[n])

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


class TestTranscriptColumns:
    """Every transcript is held as columns: per broadcast its sender, kind,
    meta fields and payload count; per payload its width and value."""

    SPEC = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_view_length_and_bits_match_json(self, scheme):
        result = run(self.SPEC, SyntheticRankWorkload(seed=3), scheme)
        doc = transcript_to_json(result.transcript)
        assert len(result.transcript.broadcasts) == len(doc["broadcasts"]) > 0
        assert transcript_from_json(doc).bits_by_node() == result.bits_by_node

    def test_view_yields_one_broadcast_per_needed_value(self):
        # per node in turn, its needed (q, n) in order, each sent by the
        # smallest node that mapped file n as one T-bit payload
        spec = self.SPEC
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=3).build_store(spec)
        needed = [qn for k in range(1, spec.K + 1) for qn in sorted(needed_values(placement, k))]
        m = len(needed)
        assert run_uncoded_shuffle(spec, placement, store).broadcasts == Broadcasts(
            [placement.batch_of_file[n][0] for _, n in needed], ["uncoded"] * m,
            {"q": [q for q, _ in needed], "n": [n for _, n in needed]}, [1] * m,
            [spec.T] * m, [store[qn] for qn in needed])

    def test_payload_counts_other_than_one(self):
        # broadcast 0 loses its payload and broadcast 1 carries two: the
        # columns keep every payload with its broadcast, through reader,
        # writer and bits_by_node
        result = run(self.SPEC, SyntheticRankWorkload(seed=3), "uncoded")
        doc = transcript_to_json(result.transcript)
        b0, b1, b2 = doc["broadcasts"][:3]
        b0["payloads"] = []
        b1["payloads"] = [b1["payloads"][0], {"bits": 3, "hex": "5"}]
        back = transcript_from_json(doc)
        assert dump_json(transcript_to_json(back)) == dump_json(doc)
        cols = back.broadcasts
        assert cols.counts[:3] == [0, 2, 1]
        assert list(zip(cols.nbits, cols.values))[:3] == [
            (8, int(b1["payloads"][0]["hex"], 16)), (3, 5), (8, int(b2["payloads"][0]["hex"], 16))]
        bits = result.bits_by_node
        bits[b0["sender"]] -= 8
        bits[b1["sender"]] += 3
        assert back.bits_by_node() == bits

    def test_uncoded_shuffle_peak_memory(self):
        # 30 240 broadcasts (the paper-fig4 benchmark spec): the columns peak
        # near 1.8 MB, an object, meta dict and payload object per broadcast near 12 MB
        spec = JobSpec(K=10, N=120, Q=360, r=3, s=1, T=64)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=1).build_store(spec)
        tracemalloc.start()
        try:
            transcript = run_uncoded_shuffle(spec, placement, store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(transcript.broadcasts) == 30_240
        assert peak < 4_000_000


class TestPayloadRange:
    """``validate_transcript`` rejects an in-memory payload whose value does
    not fit its stated width, naming the broadcast and the payload."""

    SPEC = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)

    # payload 0 of an uncoded or cdc broadcast; a cdc-ld basis row (payload
    # 0) and coefficient row (the last payload)
    @pytest.mark.parametrize("scheme, payload", [
        ("uncoded", 0), ("cdc", 0), ("cdc-ld", 0), ("cdc-ld", -1)],
        ids=["uncoded", "cdc", "cdc-ld-basis", "cdc-ld-coeff"])
    @pytest.mark.parametrize("bad", [lambda v, n: v | 1 << n, lambda v, n: -1],
                             ids=["over-wide", "negative"])
    def test_value_outside_width_names_broadcast(self, scheme, payload, bad):
        placement = make_placement(self.SPEC)
        transcript = run(self.SPEC, SyntheticRankWorkload(seed=3), scheme).transcript
        cols = transcript.broadcasts
        assert validate_transcript(self.SPEC, placement, transcript)
        i = 3
        first = sum(cols.counts[:i])
        j = payload % cols.counts[i]
        if scheme == "cdc-ld":
            assert 0 < cols.meta["rho"][i] < cols.counts[i]  # a basis row and a coefficient row
        n = cols.nbits[first + j]
        cols.values[first + j] = bad(cols.values[first + j], n)
        with pytest.raises(ValueError, match=rf"^broadcast {i}: payload {j} for .* "
                                             rf"does not fit in {n} bits$"):
            validate_transcript(self.SPEC, placement, transcript)


@pytest.mark.parametrize("T", [6, 8, 16, 33, 64, 70])
def test_node_values_bytes_match_per_value_join(T):
    # whole-word widths pack through struct, the rest value by value; the
    # values a node needs, read from the store a file batch at a time, are
    # the concatenation of the single values
    spec = JobSpec(K=4, N=6, Q=8, r=2, s=1, T=T)
    placement = make_placement(spec)
    rng = random.Random(T)
    rows = [[rng.getrandbits(T) for _ in range(6)] for _ in range(8)]
    rows[0][5] = (1 << T) - 1
    store = ValueTable(spec, rows)
    width = (T + 7) // 8
    assert store.data == b"".join([v.to_bytes(width, "little") for row in rows for v in row])
    assert list(store) == list(product(range(1, 9), range(1, 7)))  # q-major
    assert len(store) == 48 and dict(store) == {(q, n): rows[q - 1][n - 1] for q, n in store}
    for q in range(1, 9):
        assert store.row(q) == rows[q - 1] == [store[q, n] for n in range(1, 7)]
    for k in range(1, spec.K + 1):
        funcs = placement.node_funcs[k]
        batches = [ns for holders, ns in placement.file_batches.items() if k not in holders]
        assert {(q, n) for ns in batches for q in funcs for n in ns} == needed_values(placement, k)
        for ns in batches:
            assert store.join(funcs, ns[0], len(ns)) == pack(
                [store[q, n] for q in funcs for n in ns], T)
        assert store.join(funcs[::-1], 1, 6) == pack(
            [store[q, n] for q in funcs[::-1] for n in range(1, 7)], T)
    # a key outside functions 1..8 and files 1..6 is not in the table
    for qs, n, count in (((1,), 0, 1), ((1,), 6, 2), ((1,), 7, 1), ((1,), 1, 0),
                         ((0,), 1, 1), ((9,), 1, 1), ((1, 9), 2, 3)):
        with pytest.raises(KeyError):
            store.join(qs, n, count)
    for absent in ((0, 1), (9, 1), (1, 0), (1, 7)):
        assert absent not in store
        with pytest.raises(KeyError):
            store[absent]
    for q in (0, 9):
        with pytest.raises(KeyError):
            store.row(q)
    # a value outside T bits or a short row is named, and a missing or extra
    # row is refused
    for bad, name in (((1 << T), r"\(2,3\)"), (-1, r"\(2,3\)"), (None, "row 2")):
        broken = [list(row) for row in rows]
        if bad is None:
            broken[1].pop()
        else:
            broken[1][2] = bad
        with pytest.raises(ValueError, match=name):
            ValueTable(spec, broken)
    for count in (7, 9):
        with pytest.raises(ValueError):
            ValueTable(spec, (rows * 2)[:count])


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
        # Q=10 gives each node two reduce functions, so the values of a node
        # are laid out over more than one function; the values are read from
        # the node-by-node decoding that decode_and_verify reduces from
        for Q in (5, 10):
            spec = JobSpec(K=5, N=20, Q=Q, r=2, s=1, T=16)
            workload = SyntheticRankWorkload(seed=77, duplicate_prob=0.5)
            store = workload.build_store(spec)
            placement = make_placement(spec)
            needed = {qn for k in range(1, spec.K + 1) for qn in needed_values(placement, k)}
            for scheme in ("uncoded", "cdc", "cdc-ld"):
                result = run(spec, workload, scheme)
                got = validate_transcript(spec, placement, result.transcript)
                if scheme == "uncoded":
                    # one slot per (q, n), filled exactly where some node needs the value
                    assert len(got) == spec.Q * spec.N
                    for (q, n), v in zip(product(range(1, Q + 1), range(1, spec.N + 1)), got):
                        assert v == (store[q, n] if (q, n) in needed else None)
                for k in range(1, spec.K + 1):
                    # node k's functions on every file, q-major, each value bit for bit:
                    # the needed ones decoded, the rest its own map results, read
                    # from a store whose values on every other file are flipped
                    own = set(placement.node_files[k])
                    local = ValueTable(spec, [[v if n in own else v ^ 0xffff
                                               for n, v in enumerate(store.row(q), 1)]
                                              for q in range(1, Q + 1)])
                    funcs = placement.node_funcs[k]
                    assert len(funcs) == Q // spec.K
                    assert node_decoder(spec, placement, local, scheme, got)(k) == [
                        store[q, n] for q in funcs for n in range(1, spec.N + 1)]


class TestAccounting:
    def test_transcript_bits_match_counters(self):
        spec = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)
        workload = SyntheticRankWorkload(seed=3)
        for scheme in ("uncoded", "cdc", "cdc-ld"):
            result = run(spec, workload, scheme)
            cols = result.transcript.broadcasts
            assert sum(cols.counts) == len(cols.nbits) == len(cols.values)
            recomputed = {k: 0 for k in range(1, 6)}
            for sender, first, count in zip(cols.senders, accumulate(cols.counts, initial=0),
                                            cols.counts):
                recomputed[sender] += sum(cols.nbits[first:first + count])
            assert recomputed == result.bits_by_node

    def test_cdc_message_count_and_length(self):
        # s=1: each node sends C(K-1, r) messages of eta1*eta2*T/r bits
        spec = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)
        result = run(spec, SyntheticRankWorkload(seed=3), "cdc")
        per_node = Counter(result.transcript.broadcasts.senders)
        assert per_node == {k: comb(4, 2) for k in range(1, 6)}
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

    def test_coverage_miss_names_node_and_pairs(self):
        # a value set that lost a function leaves its one receiver without
        # that function on the holders' files, and no other set serves them
        spec = JobSpec(K=5, N=20, Q=10, r=2, s=2, T=4)
        workload = SyntheticRankWorkload(seed=4)
        transcript = run(spec, workload, "cdc").transcript
        placement = make_placement(spec)
        qs, ns = build_vset((1, 2, 3), (1, 2), placement)
        assert len(qs) > 1 and len(ns) == spec.eta1 == 2
        placement.vsets[(1, 2, 3), (1, 2)] = qs[:-1], ns
        with pytest.raises(AssertionError) as err:
            decode_and_verify(spec, placement, workload.build_store(spec), transcript, workload)
        assert str(err.value) == (f"multicast structure misses {[(qs[-1], n) for n in ns]} "
                                  f"for node 3")
        # files other than the holders' batch are refused outright
        placement.vsets[(1, 2, 3), (1, 2)] = qs, ns[:-1]
        with pytest.raises(AssertionError, match=r"holders=\(1, 2\) has files"):
            decode_and_verify(spec, placement, workload.build_store(spec), transcript, workload)


class TestReducePhase:
    def test_zero_workload_zero_outputs(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        w = WordCountWorkload(tuple(() for _ in range(6)))
        result = run(spec, w, "cdc")
        assert all(v == 0 for out in result.outputs.values() for v in out.values())

    def test_identity_transform_reproduces_inputs(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=4)
        matrix = Gf2Matrix(tuple(1 << i for i in range(16)), 16)
        rng = random.Random(31)
        inputs = Gf2Matrix(tuple(rng.getrandbits(16) for _ in range(6)), 16)
        workload = LinearTransformWorkload(matrix, inputs)
        result = run(spec, workload, "cdc")
        for q in range(1, 5):
            expected = pack([x >> (q - 1) * 4 & 0xf for x in inputs.rows], 4)
            assert result.reference[q] == expected
            assert workload.output_text(result.reference[q], spec) == f"{4 * 6}:{expected:x}"

    def test_missing_value_propagates(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        workload = paper_workload()
        store = workload.build_store(spec)
        for k in range(1, 5):
            needed = needed_values(placement, k)
            funcs = placement.node_funcs[k]
            outputs = {q: workload.reduce(q, store.row(q), spec.T) for q in funcs}
            full = [store[q, n] for q in funcs for n in range(1, spec.N + 1)]
            assert reduce_phase(spec, placement, k, full, workload) == outputs
            # the node holds its own mapped values but received nothing, or
            # all but one value: the error names the node and exactly what it lacks
            own = own_columns(k, placement, store, [None] * len(full))
            with pytest.raises(IncompleteShuffleError) as err:
                reduce_phase(spec, placement, k, own, workload)
            assert err.value.missing == sorted(needed)
            assert str(err.value) == (f"node {k}: unrecoverable intermediate values: "
                                      f"{sorted(needed)}")
            lost = max(needed)
            table = list(full)
            table[funcs.index(lost[0]) * spec.N + lost[1] - 1] = None
            with pytest.raises(IncompleteShuffleError) as err:
                reduce_phase(spec, placement, k, table, workload)
            assert err.value.missing == [lost]
            assert str(err.value) == f"node {k}: unrecoverable intermediate values: {[lost]}"

    def test_dropped_broadcast_fails_decode(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        workload = paper_workload()
        store = workload.build_store(spec)
        doc = transcript_to_json(run(spec, workload, "cdc").transcript)
        doc["broadcasts"].pop(0)
        transcript = transcript_from_json(doc)
        with pytest.raises(IncompleteShuffleError) as err:
            decode_and_verify(spec, placement, store, transcript, workload)
        # the validator names what every node lacks, under no one node
        assert err.value.missing
        assert str(err.value) == f"unrecoverable intermediate values: {err.value.missing}"


class TestDeterminism:
    def test_byte_identical_transcripts(self):
        spec = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=12)
        workload = SyntheticRankWorkload(seed=123, duplicate_prob=0.4)
        a = run(spec, workload, "cdc-ld")
        b = run(spec, workload, "cdc-ld")
        assert dump_json(transcript_to_json(a.transcript)) == dump_json(transcript_to_json(b.transcript))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_transcript_json_roundtrip(self, scheme):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        result = run(spec, paper_workload(), scheme)
        doc = transcript_to_json(result.transcript)
        back = transcript_from_json(doc)
        assert back == result.transcript
        assert dump_json(transcript_to_json(back)) == dump_json(doc)
        if scheme != "uncoded":
            # a general-s transcript reads back column for column too
            s3 = run(JobSpec(K=6, N=15, Q=20, r=2, s=3, T=17), SyntheticRankWorkload(seed=1),
                     scheme).transcript
            assert transcript_from_json(transcript_to_json(s3)) == s3
        # and the deserialized transcript still decodes
        placement = make_placement(spec)
        store = paper_workload().build_store(spec)
        _, _, verdict = decode_and_verify(spec, placement, store, back, paper_workload())
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
        {1, 2}, b"ab", Gf2Matrix((3,), 2), {"x": [0, {"y": {1}}]}, {(1, 2): 0}, {1: "a", "b": 2},
    ], ids=["set", "bytes", "dataclass", "nested-set", "tuple-key", "mixed-keys"])
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
            assert _payload_from_json({"bits": 24, "hex": text}) == (24, int(canonical, 16))
        else:
            with pytest.raises(ValueError, match="is not written as"):
                _payload_from_json({"bits": 24, "hex": text})
