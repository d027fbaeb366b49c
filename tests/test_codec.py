"""Coded shuffle: value sets, segmentation, encoding, peeling, rank compression."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest

from cdcsim.codec import (
    IncompleteShuffleError,
    build_vset,
    decode_cdc_s1,
    encode_cdc,
    full_message,
    groups_containing,
    ld_compress,
    ld_decompress,
    multicast_coverage,
    segment_usymbol,
)
from cdcsim.gf2 import BitVec
from cdcsim.placement import JobSpec, make_placement, needed_values
from cdcsim.workloads import SyntheticRankWorkload, WordCountWorkload, wordcount_map
from oracles import vset_members_bruteforce

PAPER_BLOCKS = (
    (1, 2, 1, 2, 2, 3, 1),
    (2, 1, 1, 1, 1, 2, 1),
    (2, 3, 1, 2, 1, 3, 1),
    (3, 1, 1, 2, 1, 3, 2),
    (1, 1, 3, 1, 4, 1, 4),
    (1, 1, 4, 1, 2, 3, 1),
)


def paper_setup(T=6):
    spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=T)
    placement = make_placement(spec)
    store = wordcount_map(WordCountWorkload(PAPER_BLOCKS), spec)
    return spec, placement, store


class TestVSet:
    def test_paper_example(self):
        _, placement, _ = paper_setup()
        vset = build_vset((1, 2, 3), (1, 3), placement)
        assert vset.value_ids == ((2, 2),)

    def test_size_at_minimum_group(self):
        spec = JobSpec(K=5, N=20, Q=10, r=2, s=1, T=4)
        placement = make_placement(spec)
        for group in combinations(range(1, 6), 3):
            for holders in combinations(group, 2):
                vset = build_vset(group, holders, placement)
                assert len(vset.value_ids) == spec.eta1 * spec.eta2

    def test_matches_membership_oracle(self):
        for K, r, s in ((5, 2, 2), (5, 1, 1), (5, 2, 1), (5, 1, 3), (5, 2, 3), (6, 3, 3)):
            spec = JobSpec(K=K, N=2 * comb(K, r), Q=2 * comb(K, s), r=r, s=s, T=4)
            placement = make_placement(spec)
            for ell in range(max(r + 1, s), min(r + s, K) + 1):
                for group in combinations(range(1, K + 1), ell):
                    for holders in combinations(group, r):
                        vset = build_vset(group, holders, placement)
                        oracle = vset_members_bruteforce(placement, group, holders)
                        assert list(vset.value_ids) == sorted(oracle)
                        assert len(vset.value_ids) == comb(r, ell - s) * spec.eta1 * spec.eta2

    def test_canonical_order(self):
        spec = JobSpec(K=4, N=12, Q=8, r=2, s=1, T=4)
        placement = make_placement(spec)
        vset = build_vset((1, 2, 3), (2, 3), placement)
        assert list(vset.value_ids) == sorted(vset.value_ids)

    def test_malformed_sizes(self):
        _, placement, _ = paper_setup()
        with pytest.raises(ValueError):
            build_vset((1, 2), (1, 2), placement)  # group too small
        with pytest.raises(ValueError):
            build_vset((1, 2, 3), (1,), placement)  # holders not size r
        with pytest.raises(ValueError):
            build_vset((1, 2, 3), (1, 4), placement)  # holders outside group


class TestUSymbol:
    def test_paper_halves(self):
        spec, placement, store = paper_setup()
        vset = build_vset((1, 2, 3), (1, 3), placement)
        u = segment_usymbol(vset, store.values)
        v22 = store.get(2, 2)
        assert u.segments[0] == v22.extract(0, 3)   # goes to node 1
        assert u.segments[1] == v22.extract(3, 6)   # goes to node 3
        assert u.pad_bits == 0

    def test_single_holder_single_segment(self):
        spec = JobSpec(K=3, N=3, Q=3, r=1, s=1, T=5)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=4).build_store(spec)
        vset = build_vset((1, 2), (2,), placement)
        u = segment_usymbol(vset, store.values)
        assert len(u.segments) == 1
        assert u.segments[0] == u.payload

    def test_segments_partition_payload(self):
        spec = JobSpec(K=4, N=4, Q=4, r=3, s=1, T=6)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=6).build_store(spec)
        vset = build_vset((1, 2, 3, 4), (1, 2, 4), placement)
        u = segment_usymbol(vset, store.values)
        rebuilt = BitVec.concat_all(u.segments)
        assert rebuilt.extract(0, u.payload.nbits) == u.payload
        assert rebuilt.nbits == u.payload.nbits + u.pad_bits

    def test_padding_when_not_divisible(self):
        # eta1*eta2*T = 5 bits split across r=2 holders
        spec = JobSpec(K=3, N=3, Q=3, r=2, s=1, T=5)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=2).build_store(spec)
        vset = build_vset((1, 2, 3), (1, 2), placement)
        u = segment_usymbol(vset, store.values)
        assert u.pad_bits == 1
        assert all(seg.nbits == 3 for seg in u.segments)


def xor_oracle_message(k, group, placement, store):
    """Independent path: sum the sender's segments straight from the value sets."""
    spec = placement.spec
    acc = None
    for holders in combinations(group, spec.r):
        if k not in holders:
            continue
        vset = build_vset(group, holders, placement)
        payload = BitVec.concat_all(store.values[qn] for qn in vset.value_ids)
        pad = (-payload.nbits) % spec.r
        padded = payload.concat(BitVec.zeros(pad))
        seg_len = padded.nbits // spec.r
        idx = sorted(holders).index(k)
        seg = padded.extract(idx * seg_len, (idx + 1) * seg_len)
        acc = seg if acc is None else acc ^ seg
    return acc


class TestEncode:
    def test_paper_node1_first_group(self):
        spec, placement, store = paper_setup()
        msgs = encode_cdc(1, (1, 2, 3), placement, store.values)
        assert len(msgs) == 1
        expected = store.get(2, 2).extract(0, 3) ^ store.get(3, 1).extract(0, 3)
        assert msgs[0].payload == expected

    def test_paper_node1_equal_payloads(self):
        spec, placement, store = paper_setup()
        m124 = encode_cdc(1, (1, 2, 4), placement, store.values)[0].payload
        m134 = encode_cdc(1, (1, 3, 4), placement, store.values)[0].payload
        assert m124 == m134

    def test_zero_store_zero_messages(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        zeros = {(q, n): BitVec.zeros(6) for q in range(1, 5) for n in range(1, 7)}
        for group in combinations(range(1, 5), 3):
            for k in group:
                for msg in encode_cdc(k, group, placement, zeros):
                    assert msg.payload.is_zero()

    def test_s1_equals_xor_oracle(self):
        spec = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=31).build_store(spec)
        for group in combinations(range(1, 6), 3):
            for k in group:
                got = encode_cdc(k, group, placement, store.values)[0].payload
                assert got == xor_oracle_message(k, group, placement, store)

    def test_sender_not_in_group(self):
        _, placement, store = paper_setup()
        with pytest.raises(ValueError):
            encode_cdc(4, (1, 2, 3), placement, store.values)

    def test_general_s_structure(self):
        spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=12).build_store(spec)
        # group size 4: three holder subsets contain the sender, two components
        msgs = encode_cdc(1, (1, 2, 3, 4), placement, store.values)
        assert [m.index for m in msgs] == [1, 2]
        assert len({m.payload.nbits for m in msgs}) == 1
        # first component uses the all-ones row: it is the plain segment XOR
        segs = []
        for holders in combinations((1, 2, 3, 4), 2):
            if 1 not in holders:
                continue
            u = segment_usymbol(build_vset((1, 2, 3, 4), holders, placement), store.values)
            segs.append(u.segments[sorted(holders).index(1)])
        acc = segs[0]
        for seg in segs[1:]:
            acc = acc ^ seg
        assert msgs[0].payload == acc


class TestDecode:
    def collect_broadcasts(self, spec, placement, store):
        received = {}
        for group in combinations(range(1, spec.K + 1), spec.r + 1):
            for k in group:
                received[(k, group)] = encode_cdc(k, group, placement, store.values)[0].payload
        return received

    def local_view(self, placement, store, k):
        return {
            (q, n): store.get(q, n)
            for n in placement.node_files[k]
            for q in range(1, placement.spec.Q + 1)
        }

    def test_fig1_scenario(self):
        spec, placement, store = paper_setup()
        # node 2's and node 3's broadcasts to {1,2,3} carry the halves of (1,4)
        x2 = encode_cdc(2, (1, 2, 3), placement, store.values)[0].payload
        x3 = encode_cdc(3, (1, 2, 3), placement, store.values)[0].payload
        v14, v31, v22 = store.get(1, 4), store.get(3, 1), store.get(2, 2)
        assert x2 == v14.extract(0, 3) ^ v31.extract(3, 6)
        assert x3 == v14.extract(3, 6) ^ v22.extract(3, 6)

        received = self.collect_broadcasts(spec, placement, store)
        recovered = decode_cdc_s1(1, received, self.local_view(placement, store, 1), placement)
        assert recovered[(1, 4)] == v14

    def test_single_group_when_r_is_k_minus_1(self):
        spec = JobSpec(K=4, N=4, Q=4, r=3, s=1, T=6)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=3).build_store(spec)
        received = self.collect_broadcasts(spec, placement, store)
        for k in range(1, 5):
            recovered = decode_cdc_s1(k, received, self.local_view(placement, store, k), placement)
            assert set(recovered) == needed_values(placement, k)
            for qn, v in recovered.items():
                assert v == store.get(*qn)

    def test_random_sweeps_bit_exact(self):
        rng = random.Random(77)
        cases = 0
        for K in (3, 4, 5, 6):
            for r in range(1, K):
                eta1 = rng.choice((1, 2))
                spec = JobSpec(K=K, N=comb(K, r) * eta1, Q=K, r=r, s=1, T=rng.choice((4, 8, 12)))
                placement = make_placement(spec)
                store = SyntheticRankWorkload(seed=rng.randint(0, 999),
                                              duplicate_prob=rng.choice((0.0, 0.5, 1.0))
                                              ).build_store(spec)
                received = self.collect_broadcasts(spec, placement, store)
                for k in range(1, K + 1):
                    recovered = decode_cdc_s1(k, received,
                                              self.local_view(placement, store, k), placement)
                    assert set(recovered) == needed_values(placement, k)
                    assert all(v == store.get(*qn) for qn, v in recovered.items())
                cases += 1
        assert cases >= 12

    def test_missing_broadcast_reported(self):
        spec, placement, store = paper_setup()
        received = self.collect_broadcasts(spec, placement, store)
        del received[(2, (1, 2, 3))]
        with pytest.raises(IncompleteShuffleError) as err:
            decode_cdc_s1(1, received, self.local_view(placement, store, 1), placement)
        assert (1, 4) in err.value.missing

    def test_rejects_multi_copy_reduce(self):
        spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
        placement = make_placement(spec)
        with pytest.raises(ValueError):
            decode_cdc_s1(1, {}, {}, placement)


class TestLdCompress:
    def node1_messages(self, T):
        spec, placement, store = paper_setup(T)
        return spec, [full_message(1, g, placement, store.values)
                      for g in groups_containing(spec, 1, 3)]

    def test_paper_node1_cost(self):
        spec, msgs = self.node1_messages(T=30)
        payload = ld_compress(1, 3, msgs, spec)
        assert payload.rho == 2
        assert payload.bit_cost == 36      # < the 45 uncompressed bits
        assert payload.bit_cost == payload.rho * 15 + payload.rho * 3

    def test_full_rank_messages_cost_overhead(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        rng = random.Random(15)
        msgs = [BitVec(rng.getrandbits(15), 15) for _ in range(3)]
        payload = ld_compress(1, 3, msgs, spec)
        assert payload.rho == min(3, 15) == 3
        assert payload.bit_cost >= 3 * 15

    def test_identical_messages(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        msgs = [BitVec(0x5a5a, 15)] * 3
        payload = ld_compress(1, 3, msgs, spec)
        assert payload.rho == 1
        assert payload.bit_cost == 15 + 3

    def test_wrong_count(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        with pytest.raises(ValueError, match="expected"):
            ld_compress(1, 3, [BitVec(0, 15)] * 2, spec)

    def test_inconsistent_lengths(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        with pytest.raises(ValueError, match="lengths"):
            ld_compress(1, 3, [BitVec(0, 15), BitVec(0, 15), BitVec(0, 14)], spec)


class TestLdRoundtrip:
    def test_paper_node1(self):
        spec, placement, store = paper_setup(T=30)
        msgs = [full_message(1, g, placement, store.values)
                for g in groups_containing(spec, 1, 3)]
        back = ld_decompress(ld_compress(1, 3, msgs, spec))
        assert back == msgs
        assert back[1] == back[2]  # the two equal payloads survive the roundtrip

    def test_rank_zero_payload(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        msgs = [BitVec.zeros(15)] * 3
        payload = ld_compress(1, 3, msgs, spec)
        assert payload.rho == 0 and payload.bit_cost == 0
        assert ld_decompress(payload) == msgs

    def test_random_roundtrips(self):
        rng = random.Random(200)
        for K in (3, 4, 5, 6):
            spec = JobSpec(K=K, N=comb(K, 2), Q=K, r=2, s=1, T=8)
            count = comb(K - 1, 2)
            for _ in range(20):
                width = rng.randint(1, 40)
                msgs = [BitVec(rng.getrandbits(width), width) for _ in range(count)]
                assert ld_decompress(ld_compress(1, 3, msgs, spec)) == msgs

    def test_malformed_payload(self):
        from cdcsim.codec import LdPayload
        from cdcsim.gf2 import MalformedDecompositionError
        bad = LdPayload(node=1, ell=3, msg_len=8,
                        basis=(BitVec(0b101, 8),),
                        coeffs=(BitVec(0b11, 2), BitVec(0, 1), BitVec(1, 1)))
        with pytest.raises(MalformedDecompositionError):
            ld_decompress(bad)


class TestBlockwiseScaling:
    def test_matches_long_division_oracle(self):
        from cdcsim.codec import _scale_segment
        from cdcsim.gf2 import ext_field
        from oracles import gf_mul_longdiv
        rng = random.Random(55)
        for lam in range(1, 17):
            f = ext_field(lam)
            scalars = [0, 1, f.order - 1] + [rng.randrange(f.order) for _ in range(3)]
            for scalar in scalars:
                for nblocks in range(1, 41):
                    seg = BitVec(rng.getrandbits(nblocks * lam), nblocks * lam)
                    got = _scale_segment(f, scalar, seg)
                    assert got.nbits == seg.nbits
                    for b in range(nblocks):
                        sym = seg.extract(b * lam, (b + 1) * lam).value
                        want = gf_mul_longdiv(scalar, sym, f.modulus)
                        assert got.extract(b * lam, (b + 1) * lam).value == want, (lam, scalar)

    def test_bad_input_rejected(self):
        # a trailing partial symbol, or a scalar outside GF(8)
        from cdcsim.codec import _scale_segment
        from cdcsim.gf2 import ext_field
        f = ext_field(3)
        for scalar, seg in ((1, BitVec(0b1111, 4)), (2, BitVec(0b1111, 4)),
                            (-1, BitVec(0b101, 3)), (8, BitVec(0b101, 3))):
            with pytest.raises(ValueError):
                _scale_segment(f, scalar, seg)

    def test_field_action_laws(self):
        # scaling is linear in the vector and multiplicative in the scalar
        from cdcsim.codec import _scale_segment
        from cdcsim.gf2 import ext_field
        rng = random.Random(56)
        f = ext_field(3)
        for _ in range(50):
            width = 3 * rng.randint(1, 10)
            x = BitVec(rng.getrandbits(width), width)
            y = BitVec(rng.getrandbits(width), width)
            a = rng.randrange(f.order)
            b = rng.randrange(f.order)
            assert _scale_segment(f, a, x ^ y) == _scale_segment(f, a, x) ^ _scale_segment(f, a, y)
            assert _scale_segment(f, f.mul(a, b), x) == _scale_segment(f, a, _scale_segment(f, b, x))


def test_rank_never_exceeds_count_or_length():
    rng = random.Random(404)
    for K in (4, 5, 6):
        for r in (1, 2):
            spec = JobSpec(K=K, N=comb(K, r), Q=K, r=r, s=1, T=rng.choice((2, 4, 8)))
            placement = make_placement(spec)
            store = SyntheticRankWorkload(seed=rng.randint(0, 99),
                                          duplicate_prob=rng.random()).build_store(spec)
            ell = r + 1
            for k in range(1, K + 1):
                msgs = [full_message(k, g, placement, store.values)
                        for g in groups_containing(spec, k, ell)]
                payload = ld_compress(k, ell, msgs, spec)
                assert payload.rho <= min(comb(K - 1, ell - 1), payload.msg_len)


def test_multicast_coverage_matches_demand():
    for spec in (JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8),
                 JobSpec(K=5, N=10, Q=10, r=2, s=2, T=4),
                 JobSpec(K=5, N=10, Q=10, r=3, s=2, T=4)):
        placement = make_placement(spec)
        covered = multicast_coverage(placement)
        for k in range(1, spec.K + 1):
            assert needed_values(placement, k) <= covered[k]
