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
from cdcsim.engine import run_cdc_shuffle
from cdcsim.gf2 import BasisDecomposition, BitVec
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
        assert build_vset((1, 2, 3), (1, 3), placement) == ((2, 2),)

    def test_size_at_minimum_group(self):
        spec = JobSpec(K=5, N=20, Q=10, r=2, s=1, T=4)
        placement = make_placement(spec)
        for group in combinations(range(1, 6), 3):
            for holders in combinations(group, 2):
                value_ids = build_vset(group, holders, placement)
                assert len(value_ids) == spec.eta1 * spec.eta2

    def test_matches_membership_oracle(self):
        for K, r, s in ((5, 2, 2), (5, 1, 1), (5, 2, 1), (5, 1, 3), (5, 2, 3), (6, 3, 3)):
            spec = JobSpec(K=K, N=2 * comb(K, r), Q=2 * comb(K, s), r=r, s=s, T=4)
            placement = make_placement(spec)
            for ell in range(max(r + 1, s), min(r + s, K) + 1):
                for group in combinations(range(1, K + 1), ell):
                    for holders in combinations(group, r):
                        value_ids = build_vset(group, holders, placement)
                        oracle = vset_members_bruteforce(placement, group, holders)
                        assert value_ids == tuple(sorted(oracle))
                        assert len(value_ids) == comb(r, ell - s) * spec.eta1 * spec.eta2

    def test_canonical_order(self):
        spec = JobSpec(K=4, N=12, Q=8, r=2, s=1, T=4)
        placement = make_placement(spec)
        value_ids = build_vset((1, 2, 3), (2, 3), placement)
        assert list(value_ids) == sorted(value_ids)

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
        value_ids = build_vset((1, 2, 3), (1, 3), placement)
        width, segs = segment_usymbol(value_ids, 2, store, spec.T)
        v22 = store[(2, 2)]
        assert width == 3
        assert segs[0] == v22 & 0b111   # goes to node 1
        assert segs[1] == v22 >> 3      # goes to node 3
        assert len(segs) * width - len(value_ids) * spec.T == 0  # no padding

    def test_single_holder_single_segment(self):
        spec = JobSpec(K=3, N=3, Q=3, r=1, s=1, T=5)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=4).build_store(spec)
        value_ids = build_vset((1, 2), (2,), placement)
        width, segs = segment_usymbol(value_ids, 1, store, spec.T)
        assert len(segs) == 1
        payload = BitVec.concat_all(BitVec(store[qn], spec.T) for qn in value_ids)
        assert BitVec(segs[0], width) == payload

    def test_segments_partition_payload(self):
        spec = JobSpec(K=4, N=4, Q=4, r=3, s=1, T=6)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=6).build_store(spec)
        value_ids = build_vset((1, 2, 3, 4), (1, 2, 4), placement)
        width, segs = segment_usymbol(value_ids, 3, store, spec.T)
        payload = BitVec.concat_all(BitVec(store[qn], spec.T) for qn in value_ids)
        rebuilt = BitVec.concat_all(BitVec(seg, width) for seg in segs)
        assert rebuilt.value & ((1 << payload.nbits) - 1) == payload.value
        assert rebuilt.nbits == payload.nbits + (-payload.nbits) % 3
        assert rebuilt.value >> payload.nbits == 0  # the padding is zeros

    def test_padding_when_not_divisible(self):
        # eta1*eta2*T = 5 bits split across r=2 holders
        spec = JobSpec(K=3, N=3, Q=3, r=2, s=1, T=5)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=2).build_store(spec)
        value_ids = build_vset((1, 2, 3), (1, 2), placement)
        width, segs = segment_usymbol(value_ids, 2, store, spec.T)
        assert len(segs) * width - len(value_ids) * spec.T == 1
        assert width == 3 and all(seg >> 3 == 0 for seg in segs)


def xor_oracle_message(k, group, placement, store):
    """Independent path: sum the sender's segments straight from the value sets."""
    spec = placement.spec
    acc = 0
    for holders in combinations(group, spec.r):
        if k not in holders:
            continue
        value_ids = build_vset(group, holders, placement)
        payload = BitVec.concat_all(BitVec(store[qn], spec.T) for qn in value_ids)
        pad = (-payload.nbits) % spec.r
        seg_len = (payload.nbits + pad) // spec.r
        idx = sorted(holders).index(k)
        acc ^= payload.value >> idx * seg_len & ((1 << seg_len) - 1)
    return BitVec(acc, seg_len)


class TestEncode:
    def test_paper_node1_first_group(self):
        spec, placement, store = paper_setup()
        msgs = encode_cdc(1, (1, 2, 3), placement, store)
        assert len(msgs) == 1
        expected = BitVec((store[(2, 2)] & 0b111) ^ (store[(3, 1)] & 0b111), 3)
        assert msgs[0] == expected

    def test_paper_node1_equal_payloads(self):
        spec, placement, store = paper_setup()
        m124 = encode_cdc(1, (1, 2, 4), placement, store)[0]
        m134 = encode_cdc(1, (1, 3, 4), placement, store)[0]
        assert m124 == m134

    def test_zero_store_zero_messages(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        zeros = {(q, n): 0 for q in range(1, 5) for n in range(1, 7)}
        for group in combinations(range(1, 5), 3):
            for k in group:
                for msg in encode_cdc(k, group, placement, zeros):
                    assert msg.value == 0

    def test_s1_equals_xor_oracle(self):
        spec = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=31).build_store(spec)
        for group in combinations(range(1, 6), 3):
            for k in group:
                got = encode_cdc(k, group, placement, store)[0]
                assert got == xor_oracle_message(k, group, placement, store)

    def test_sender_not_in_group(self):
        _, placement, store = paper_setup()
        with pytest.raises(ValueError):
            encode_cdc(4, (1, 2, 3), placement, store)

    def test_general_s_structure(self):
        spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=12).build_store(spec)
        # group size 4: three holder subsets contain the sender, two components
        msgs = encode_cdc(1, (1, 2, 3, 4), placement, store)
        assert len(msgs) == 2
        assert len({m.nbits for m in msgs}) == 1
        # the transcript numbers the components 1, 2 in encoder order
        sent = [b for b in run_cdc_shuffle(spec, placement, store).broadcasts
                if b.sender == 1 and b.meta["group"] == [1, 2, 3, 4]]
        assert [b.meta["component"] for b in sent] == [1, 2]
        assert [b.payloads[0] for b in sent] == msgs
        # first component uses the all-ones row: it is the plain segment XOR
        segs = []
        for holders in combinations((1, 2, 3, 4), 2):
            if 1 not in holders:
                continue
            value_ids = build_vset((1, 2, 3, 4), holders, placement)
            width, own = segment_usymbol(value_ids, 2, store, spec.T)
            segs.append(own[sorted(holders).index(1)])
        acc = 0
        for seg in segs:
            acc ^= seg
        assert msgs[0] == BitVec(acc, width)


class TestDecode:
    def collect_broadcasts(self, spec, placement, store):
        received = {}
        for group in combinations(range(1, spec.K + 1), spec.r + 1):
            for k in group:
                received[(k, group)] = encode_cdc(k, group, placement, store)[0]
        return received

    def local_view(self, placement, store, k):
        return {
            (q, n): store[(q, n)]
            for n in placement.node_files[k]
            for q in range(1, placement.spec.Q + 1)
        }

    def test_fig1_scenario(self):
        spec, placement, store = paper_setup()
        # node 2's and node 3's broadcasts to {1,2,3} carry the halves of (1,4)
        x2 = encode_cdc(2, (1, 2, 3), placement, store)[0]
        x3 = encode_cdc(3, (1, 2, 3), placement, store)[0]
        v14, v31, v22 = store[(1, 4)], store[(3, 1)], store[(2, 2)]
        assert x2 == BitVec((v14 & 0b111) ^ (v31 >> 3), 3)
        assert x3 == BitVec((v14 >> 3) ^ (v22 >> 3), 3)

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
                assert v == store[qn]

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
                    assert all(v == store[qn] for qn, v in recovered.items())
                cases += 1
        assert cases >= 12

    def test_reads_only_own_files(self):
        # two files per batch: decoding from the whole store gives what the
        # node-only view gives, so the decoder reads nothing the node did not map
        spec = JobSpec(K=6, N=40, Q=12, r=3, s=1, T=8)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=11, duplicate_prob=0.5).build_store(spec)
        received = self.collect_broadcasts(spec, placement, store)
        for k in range(1, spec.K + 1):
            recovered = decode_cdc_s1(k, received, self.local_view(placement, store, k), placement)
            assert recovered == decode_cdc_s1(k, received, store, placement)
            assert set(recovered) == needed_values(placement, k)

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


def bit_cost(d):
    """Bits a cdc-ld broadcast spends on one decomposition: basis plus coefficients."""
    return d.rho * (d.ncols + len(d.coeffs))


class TestLdCompress:
    def node1_messages(self, T):
        spec, placement, store = paper_setup(T)
        return spec, [full_message(1, g, placement, store)
                      for g in groups_containing(spec, 1, 3)]

    def test_paper_node1_cost(self):
        spec, msgs = self.node1_messages(T=30)
        d = ld_compress(3, msgs, spec)
        assert d.rho == 2
        assert bit_cost(d) == 36      # < the 45 uncompressed bits
        assert bit_cost(d) == d.rho * 15 + d.rho * 3

    def test_full_rank_messages_cost_overhead(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        rng = random.Random(15)
        msgs = [BitVec(rng.getrandbits(15), 15) for _ in range(3)]
        d = ld_compress(3, msgs, spec)
        assert d.rho == min(3, 15) == 3
        assert bit_cost(d) >= 3 * 15

    def test_identical_messages(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        msgs = [BitVec(0x5a5a, 15)] * 3
        d = ld_compress(3, msgs, spec)
        assert d.rho == 1
        assert bit_cost(d) == 15 + 3

    def test_wrong_count(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        with pytest.raises(ValueError, match="expected"):
            ld_compress(3, [BitVec(0, 15)] * 2, spec)

    def test_inconsistent_lengths(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        with pytest.raises(ValueError, match="lengths"):
            ld_compress(3, [BitVec(0, 15), BitVec(0, 15), BitVec(0, 14)], spec)


class TestLdRoundtrip:
    def test_paper_node1(self):
        spec, placement, store = paper_setup(T=30)
        msgs = [full_message(1, g, placement, store)
                for g in groups_containing(spec, 1, 3)]
        back = ld_decompress(ld_compress(3, msgs, spec))
        assert back == msgs
        assert back[1] == back[2]  # the two equal payloads survive the roundtrip

    def test_rank_zero_payload(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        msgs = [BitVec(0, 15)] * 3
        d = ld_compress(3, msgs, spec)
        assert d.rho == 0 and bit_cost(d) == 0
        assert ld_decompress(d) == msgs

    def test_random_roundtrips(self):
        rng = random.Random(200)
        for K in (3, 4, 5, 6):
            spec = JobSpec(K=K, N=comb(K, 2), Q=K, r=2, s=1, T=8)
            count = comb(K - 1, 2)
            for _ in range(20):
                width = rng.randint(1, 40)
                msgs = [BitVec(rng.getrandbits(width), width) for _ in range(count)]
                assert ld_decompress(ld_compress(3, msgs, spec)) == msgs

    def test_malformed_payload(self):
        from cdcsim.gf2 import MalformedDecompositionError
        bad = BasisDecomposition(basis=(BitVec(0b101, 8),),
                                 coeffs=(BitVec(0b11, 2), BitVec(0, 1), BitVec(1, 1)),
                                 rho=1, ncols=8)
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
                    seg = rng.getrandbits(nblocks * lam)
                    got = _scale_segment(f, scalar, seg, nblocks * lam)
                    assert got >> nblocks * lam == 0
                    mask = (1 << lam) - 1
                    for b in range(nblocks):
                        sym = seg >> b * lam & mask
                        want = gf_mul_longdiv(scalar, sym, f.modulus)
                        assert got >> b * lam & mask == want, (lam, scalar)

    def test_bad_input_rejected(self):
        # a trailing partial symbol, or a scalar outside GF(8)
        from cdcsim.codec import _scale_segment
        from cdcsim.gf2 import ext_field
        f = ext_field(3)
        for scalar, seg, nbits in ((1, 0b1111, 4), (2, 0b1111, 4), (-1, 0b101, 3), (8, 0b101, 3)):
            with pytest.raises(ValueError):
                _scale_segment(f, scalar, seg, nbits)

    def test_field_action_laws(self):
        # scaling is linear in the vector and multiplicative in the scalar
        from cdcsim.codec import _scale_segment
        from cdcsim.gf2 import ext_field
        rng = random.Random(56)
        f = ext_field(3)
        for _ in range(50):
            width = 3 * rng.randint(1, 10)
            x = rng.getrandbits(width)
            y = rng.getrandbits(width)
            a = rng.randrange(f.order)
            b = rng.randrange(f.order)
            assert (_scale_segment(f, a, x ^ y, width)
                    == _scale_segment(f, a, x, width) ^ _scale_segment(f, a, y, width))
            assert (_scale_segment(f, f.mul(a, b), x, width)
                    == _scale_segment(f, a, _scale_segment(f, b, x, width), width))


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
                msgs = [full_message(k, g, placement, store)
                        for g in groups_containing(spec, k, ell)]
                d = ld_compress(ell, msgs, spec)
                assert d.rho <= min(comb(K - 1, ell - 1), d.ncols)


def test_multicast_coverage_matches_demand():
    for spec in (JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8),
                 JobSpec(K=5, N=10, Q=10, r=2, s=2, T=4),
                 JobSpec(K=5, N=10, Q=10, r=3, s=2, T=4)):
        placement = make_placement(spec)
        covered = multicast_coverage(placement)
        for k in range(1, spec.K + 1):
            assert needed_values(placement, k) <= covered[k]
