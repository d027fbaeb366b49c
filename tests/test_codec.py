"""Coded shuffle: value sets, segmentation, encoding, peeling, rank compression."""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb

import pytest

from cdcsim.codec import (
    IncompleteShuffleError,
    build_vset,
    combiner,
    decode_cdc_s1,
    encode_cdc,
    full_message,
    groups_containing,
    ld_compress,
    ld_decompress,
    multicast_coverage,
    segment_usymbol,
    segment_width,
)
from cdcsim.engine import run, run_cdc_shuffle
from cdcsim.gf2 import (IRREDUCIBLE_POLY, BasisDecomposition, BlockCombiner, Gf2ExtField,
                        ext_field, pack, unpack)
from cdcsim.placement import JobSpec, group_sizes, make_placement, needed_values
from cdcsim.workloads import SyntheticRankWorkload, ValueTable, WordCountWorkload
from oracles import gf_mul_longdiv, vset_members_bruteforce

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
    store = WordCountWorkload(PAPER_BLOCKS).build_store(spec)
    return spec, placement, store


class TestVSet:
    def test_paper_example(self):
        _, placement, _ = paper_setup()
        assert list(product(*build_vset((1, 2, 3), (1, 3), placement))) == [(2, 2)]

    def test_size_at_minimum_group(self):
        spec = JobSpec(K=5, N=20, Q=10, r=2, s=1, T=4)
        placement = make_placement(spec)
        for group in combinations(range(1, 6), 3):
            for holders in combinations(group, 2):
                value_ids = list(product(*build_vset(group, holders, placement)))
                assert len(value_ids) == spec.eta1 * spec.eta2

    def test_matches_membership_oracle(self):
        for K, r, s in ((5, 2, 2), (5, 1, 1), (5, 2, 1), (5, 1, 3), (5, 2, 3), (6, 3, 3)):
            spec = JobSpec(K=K, N=2 * comb(K, r), Q=2 * comb(K, s), r=r, s=s, T=4)
            placement = make_placement(spec)
            for ell in range(max(r + 1, s), min(r + s, K) + 1):
                for group in combinations(range(1, K + 1), ell):
                    for holders in combinations(group, r):
                        qs, ns = build_vset(group, holders, placement)
                        # sorted functions on one run of consecutive files
                        assert list(qs) == sorted(set(qs))
                        assert list(ns) == list(range(ns[0], ns[0] + len(ns)))
                        value_ids = tuple(product(qs, ns))
                        oracle = vset_members_bruteforce(placement, group, holders)
                        assert value_ids == tuple(sorted(oracle))
                        assert len(value_ids) == comb(r, ell - s) * spec.eta1 * spec.eta2

    def test_canonical_order(self):
        spec = JobSpec(K=4, N=12, Q=8, r=2, s=1, T=4)
        placement = make_placement(spec)
        value_ids = list(product(*build_vset((1, 2, 3), (2, 3), placement)))
        assert value_ids == sorted(value_ids)

    def test_malformed_sizes(self):
        _, placement, _ = paper_setup()
        with pytest.raises(ValueError):
            build_vset((1, 2), (1, 2), placement)  # group too small
        with pytest.raises(ValueError):
            build_vset((1, 2, 3), (1,), placement)  # holders not size r
        with pytest.raises(ValueError):
            build_vset((1, 2, 3), (1, 4), placement)  # holders outside group


class TestVSetCache:
    def test_repeat_call_returns_the_same_object(self):
        spec = JobSpec(K=5, N=20, Q=10, r=2, s=1, T=4)
        placement = make_placement(spec)
        first = build_vset((1, 2, 3), (1, 3), placement)
        assert build_vset((1, 2, 3), (1, 3), placement) is first
        assert build_vset((3, 1, 2), (3, 1), placement) is first
        assert build_vset([2, 3, 1], [1, 3], placement) is first
        # the cache belongs to the placement: another one builds its own set
        other = build_vset((1, 2, 3), (1, 3), make_placement(spec))
        assert other == first and other is not first

    def test_invalid_arguments_raise_every_call_and_are_not_cached(self):
        _, placement, _ = paper_setup()
        for group, holders in (((1, 2), (1, 2)), ((1, 2, 3), (1,)), ((1, 2, 3), (1, 4))):
            for _ in range(2):
                with pytest.raises(ValueError):
                    build_vset(group, holders, placement)
        assert placement.vsets == {}


class TestSegmentMemo:
    def test_segments_are_kept_per_table(self):
        # two stores on one placement: the memo lives on the store
        spec = JobSpec(K=4, N=12, Q=8, r=2, s=1, T=16)
        placement = make_placement(spec)
        a = SyntheticRankWorkload(seed=1).build_store(spec)
        b = SyntheticRankWorkload(seed=2).build_store(spec)
        for group in combinations(range(1, 5), 3):
            for holders in combinations(group, 2):
                vset = build_vset(group, holders, placement)
                seg_a = segment_usymbol(vset, 2, a, spec.T)
                assert segment_usymbol(vset, 2, b, spec.T) != seg_a
                assert segment_usymbol(vset, 2, a, spec.T) is seg_a
                # r is part of the key
                assert segment_usymbol(vset, 1, a, spec.T) != seg_a

    @pytest.mark.parametrize("T", [6, 24, 64])
    def test_memoised_segments_match_a_fresh_table(self, T):
        spec = JobSpec(K=4, N=12, Q=12, r=2, s=1, T=T)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=T).build_store(spec)
        vsets = [build_vset(group, holders, placement)
                 for group in combinations(range(1, 5), 3) for holders in combinations(group, 2)]
        first = [segment_usymbol(vset, spec.r, store, T) for vset in vsets]
        assert len(store.segments) == len(vsets)
        fresh = ValueTable(spec, map(store.row, range(1, spec.Q + 1)))
        for vset, segmented in zip(vsets, first):
            assert segment_usymbol(vset, spec.r, store, T) is segmented
            assert segment_usymbol(vset, spec.r, fresh, T) == segmented


class TestUSymbol:
    def test_paper_halves(self):
        spec, placement, store = paper_setup()
        vset = build_vset((1, 2, 3), (1, 3), placement)
        value_ids = list(product(*vset))
        width, segs = segment_usymbol(vset, 2, store, spec.T)
        v22 = store[(2, 2)]
        assert width == 3
        assert segs[0] == v22 & 0b111   # goes to node 1
        assert segs[1] == v22 >> 3      # goes to node 3
        assert len(segs) * width - len(value_ids) * spec.T == 0  # no padding

    def test_single_holder_single_segment(self):
        spec = JobSpec(K=3, N=3, Q=3, r=1, s=1, T=5)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=4).build_store(spec)
        vset = build_vset((1, 2), (2,), placement)
        value_ids = list(product(*vset))
        width, segs = segment_usymbol(vset, 1, store, spec.T)
        assert len(segs) == 1
        payload = pack([store[qn] for qn in value_ids], spec.T)
        assert (width, segs[0]) == (len(value_ids) * spec.T, payload)

    def test_segments_partition_payload(self):
        spec = JobSpec(K=4, N=4, Q=4, r=3, s=1, T=6)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=6).build_store(spec)
        vset = build_vset((1, 2, 3, 4), (1, 2, 4), placement)
        value_ids = list(product(*vset))
        width, segs = segment_usymbol(vset, 3, store, spec.T)
        payload, nbits = pack([store[qn] for qn in value_ids], spec.T), len(value_ids) * spec.T
        rebuilt = pack(segs, width)
        assert rebuilt & ((1 << nbits) - 1) == payload
        assert len(segs) * width == nbits + (-nbits) % 3
        assert rebuilt >> nbits == 0  # the padding is zeros

    def test_padding_when_not_divisible(self):
        # eta1*eta2*T = 5 bits split across r=2 holders
        spec = JobSpec(K=3, N=3, Q=3, r=2, s=1, T=5)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=2).build_store(spec)
        vset = build_vset((1, 2, 3), (1, 2), placement)
        value_ids = list(product(*vset))
        width, segs = segment_usymbol(vset, 2, store, spec.T)
        assert len(segs) * width - len(value_ids) * spec.T == 1
        assert width == 3 and all(seg >> 3 == 0 for seg in segs)

    @pytest.mark.parametrize("T", [6, 24, 64])
    @pytest.mark.parametrize("s", [1, 2])
    def test_table_read_matches_pack(self, T, s):
        # T=6 joins through pack, T=24 (no struct code) and T=64 as byte
        # slices; at s=2 a value set's functions come from two reduce batches
        spec = JobSpec(K=4, N=12, Q=12, r=2, s=s, T=T)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=T).build_store(spec)
        cases = 0
        for ell in range(spec.r + 1, min(spec.r + s, spec.K) + 1):
            for group in combinations(range(1, 5), ell):
                for holders in combinations(group, spec.r):
                    vset = build_vset(group, holders, placement)
                    width, segs = segment_usymbol(vset, spec.r, store, T)
                    assert pack(segs, width) == pack([store[qn] for qn in product(*vset)], T)
                    cases += 1
        assert cases == (12 if s == 1 else 12 + 6)



def _pack_by_shifts(values, T):
    acc = 0
    for i, v in enumerate(values):
        acc |= v << i * T
    return acc


def _unpack_by_shifts(x, n, T):
    return [x >> i * T & ((1 << T) - 1) for i in range(n)]


class TestPackUnpack:
    # word widths take the struct path, every other width the shift loop
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 36, 800])
    def test_matches_shift_loop(self, n):
        rng = random.Random(n)
        for T in range(1, 71):
            ones = (1 << T) - 1
            for values in ([0] * n, [ones] * n,
                           [rng.choice((0, ones, rng.getrandbits(T))) for _ in range(n)]):
                x = pack(values, T)
                assert x == _pack_by_shifts(values, T)
                assert unpack(x, n, T) == _unpack_by_shifts(x, n, T) == values


def xor_oracle_message(k, group, placement, store):
    """Independent path: sum the sender's segments straight from the value
    sets; returns the segment length and the sum."""
    spec = placement.spec
    acc = 0
    for holders in combinations(group, spec.r):
        if k not in holders:
            continue
        value_ids = list(product(*build_vset(group, holders, placement)))
        payload = pack([store[qn] for qn in value_ids], spec.T)
        nbits = len(value_ids) * spec.T
        seg_len = (nbits + (-nbits) % spec.r) // spec.r
        idx = sorted(holders).index(k)
        acc ^= payload >> idx * seg_len & ((1 << seg_len) - 1)
    return seg_len, acc


class TestEncode:
    def test_paper_node1_first_group(self):
        spec, placement, store = paper_setup()
        msgs = encode_cdc(1, (1, 2, 3), placement, store)
        assert len(msgs) == 1
        assert segment_width(spec, 3) == 3
        assert msgs[0] == (store[(2, 2)] & 0b111) ^ (store[(3, 1)] & 0b111)

    def test_paper_node1_equal_payloads(self):
        spec, placement, store = paper_setup()
        m124 = encode_cdc(1, (1, 2, 4), placement, store)[0]
        m134 = encode_cdc(1, (1, 3, 4), placement, store)[0]
        assert m124 == m134

    def test_zero_store_zero_messages(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        zeros = ValueTable(spec, [[0] * 6 for _ in range(4)])
        for group in combinations(range(1, 5), 3):
            for k in group:
                for msg in encode_cdc(k, group, placement, zeros):
                    assert msg == 0

    def test_s1_equals_xor_oracle(self):
        spec = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=31).build_store(spec)
        for group in combinations(range(1, 6), 3):
            for k in group:
                got = encode_cdc(k, group, placement, store)[0]
                assert (segment_width(spec, 3), got) == xor_oracle_message(
                    k, group, placement, store)

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
        assert all(m >> segment_width(spec, 4) == 0 for m in msgs)
        # the transcript numbers the components 1, 2 in encoder order
        cols = run_cdc_shuffle(spec, placement, store).broadcasts
        assert set(cols.counts) == {1}  # so broadcast i carries payload i
        sent = [i for i, (sender, group) in enumerate(zip(cols.senders, cols.meta["group"]))
                if sender == 1 and group == [1, 2, 3, 4]]
        assert [cols.meta["component"][i] for i in sent] == [1, 2]
        assert [cols.values[i] for i in sent] == msgs
        # first component uses the all-ones row: it is the plain segment XOR
        segs = []
        for holders in combinations((1, 2, 3, 4), 2):
            if 1 not in holders:
                continue
            vset = build_vset((1, 2, 3, 4), holders, placement)
            width, own = segment_usymbol(vset, 2, store, spec.T)
            segs.append(own[sorted(holders).index(1)])
        acc = 0
        for seg in segs:
            acc ^= seg
        assert msgs[0] == acc
        assert [cols.nbits[i] for i in sent] == [width] * 2


class TestDecode:
    def collect_broadcasts(self, spec, placement, store):
        received = {}
        for group in combinations(range(1, spec.K + 1), spec.r + 1):
            for k in group:
                received[(k, group)] = encode_cdc(k, group, placement, store)[0]
        return received

    def local_view(self, placement, store, k):
        # the store with every bit of each value of a file node k did not map
        # flipped: decoding from it is right only if it reads the node's own files
        spec, own = placement.spec, set(placement.node_files[k])
        flip = (1 << spec.T) - 1
        return ValueTable(spec, [[v if n in own else v ^ flip for n, v in enumerate(store.row(q), 1)]
                                 for q in range(1, spec.Q + 1)])

    def node_values(self, placement, store, k):
        # node k's table as the store holds it: its functions' values on
        # every file, q-major, read one value at a time
        return [store[q, n] for q in placement.node_funcs[k]
                for n in range(1, placement.spec.N + 1)]

    def test_fig1_scenario(self):
        spec, placement, store = paper_setup()
        # node 2's and node 3's broadcasts to {1,2,3} carry the halves of (1,4)
        x2 = encode_cdc(2, (1, 2, 3), placement, store)[0]
        x3 = encode_cdc(3, (1, 2, 3), placement, store)[0]
        v14, v31, v22 = store[(1, 4)], store[(3, 1)], store[(2, 2)]
        assert segment_width(spec, 3) == 3
        assert x2 == (v14 & 0b111) ^ (v31 >> 3)
        assert x3 == (v14 >> 3) ^ (v22 >> 3)

        received = self.collect_broadcasts(spec, placement, store)
        table = decode_cdc_s1(1, received, self.local_view(placement, store, 1), placement)
        assert placement.node_funcs[1] == (1,)
        assert table[4 - 1] == v14
        assert table == self.node_values(placement, store, 1)

    def test_single_group_when_r_is_k_minus_1(self):
        spec = JobSpec(K=4, N=4, Q=4, r=3, s=1, T=6)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=3).build_store(spec)
        received = self.collect_broadcasts(spec, placement, store)
        for k in range(1, 5):
            table = decode_cdc_s1(k, received, self.local_view(placement, store, k), placement)
            assert table == self.node_values(placement, store, k)

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
                    table = decode_cdc_s1(k, received,
                                          self.local_view(placement, store, k), placement)
                    assert table == self.node_values(placement, store, k)
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
            table = decode_cdc_s1(k, received, self.local_view(placement, store, k), placement)
            assert table == decode_cdc_s1(k, received, store, placement)
            assert table == self.node_values(placement, store, k)

    def test_missing_broadcast_reported(self):
        spec, placement, store = paper_setup()
        received = self.collect_broadcasts(spec, placement, store)
        del received[(2, (1, 2, 3))]
        with pytest.raises(IncompleteShuffleError) as err:
            decode_cdc_s1(1, received, self.local_view(placement, store, 1), placement)
        # exactly the values node 2's broadcast to {1, 2, 3} carried for node 1
        lost = sorted(product(*build_vset((1, 2, 3), (2, 3), placement)))
        assert (1, 4) in lost
        assert err.value.missing == lost
        assert str(err.value) == f"node 1: unrecoverable intermediate values: {lost}"

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
        msgs = [rng.getrandbits(15) for _ in range(3)]
        d = ld_compress(3, msgs, spec)
        assert d.rho == min(3, 15) == 3
        assert bit_cost(d) >= 3 * 15

    def test_identical_messages(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        msgs = [0x5a5a] * 3
        d = ld_compress(3, msgs, spec)
        assert d.rho == 1
        assert bit_cost(d) == 15 + 3

    def test_wrong_count(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        with pytest.raises(ValueError, match="expected"):
            ld_compress(3, [0] * 2, spec)

    def test_message_too_wide(self):
        # the spec fixes msg_len = 15 bits for ell=3
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        assert ld_compress(3, [0, 0, (1 << 15) - 1], spec).ncols == 15
        for bad in (1 << 15, -1):
            with pytest.raises(ValueError, match="does not fit in 15"):
                ld_compress(3, [0, 0, bad], spec)


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
        msgs = [0] * 3
        d = ld_compress(3, msgs, spec)
        assert d.rho == 0 and bit_cost(d) == 0
        assert ld_decompress(d) == msgs

    def test_random_roundtrips(self):
        rng = random.Random(200)
        for K in (3, 4, 5, 6):
            count = comb(K - 1, 2)
            for _ in range(20):
                # one value set per message, split two ways: msg_len = ceil(T / 2)
                spec = JobSpec(K=K, N=comb(K, 2), Q=K, r=2, s=1, T=rng.randint(1, 80))
                width = (spec.T + 1) // 2
                msgs = [rng.getrandbits(width) for _ in range(count)]
                d = ld_compress(3, msgs, spec)
                assert d.ncols == width
                assert ld_decompress(d) == msgs

    def test_malformed_payload(self):
        from cdcsim.gf2 import MalformedDecompositionError
        bad = BasisDecomposition(basis=(0b101,), coeffs=(0b11, 0, 1), ncols=8)
        with pytest.raises(MalformedDecompositionError):
            ld_decompress(bad)


def scale(field, scalar, seg, nbits):
    """One scalar times one segment, blockwise, through a 1 x 1 combiner."""
    return BlockCombiner(field, [[scalar]], nbits).combine([seg])[0]


class TestBlockwiseScaling:
    def test_matches_long_division_oracle(self):
        rng = random.Random(55)
        for lam in range(1, 17):
            f = ext_field(lam)
            scalars = [0, 1, f.order - 1] + [rng.randrange(f.order) for _ in range(3)]
            for scalar in scalars:
                for nblocks in range(1, 41):
                    seg = rng.getrandbits(nblocks * lam)
                    got = scale(f, scalar, seg, nblocks * lam)
                    assert got >> nblocks * lam == 0
                    mask = (1 << lam) - 1
                    for b in range(nblocks):
                        sym = seg >> b * lam & mask
                        want = gf_mul_longdiv(scalar, sym, f.modulus)
                        assert got >> b * lam & mask == want, (lam, scalar)

    def test_matrix_matches_long_division_oracle(self):
        # output i is the symbol-wise sum over j of rows[i][j] * vector j
        rng = random.Random(57)
        for lam in (1, 2, 3, 4, 8, 16):
            f = ext_field(lam)
            mask = (1 << lam) - 1
            for _ in range(10):
                n, m, nblocks = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 12)
                rows = [[rng.randrange(f.order) for _ in range(m)] for _ in range(n)]
                vectors = [rng.getrandbits(nblocks * lam) for _ in range(m)]
                got = BlockCombiner(f, rows, nblocks * lam).combine(vectors)
                assert len(got) == n
                for i, out in enumerate(got):
                    want = 0
                    for b in range(nblocks):
                        sym = 0
                        for a, x in zip(rows[i], vectors):
                            sym ^= gf_mul_longdiv(a, x >> b * lam & mask, f.modulus)
                        want |= sym << b * lam
                    assert out == want, (lam, rows, i)

    def test_bad_input_rejected(self):
        # a trailing partial symbol, or a scalar outside GF(8)
        f = ext_field(3)
        for scalar, seg, nbits in ((1, 0b1111, 4), (2, 0b1111, 4), (-1, 0b101, 3), (8, 0b101, 3)):
            with pytest.raises(ValueError):
                scale(f, scalar, seg, nbits)
        # a vector count other than the row length
        with pytest.raises(ValueError):
            BlockCombiner(f, [[1, 2]], 3).combine([0b101])

    def test_field_action_laws(self):
        # scaling is linear in the vector and multiplicative in the scalar
        rng = random.Random(56)
        f = ext_field(3)
        for _ in range(50):
            width = 3 * rng.randint(1, 10)
            x = rng.getrandbits(width)
            y = rng.getrandbits(width)
            a = rng.randrange(f.order)
            b = rng.randrange(f.order)
            assert (scale(f, a, x ^ y, width)
                    == scale(f, a, x, width) ^ scale(f, a, y, width))
            assert (scale(f, f.mul(a, b), x, width)
                    == scale(f, a, scale(f, b, x, width), width))


def encode_oracle(k, group, placement, store):
    """Independent path for one s >= 2 broadcast: the sender's segments from
    a direct evaluation of value-set membership, then component i as the sum
    of a_j^i * segment j one lam-bit symbol at a time, a_j = j, with long
    division for every product and power."""
    spec = placement.spec
    wanters = {q: {j for j in range(1, spec.K + 1) if q in placement.node_funcs[j]}
               for q in range(1, spec.Q + 1)}
    holders_of = {n: {j for j in range(1, spec.K + 1) if n in placement.node_files[j]}
                  for n in range(1, spec.N + 1)}
    segments = []
    for holders in combinations(group, spec.r):
        if k not in holders:
            continue
        receivers = set(group) - set(holders)
        members = [(q, n) for q in range(1, spec.Q + 1) if receivers <= wanters[q] <= set(group)
                   for n in range(1, spec.N + 1) if holders_of[n] == set(holders)]
        nbits = len(members) * spec.T
        seg_len = -(-nbits // spec.r)
        payload = sum(store[qn] << i * spec.T for i, qn in enumerate(members))
        segments.append(payload >> holders.index(k) * seg_len & ((1 << seg_len) - 1))
    m = len(segments)
    lam = next(d for d in range(1, 17) if (1 << d) - 1 >= m)
    modulus = IRREDUCIBLE_POLY[lam]
    nsym = -(-seg_len // lam)
    mask = (1 << lam) - 1
    components = []
    for i in range(comb(len(group) - 2, spec.r - 1)):
        powers = []
        for a in range(1, m + 1):
            p = 1
            for _ in range(i):
                p = gf_mul_longdiv(p, a, modulus)
            powers.append(p)
        out = 0
        for b in range(nsym):
            sym = 0
            for p, seg in zip(powers, segments):
                sym ^= gf_mul_longdiv(p, seg >> b * lam & mask, modulus)
            out |= sym << b * lam
        components.append(out)
    return lam, nsym * lam, components


class TestGeneralSEncoder:
    @pytest.mark.parametrize("kw, lams", [
        (dict(K=7, N=35, Q=35, r=3, s=4, T=13), {2, 3, 4}),
        (dict(K=6, N=15, Q=20, r=2, s=3, T=17), {2, 3}),
    ], ids=["s4", "s3"])
    def test_every_component_matches_oracle(self, kw, lams):
        # T is not a multiple of lambda here, so segments get padded
        spec = JobSpec(**kw)
        placement = make_placement(spec)
        store = SyntheticRankWorkload(seed=3).build_store(spec)
        seen = set()
        for ell in group_sizes(spec.K, spec.r, spec.s):
            for group in combinations(range(1, spec.K + 1), ell):
                for k in group:
                    lam, width, want = encode_oracle(k, group, placement, store)
                    seen.add(lam)
                    assert width == segment_width(spec, ell)
                    assert encode_cdc(k, group, placement, store) == want, (group, k)
        assert seen == lams

    def test_combiner_built_once_per_job(self, monkeypatch):
        # each job builds its own Vandermonde rows once per group size:
        # sum over ell of (components - 1) * segments multiplications
        calls = []
        mul = Gf2ExtField.mul

        def counted(self, a, b):
            calls.append((a, b))
            return mul(self, a, b)

        monkeypatch.setattr(Gf2ExtField, "mul", counted)
        spec = JobSpec(K=8, N=56, Q=56, r=3, s=3, T=64)
        bound = sum((comb(ell - 2, 2) - 1) * comb(ell - 1, 2) for ell in group_sizes(8, 3, 3))
        assert bound == 62
        for scheme in ("cdc", "cdc-ld", "cdc"):
            calls.clear()
            run(spec, SyntheticRankWorkload(seed=1), scheme)
            assert 0 < len(calls) <= bound, scheme
        placement = make_placement(spec)
        calls.clear()
        first = [combiner(placement, ell) for ell in group_sizes(8, 3, 3)]
        assert len(calls) == bound
        assert all(combiner(placement, ell) is c for ell, c in zip(group_sizes(8, 3, 3), first))
        assert len(calls) == bound


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
                 JobSpec(K=5, N=10, Q=10, r=3, s=2, T=4),
                 JobSpec(K=5, N=20, Q=20, r=2, s=3, T=4)):
        placement = make_placement(spec)
        covered = multicast_coverage(placement)
        for k in range(1, spec.K + 1):
            # each (q, holders) pair is q on every file of the holders' batch
            pairs = {(q, n) for q, holders in covered[k] for n in placement.file_batches[holders]}
            assert len(pairs) == len(covered[k]) * spec.eta1
            assert needed_values(placement, k) == pairs
