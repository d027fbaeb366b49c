"""Full map/shuffle/reduce runs: verification, accounting, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, chain, combinations, product
from math import comb, inf, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdcsim.engine
from cdcsim.cli import build_workload, fixture_to_json
from cdcsim.codec import (IncompleteShuffleError, build_vset, decode_cdc_s1, full_message,
                          groups_containing, ld_compress)
from cdcsim.engine import (
    SCHEMES,
    Broadcasts,
    Rows,
    ShuffleTranscript,
    Slot,
    UnsupportedCombinationError,
    _payload_from_json,
    decode_and_verify,
    dump_json,
    reduce_phase,
    run,
    run_cdc_ld_shuffle,
    run_cdc_shuffle,
    run_on,
    run_uncoded_shuffle,
    transcript_from_json,
    transcript_to_json,
    validate_transcript,
    write_json,
)
from cdcsim.gf2 import Gf2Matrix, pack
from cdcsim.placement import JobSpec, group_sizes, ksubsets, make_placement, needed_values
from cdcsim.workloads import (
    CodedLinearTransformWorkload,
    LinearTransformWorkload,
    SyntheticRankWorkload,
    ValueTable,
    WordCountWorkload,
)
from documents import written
from oracles import recount, reference_validate_cdc, table_path_verify
from test_small_specs import small_specs

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
        assert result.mismatch is None
        # every node's outputs are the single-machine counts
        assert {q: v for out in result.outputs.values() for q, v in out.items()} == {
            q: recount(blocks, q) for q in range(1, 5)}

    def test_rho_table(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        result = run(spec, paper_workload(), "cdc-ld")
        assert result.transcript.ranks() == {(1, 3): 2, (2, 3): 3, (3, 3): 2, (4, 3): 0}

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
        assert run_cdc_ld_shuffle(placement, store).ranks() == want
        assert run(spec, workload, "cdc-ld").transcript.ranks() == want
        s1 = JobSpec(spec.K, spec.N, spec.Q, spec.r, 1, spec.T)
        assert run_uncoded_shuffle(make_placement(s1), workload.build_store(s1)).ranks() is None
        assert run_cdc_shuffle(placement, store).ranks() is None
        assert run(spec, workload, "cdc").transcript.ranks() is None


class TestUncoded:
    def test_load_is_one_minus_r_over_k(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        result = run(spec, paper_workload(), "uncoded")
        assert result.load_empirical == Fraction(1, 2)

    def test_smallest_holder_sends(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        store = paper_workload().build_store(spec)
        cols = run_uncoded_shuffle(placement, store).broadcasts
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
        doc = written(transcript_to_json(result.transcript))
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
        assert run_uncoded_shuffle(placement, store).broadcasts == Broadcasts(
            [placement.batch_of_file[n][0] for _, n in needed],
            {"q": [q for q, _ in needed], "n": [n for _, n in needed]}, [1] * m,
            [spec.T] * m, [store.join((q,), n, 1) for q, n in needed])

    def test_payload_counts_other_than_one(self):
        # broadcast 0 loses its payload and broadcast 1 carries two: the
        # columns keep every payload with its broadcast, through reader,
        # writer and bits_by_node
        result = run(self.SPEC, SyntheticRankWorkload(seed=3), "uncoded")
        doc = written(transcript_to_json(result.transcript))
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
            transcript = run_uncoded_shuffle(placement, store)
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
        assert validate_transcript(placement, transcript)
        i = 3
        first = sum(cols.counts[:i])
        j = payload % cols.counts[i]
        if scheme == "cdc-ld":
            assert 0 < cols.meta["rho"][i] < cols.counts[i]  # a basis row and a coefficient row
        n = cols.nbits[first + j]
        cols.values[first + j] = bad(cols.values[first + j], n)
        with pytest.raises(ValueError, match=rf"^broadcast {i}: payload {j} for .* "
                                             rf"does not fit in {n} bits$"):
            validate_transcript(placement, transcript)


def cdc_edits(cols: Broadcasts, spec: JobSpec, i: int) -> dict:
    """A cdc transcript's broadcasts with broadcast i dropped, repeated at the
    end, sent to a group of one node (no multicast), given a component its
    group does not have, given two payloads, widened by a bit, or given a
    value one bit too wide for its width."""
    assert set(cols.counts) == {1}  # broadcast j's payload is payload j
    rows = [list(row) for row in zip(cols.senders, cols.meta["group"], cols.meta["component"],
                                     cols.counts, cols.nbits, cols.values)]
    sender, group, _, _, width, value = rows[i]
    changed = {"group": (sender,), "component": comb(len(group) - 2, spec.r - 1) + 1,
               "count": 2, "nbits": width + 1, "value": value | 1 << width}
    edits = {"dropped": rows[:i] + rows[i + 1:], "repeated": rows + [rows[i]]}
    for field, new in changed.items():
        edited = [list(row) for row in rows]
        edited[i][("sender", "group", "component", "count", "nbits", "value").index(field)] = new
        edits[field] = edited
    out = {}
    for name, edited in edits.items():
        senders, groups, components, counts, nbits, values = map(list, zip(*edited))
        # a broadcast of two payloads holds its width and value twice
        nbits = [w for w, c in zip(nbits, counts) for _ in range(c)]
        values = [v for v, c in zip(values, counts) for _ in range(c)]
        out[name] = Broadcasts(senders, {"group": groups, "component": components},
                               counts, nbits, values)
    return out


class TestCdcColumnCheck:
    """cdc ``validate_transcript`` accepts a transcript by checks over whole
    columns, and runs the per-broadcast loop only on one they refuse: it
    returns what the loop returns, or raises the loop's error."""

    def test_equals_the_per_broadcast_loop_at_every_s(self):
        rng = random.Random(40)
        seen = Counter()
        for spec in small_specs():
            placement = make_placement(spec)
            cols = run(spec, SyntheticRankWorkload(seed=1), "cdc").transcript.broadcasts
            cases = {"honest": cols}
            if len(cols):
                cases |= cdc_edits(cols, spec, rng.randrange(len(cols)))
                # broadcast 0 carries broadcast 1's payload too and broadcast 1
                # none, so every width stays in place
                cases["moved"] = replace(cols, counts=[2, 0] + cols.counts[2:])
            for name, edited in cases.items():
                transcript = ShuffleTranscript("cdc", spec, edited)
                got = outcome(validate_transcript, placement, transcript)
                assert got == outcome(reference_validate_cdc, placement, transcript), \
                    (spec, name)
                seen[name, type(got) is dict] += 1
        # every honest transcript is accepted, and every edit of the 130 that
        # carry a broadcast refused
        assert seen == {("honest", True): 176, **{(name, False): 130 for name in (
            "dropped", "repeated", "group", "component", "count", "nbits", "value", "moved")}}

    def test_refusals_name_the_first_fault(self):
        spec = S2_SPEC
        placement = make_placement(spec)
        cols = run(spec, SyntheticRankWorkload(seed=7), "cdc").transcript.broadcasts
        key = (cols.senders[5], cols.meta["group"][5], cols.meta["component"][5])
        width = cols.nbits[5]
        for name, message in {
                "dropped": f"no cdc broadcast for [{key}]",
                "repeated": f"broadcast {len(cols)}: second broadcast for {key}",
                "count": f"broadcast 5: payloads of [{width}, {width}] bits for {key}, "
                         f"expected [{width}]",
                "nbits": f"broadcast 5: payloads of [{width + 1}] bits for {key}, "
                         f"expected [{width}]",
                "value": f"broadcast 5: payload 0 for {key} does not fit in {width} bits"}.items():
            edited = ShuffleTranscript("cdc", spec, cdc_edits(cols, spec, 5)[name])
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                validate_transcript(placement, edited)


def reversed_broadcasts(cols: Broadcasts) -> Broadcasts:
    """The same broadcasts in reverse order, each with its payloads in order."""
    firsts = list(accumulate(cols.counts, initial=0))
    spans = [range(first, first + count) for first, count in zip(firsts, cols.counts)][::-1]
    return Broadcasts(cols.senders[::-1], {field: column[::-1] for field, column in
                                           cols.meta.items()}, cols.counts[::-1],
                      [cols.nbits[j] for span in spans for j in span],
                      [cols.values[j] for span in spans for j in span])


S1_SPEC = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)
S2_SPEC = JobSpec(K=5, N=10, Q=10, r=2, s=2, T=8)


class TestReceivedMessages:
    """A node hears the same thing from either coded scheme: one message
    per (sender, group), laid out as ``full_message`` lays it out, in
    whatever order the broadcasts come."""

    @pytest.mark.parametrize("spec", [S1_SPEC, S2_SPEC], ids=["s1", "s2"])
    def test_cdc_and_cdc_ld_validate_to_the_full_messages(self, spec):
        workload = SyntheticRankWorkload(seed=7, duplicate_prob=0.5)
        placement, store = make_placement(spec), workload.build_store(spec)
        want = {(k, g): full_message(k, g, placement, store)
                for ell in group_sizes(spec.K, spec.r, spec.s)
                for g in ksubsets(spec.K, ell) for k in g}
        cdc = validate_transcript(placement, run_cdc_shuffle(placement, store))
        cdc_ld = validate_transcript(placement, run_cdc_ld_shuffle(placement, store))
        assert cdc == cdc_ld == want

    @pytest.mark.parametrize("spec, scheme", [
        (S1_SPEC, "uncoded"), (S1_SPEC, "cdc"), (S1_SPEC, "cdc-ld"),
        (S2_SPEC, "cdc"), (S2_SPEC, "cdc-ld")],
        ids=["s1-uncoded", "s1-cdc", "s1-cdc-ld", "s2-cdc", "s2-cdc-ld"])
    def test_reversed_broadcasts_validate_alike(self, spec, scheme):
        placement = make_placement(spec)
        transcript = run(spec, SyntheticRankWorkload(seed=7, duplicate_prob=0.5),
                         scheme).transcript
        backwards = ShuffleTranscript(scheme, spec, reversed_broadcasts(transcript.broadcasts))
        assert backwards.broadcasts.senders != transcript.broadcasts.senders
        assert sorted(backwards.broadcasts.values) == sorted(transcript.broadcasts.values)
        assert validate_transcript(placement, backwards) == validate_transcript(
            placement, transcript)


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
    for q in range(1, 9):
        assert store.row(q) == rows[q - 1] == [store.join((q,), n, 1) for n in range(1, 7)]
    for k in range(1, spec.K + 1):
        funcs = placement.node_funcs[k]
        batches = [ns for holders, ns in placement.file_batches.items() if k not in holders]
        assert {(q, n) for ns in batches for q in funcs for n in ns} == needed_values(placement, k)
        for ns in batches:
            assert store.join(funcs, ns[0], len(ns)) == pack(
                [store.join((q,), n, 1) for q in funcs for n in ns], T)
        assert store.join(funcs[::-1], 1, 6) == pack(
            [store.join((q,), n, 1) for q in funcs[::-1] for n in range(1, 7)], T)
    # a key outside functions 1..8 and files 1..6 is not in the table
    for qs, n, count in (((1,), 0, 1), ((1,), 6, 2), ((1,), 7, 1), ((1,), 1, 0),
                         ((0,), 1, 1), ((9,), 1, 1), ((1, 9), 2, 3)):
        with pytest.raises(KeyError):
            store.join(qs, n, count)
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
        store = workload.build_store(spec)
        reference = {q: workload.reduce(q, store.row(q), spec.T) for q in range(1, spec.Q + 1)}
        for result in results.values():
            assert result.verification == "pass"
            assert result.mismatch is None
            for k, out in result.outputs.items():
                for q, v in out.items():
                    assert v == reference[q]

    @pytest.mark.parametrize("spec,schemes", [
        (JobSpec(K=5, N=20, Q=10, r=2, s=1, T=13), SCHEMES),
        (JobSpec(K=5, N=10, Q=10, r=2, s=2, T=8), ("cdc", "cdc-ld")),
    ], ids=["s1-T13", "s2"])
    def test_runs_on_one_store_equal_fresh_runs(self, spec, schemes):
        # the schemes run in turn on one placement and one store, so cdc-ld
        # reads the segments cdc memoised; each run is the one run() gives
        workload = SyntheticRankWorkload(seed=11, duplicate_prob=0.3)
        placement, store = make_placement(spec), workload.build_store(spec)
        for scheme in schemes:
            # every field: transcript columns, bits, load, outputs, mismatch, verdict
            shared = run_on(placement, store, workload, scheme)
            assert shared == run(spec, workload, scheme)
        assert shared.verification == ("pass" if spec.s == 1 else "not-applicable")

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
                got = validate_transcript(placement, result.transcript)
                if scheme == "uncoded":
                    # one slot per (q, n), filled exactly where some node needs the value
                    assert len(got) == spec.Q * spec.N
                    for (q, n), v in zip(product(range(1, Q + 1), range(1, spec.N + 1)), got):
                        assert v == (store.join((q,), n, 1) if (q, n) in needed else None)
                    # decode_and_verify builds the uncoded tables from these
                    # slots; TestSymbolCheck compares it with the oracle's
                    continue
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
                    assert decode_cdc_s1(k, got, local, placement) == [
                        store.join((q,), n, 1) for q in funcs for n in range(1, spec.N + 1)]


class TestRunOn:
    def test_unknown_scheme_raises_before_any_placement_or_map(self, monkeypatch):
        calls = Counter()
        build = SyntheticRankWorkload.build_store
        monkeypatch.setattr(SyntheticRankWorkload, "build_store",
                            lambda self, spec: calls.update(["build_store"]) or build(self, spec))
        monkeypatch.setattr(cdcsim.engine, "make_placement",
                            lambda spec: calls.update(["make_placement"]) or make_placement(spec))
        spec, workload = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=8), SyntheticRankWorkload(seed=1)
        multi_copy = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
        for job, scheme, error, message in (
                (spec, "bogus", ValueError, "unknown scheme 'bogus'"),
                (multi_copy, "uncoded", UnsupportedCombinationError,
                 "uncoded shuffle is defined only for s=1, got s=2")):
            with pytest.raises(error, match=message):
                run(job, workload, scheme)
            assert calls == {}
        run(spec, workload, "cdc")
        assert calls == {"build_store": 1, "make_placement": 1}

    @pytest.mark.parametrize("other, shape", [({"T": 9}, (4, 6, 9)), ({"N": 12}, (4, 12, 8))])
    def test_store_of_another_shape_is_refused(self, other, shape):
        spec, workload = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=8), SyntheticRankWorkload(seed=1)
        store = workload.build_store(JobSpec(**{**spec.as_dict(), **other}))
        for scheme in SCHEMES:
            with pytest.raises(ValueError) as info:
                run_on(make_placement(spec), store, workload, scheme)
            assert str(info.value) == (f"a store of (Q, N, T) = {shape} does not fit the "
                                       "spec's (4, 6, 8)")


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
            rho = result.transcript.ranks()[(k, 3)]
            assert result.bits_by_node[k] == rho * msg_len + rho * count


class TestRankDegeneracy:
    def test_duplicates_make_compression_win(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=64)
        workload = SyntheticRankWorkload(seed=21, duplicate_prob=1.0)
        ld = run(spec, workload, "cdc-ld")
        plain = run(spec, workload, "cdc")
        assert sum(ld.bits_by_node.values()) < sum(plain.bits_by_node.values())
        assert all(rho <= 1 for rho in ld.transcript.ranks().values())
        assert ld.verification == "pass"

    def test_full_rank_costs_coefficient_overhead(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=64)
        workload = SyntheticRankWorkload(seed=21, duplicate_prob=0.0)
        ld = run(spec, workload, "cdc-ld")
        plain = run(spec, workload, "cdc")
        assert all(rho == comb(3, 2) for rho in ld.transcript.ranks().values())
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
            decode_and_verify(placement, workload.build_store(spec), transcript, workload)
        assert str(err.value) == (f"multicast structure misses {[(qs[-1], n) for n in ns]} "
                                  f"for node 3")

    def test_coverage_miss_is_found_when_a_repeated_function_keeps_the_size(self):
        # the same lost function with another repeated in its place: a count
        # of the functions served would read full
        spec = JobSpec(K=5, N=20, Q=10, r=2, s=2, T=4)
        workload = SyntheticRankWorkload(seed=4)
        transcript = run(spec, workload, "cdc").transcript
        placement = make_placement(spec)
        qs, ns = build_vset((1, 2, 3), (1, 2), placement)
        placement.vsets[(1, 2, 3), (1, 2)] = qs[:-1] + qs[:1], ns
        assert len(qs[:-1] + qs[:1]) == len(qs)
        with pytest.raises(AssertionError) as err:
            decode_and_verify(placement, workload.build_store(spec), transcript, workload)
        assert str(err.value) == (f"multicast structure misses {[(qs[-1], n) for n in ns]} "
                                  f"for node 3")


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
        store = workload.build_store(spec)
        outputs = {q: v for out in result.outputs.values() for q, v in out.items()}
        for q in range(1, 5):
            expected = pack([x >> (q - 1) * 4 & 0xf for x in inputs.rows], 4)
            reference = workload.reduce(q, store.row(q), spec.T)
            assert reference == outputs[q] == expected
            assert workload.output_text(reference, spec) == f"{4 * 6}:{expected:x}"

    def test_missing_value_propagates(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        workload = paper_workload()
        store = workload.build_store(spec)
        for k in range(1, 5):
            needed = needed_values(placement, k)
            funcs = placement.node_funcs[k]
            outputs = {q: workload.reduce(q, store.row(q), spec.T) for q in funcs}
            full = [store.join((q,), n, 1) for q in funcs for n in range(1, spec.N + 1)]
            assert reduce_phase(placement, k, full, workload) == outputs
            # the node holds its own mapped values but received nothing, or
            # all but one value: the error names the node and exactly what it lacks
            files = set(placement.node_files[k])
            own = [store.join((q,), n, 1) if n in files else None
                   for q in funcs for n in range(1, spec.N + 1)]
            with pytest.raises(IncompleteShuffleError) as err:
                reduce_phase(placement, k, own, workload)
            assert err.value.missing == sorted(needed)
            assert str(err.value) == (f"node {k}: unrecoverable intermediate values: "
                                      f"{sorted(needed)}")
            lost = max(needed)
            table = list(full)
            table[funcs.index(lost[0]) * spec.N + lost[1] - 1] = None
            with pytest.raises(IncompleteShuffleError) as err:
                reduce_phase(placement, k, table, workload)
            assert err.value.missing == [lost]
            assert str(err.value) == f"node {k}: unrecoverable intermediate values: {[lost]}"

    def test_dropped_broadcast_fails_decode(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
        placement = make_placement(spec)
        workload = paper_workload()
        store = workload.build_store(spec)
        # broadcast 0's key: (q, n), (sender, group, component), (sender, ell)
        for scheme, key in (("uncoded", (1, 4)), ("cdc", (1, (1, 2, 3), 1)), ("cdc-ld", (1, 3))):
            doc = written(transcript_to_json(run(spec, workload, scheme).transcript))
            doc["broadcasts"].pop(0)
            transcript = transcript_from_json(doc)
            # the validator names the broadcast by its key, under no one node
            with pytest.raises(ValueError) as err:
                decode_and_verify(placement, store, transcript, workload)
            assert str(err.value) == f"no {scheme} broadcast for {[key]}"


class TestTwoFlipEdits:
    """The same bit flipped in the last payload of two broadcasts of the K=4
    job: XOR and integer-sum reduces can cancel such a pair, but the decoded
    values then differ from the store's, so every edit fails (or is refused)."""

    @pytest.mark.parametrize("scheme, edits", [("uncoded", 264), ("cdc", 264), ("cdc-ld", 24)])
    def test_every_edit_fails(self, scheme, edits):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=8)
        workload = SyntheticRankWorkload(seed=1)
        placement, store = make_placement(spec), workload.build_store(spec)
        cols = run_on(placement, store, workload, scheme).transcript.broadcasts
        ends = list(accumulate(cols.counts))  # broadcast i's last payload is ends[i] - 1
        passed, count = [], 0
        for pair, bit in product(combinations(range(len(cols)), 2), range(4)):
            values = list(cols.values)
            for i in pair:
                values[ends[i] - 1] ^= 1 << bit
            edited = ShuffleTranscript(scheme, spec, replace(cols, values=values))
            count += 1
            try:
                if decode_and_verify(placement, store, edited, workload)[2] != "fail":
                    passed.append((pair, bit))
            except ValueError:
                pass
        assert count == edits
        assert passed == []


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as err:  # IncompleteShuffleError is a RuntimeError
        return type(err), str(err)


def single_copy_jobs(rng):
    """The s = 1 small specs, each with a synthetic store and a word-count
    store whose counts are 0 or 1, so that they fit at T = 1."""
    for spec in small_specs():
        if spec.s == 1:
            yield spec, SyntheticRankWorkload(seed=1)
            yield spec, WordCountWorkload(tuple(
                tuple(q for q in range(1, spec.Q + 1) if rng.random() < 0.6)
                for _ in range(spec.N)))


class TestSymbolCheck:
    """At s = 1, cdc and cdc-ld verify each component a node peels against
    the store's segment of the same value set, and decode a node's table
    only when one differs; uncoded builds every node's table from its slots:
    the result is the table path's."""

    def test_matches_the_table_path_honest_and_with_flipped_bits(self):
        rng = random.Random(38)
        seen = Counter()
        for spec, workload in single_copy_jobs(rng):
            placement, store = make_placement(spec), workload.build_store(spec)
            for scheme in SCHEMES:
                cols = run_on(placement, store, workload, scheme).transcript.broadcasts
                bits = [(i, b) for i, width in enumerate(cols.nbits) for b in range(width)]
                edits = [()] + [(bit,) for bit in rng.sample(bits, min(4, len(bits)))]
                edits += [tuple(rng.sample(bits, 2)) for _ in range(4 if len(bits) > 1 else 0)]
                for edit in edits:
                    values = list(cols.values)
                    for i, b in edit:
                        values[i] ^= 1 << b
                    edited = ShuffleTranscript(scheme, spec, replace(cols, values=values))
                    expected = outcome(table_path_verify, placement, store, edited, workload)
                    assert outcome(decode_and_verify, placement, store, edited, workload) == \
                        expected, (spec, workload, scheme, edit)
                    seen[len(edit), expected[2] if type(expected[0]) is dict else expected[0]] += 1
        # 56 specs, two stores, three schemes: every honest transcript passes
        assert seen[0, "pass"] == 56 * 2 * 3
        # edits end in a named wrong value or a ValueError: a padding that
        # is not zero, or cdc-ld basis rows of lower rank
        assert {(1, "fail"), (2, "fail"), (1, ValueError), (2, ValueError)} <= set(seen)

    def test_honest_job_decodes_no_node_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a node table was decoded")

        monkeypatch.setattr(cdcsim.engine, "decode_cdc_s1", refuse)
        for spec, workload in single_copy_jobs(random.Random(38)):
            for scheme in ("cdc", "cdc-ld"):
                result = run(spec, workload, scheme)
                assert (result.mismatch, result.verification) == (None, "pass")


class TestOneNodeAtATime:
    """At s = 1 each node is verified on its own: a coded node decodes a
    table only when a component it peels differs from the store's, and a
    node that builds a table reads its store rows once."""

    def test_one_flipped_bit_decodes_the_other_members_tables(self, monkeypatch):
        spec, workload = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=8), SyntheticRankWorkload(seed=1)
        placement, store = make_placement(spec), workload.build_store(spec)
        cols = run_on(placement, store, workload, "cdc").transcript.broadcasts
        assert set(cols.counts) == {1}  # broadcast i's payload is payload i
        decoded = []
        decode = cdcsim.engine.decode_cdc_s1
        monkeypatch.setattr(cdcsim.engine, "decode_cdc_s1",
                            lambda k, *args: decoded.append(k) or decode(k, *args))
        by_broadcast = {}
        for i, (sender, group) in enumerate(zip(cols.senders, cols.meta["group"])):
            values = list(cols.values)
            values[i] ^= 1
            decoded.clear()
            edited = ShuffleTranscript("cdc", spec, replace(cols, values=values))
            assert decode_and_verify(placement, store, edited, workload)[2] == "fail"
            # only the receivers of the flipped broadcast can hold a wrong value
            assert decoded == [j for j in group if j != sender]
            by_broadcast[sender, group] = list(decoded)
        assert by_broadcast[1, (1, 2, 3)] == [2, 3]

    def test_first_wrong_value_is_named_on_nodes_with_two_functions(self):
        # the small specs give each node one function; Q=8 gives it two, so
        # the first wrong value may lie in the row of a node's second one
        spec, workload = JobSpec(K=4, N=6, Q=8, r=2, s=1, T=8), SyntheticRankWorkload(seed=1)
        placement, store = make_placement(spec), workload.build_store(spec)
        reducer = {q: k for k, qs in placement.node_funcs.items() for q in qs}
        for scheme in SCHEMES:
            cols = run_on(placement, store, workload, scheme).transcript.broadcasts
            for j in range(len(cols.values)):
                values = list(cols.values)
                values[j] ^= 1
                edited = ShuffleTranscript(scheme, spec, replace(cols, values=values))
                got = outcome(decode_and_verify, placement, store, edited, workload)
                assert got == outcome(table_path_verify, placement, store, edited, workload)
                if scheme == "uncoded":  # payload j is broadcast j's, the value of its (q, n)
                    q, n = cols.meta["q"][j], cols.meta["n"][j]
                    v = store.join((q,), n, 1)
                    assert got[1] == (f"node {reducer[q]}: function {q} on file {n} decoded as "
                                      f"0x{v ^ 1:x}, expected 0x{v:x}")

    def test_honest_uncoded_job_reads_each_nodes_rows_once(self, monkeypatch):
        # Q=8: each node reduces two functions, read in one call
        spec, workload = JobSpec(K=4, N=6, Q=8, r=2, s=1, T=8), SyntheticRankWorkload(seed=1)
        placement, store = make_placement(spec), workload.build_store(spec)
        transcript = run_on(placement, store, workload, "uncoded").transcript
        calls = Counter()
        rows, row = ValueTable.rows, ValueTable.row
        monkeypatch.setattr(ValueTable, "rows", lambda self, q, count: calls.update(
            [("rows", q, count)]) or rows(self, q, count))
        monkeypatch.setattr(ValueTable, "row", lambda self, q: calls.update(["row"]) or row(self, q))
        assert decode_and_verify(placement, store, transcript, workload)[1:] == (None, "pass")
        assert calls == {("rows", q, 2): 1 for q in (1, 3, 5, 7)}


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
        back = transcript_from_json(written(doc))
        assert back == result.transcript
        assert dump_json(transcript_to_json(back)) == dump_json(doc)
        if scheme != "uncoded":
            # a general-s transcript reads back column for column too
            s3 = run(JobSpec(K=6, N=15, Q=20, r=2, s=3, T=17), SyntheticRankWorkload(seed=1),
                     scheme).transcript
            assert transcript_from_json(written(transcript_to_json(s3))) == s3
        # and the deserialized transcript still decodes
        placement = make_placement(spec)
        store = paper_workload().build_store(spec)
        _, _, verdict = decode_and_verify(placement, store, back, paper_workload())
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


# Keys and strings that a template must keep as text: a % of either kind,
# a NUL (the slot marker) and characters that need escapes.
TEMPLATE_TEXT = st.sampled_from(["%", "%s", "%%d", "\0", "a\"b\\", "\n"]) | TEXT
LEAVES = st.none() | st.booleans() | st.integers(-2 ** 200, 2 ** 200) | FLOATS | TEMPLATE_TEXT
# one column's values: all of one leaf type, cdc groups (tuples of exact ints
# from a pool small enough that a column of 2 or 3 rows repeats one), or any
# mix of leaves and small trees
CDC_GROUPS = st.sampled_from([(1, 2, 3), (2, 3, 5), (-1, 2 ** 70), ()])
COLUMN_ELEMENTS = [st.integers(-2 ** 200, 2 ** 200), TEMPLATE_TEXT, st.booleans(), FLOATS,
                   st.none(), CDC_GROUPS, st.recursive(LEAVES, lambda children: (
                       st.lists(children, max_size=2) | st.tuples(children, children)
                       | st.dictionaries(TEMPLATE_TEXT, children, max_size=2)), max_leaves=4)]


# a skeleton of nested dicts and lists, half its leaves where a slot goes
SLOT = object()
SKELETONS = st.recursive(
    st.booleans().flatmap(lambda slot: st.just(SLOT) if slot else LEAVES),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(TEMPLATE_TEXT, children, max_size=3)),
    max_leaves=8)


# a hex slot's column: exact ints, the ends and signs included
HEX_CELLS = st.sampled_from([0, 2 ** 200, -1, -2 ** 200]) | st.integers(-2 ** 200, 2 ** 200)


@st.composite
def rows_values(draw, depth: int = 2) -> Rows:
    """A ``Rows`` of 0 to 3 rows: a skeleton with constant leaves and slots,
    and one to three columns, whose values may themselves be ``Rows`` down
    to ``depth`` levels.  A column of exact ints may also fill hex slots."""
    names = draw(st.lists(TEMPLATE_TEXT, unique=True, min_size=1, max_size=3))
    hex_names = draw(st.sets(st.sampled_from(names)))

    def slotted(o):
        if o is SLOT:
            name = draw(st.sampled_from(names))
            return Slot(name, hex=name in hex_names and draw(st.booleans()))
        if isinstance(o, dict):
            return {k: slotted(v) for k, v in o.items()}
        return [slotted(v) for v in o] if isinstance(o, list) else o

    skeleton = slotted(draw(SKELETONS))
    elements = COLUMN_ELEMENTS + ([rows_values(depth - 1)] if depth else [])
    n = draw(st.sampled_from([3, 1, 2, 0]))
    columns = {}
    for name in names:
        values = HEX_CELLS if name in hex_names else draw(
            st.sampled_from(elements) | st.just(st.one_of(elements)))
        columns[name] = draw(st.lists(values, min_size=n, max_size=n))
    return Rows(skeleton, columns)


def materialised(rows: Rows) -> list:
    """The plain list of ``rows``: the skeleton filled from each row."""
    def fill(o, i: int):
        if isinstance(o, Slot):
            value = rows.columns[o.name][i]
            if o.hex:
                return f"{value:x}"
            return materialised(value) if isinstance(value, Rows) else value
        if isinstance(o, dict):
            return {k: fill(v, i) for k, v in o.items()}
        if isinstance(o, list):
            return [fill(v, i) for v in o]
        return o
    n = len(next(iter(rows.columns.values()), ()))
    return [fill(rows.skeleton, i) for i in range(n)]


class TestRows:
    """A ``Rows`` value writes as ``json.dumps`` writes the list of its rows,
    at any depth of the document."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(rows=rows_values(), depth=st.integers(0, 3))
    def test_matches_stdlib_json_of_the_rows(self, rows, depth):
        doc, plain = rows, materialised(rows)
        for level in range(depth):
            doc, plain = ({"%d": doc}, {"%d": plain}) if level % 2 else ([doc, 0], [plain, 0])
        assert dump_json(doc) == stdlib_json(plain)

    def test_rows_across_chunks(self):
        # more rows than one chunk joins, with a nested value in every row
        rows = Rows({"i": Slot("i"), "pair": Slot("pair"), "kind": "x"},
                    {"i": list(range(600)), "pair": [(i, [i]) for i in range(600)]})
        assert dump_json({"rows": rows}) == stdlib_json({"rows": materialised(rows)})

    @pytest.mark.parametrize("column", [
        [(1, 2), (True, 2), (1.0, 2), (1, 2), (2, 1)],
        [(1, [2]), (1, [2])],
    ], ids=["equal-keys", "unhashable"])
    def test_tuple_column_renders_each_cell_as_json(self, column):
        # (1, 2), (True, 2) and (1.0, 2) are one dict key but three texts
        rows = Rows({"group": Slot("group")}, {"group": column})
        assert dump_json({"rows": rows}) == stdlib_json({"rows": materialised(rows)})

    def test_cdc_groups_render_once_each(self, monkeypatch):
        # the general-s cdc fixture names 154 groups across 2 128 broadcasts
        tuples = []
        text = cdcsim.engine._text

        def counted(o, *args):
            if type(o) is tuple:
                tuples.append(o)
            return text(o, *args)

        spec = JobSpec(K=8, N=224, Q=56, r=3, s=3, T=64)
        desc = {"kind": "synthetic", "seed": 1}
        doc = fixture_to_json(run(spec, build_workload(desc, spec), "cdc"), desc)
        groups = doc["transcript"]["broadcasts"].columns["group"]
        monkeypatch.setattr(cdcsim.engine, "_text", counted)
        dump_json(doc)
        assert (len(groups), len(tuples)) == (2128, 154)
        assert tuples == list(dict.fromkeys(groups))

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="expected one length"):
            dump_json(Rows({"a": Slot("a"), "b": Slot("b")}, {"a": [1, 2], "b": [3]}))

    def test_slot_that_names_no_column_is_refused(self):
        rows = Rows({"a": Slot("a"), "b": [Slot("y")]}, {"a": [1, 2], "b": [3, 4]})
        message = "Rows slot 'y' names no column, expected one of ['a', 'b']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dump_json({"rows": rows})

    @pytest.mark.parametrize("column", [[True, False], [1, True], ["a", "b"], [1.5, 2.0]],
                             ids=["bool", "int-and-bool", "str", "float"])
    def test_hex_slot_over_other_than_exact_ints_is_refused(self, column):
        rows = Rows({"hex": Slot("hex", hex=True)}, {"hex": column})
        with pytest.raises(TypeError, match="^hex slot 'hex' over a column of .*expected exact ints$"):
            dump_json(rows)

    @pytest.mark.parametrize("cell", [Slot("x"), [1, {"b": Slot("x", hex=True)}]],
                             ids=["slot", "nested-slot"])
    def test_slot_in_a_column_cell_is_json_type_error(self, cell):
        # json's own wording, as for a Slot anywhere else outside a skeleton
        with pytest.raises(TypeError, match="^Object of type Slot is not JSON serializable$"):
            dump_json(Rows({"a": Slot("a")}, {"a": [cell]}))

    @pytest.mark.parametrize("scheme", ["uncoded", "cdc-ld"])
    def test_hex_slots_take_the_transcripts_own_values(self, scheme):
        spec = JobSpec(K=10, N=120, Q=360, r=3, s=1, T=64)
        transcript = run(spec, SyntheticRankWorkload(seed=1), scheme).transcript
        values = transcript.broadcasts.values
        tracemalloc.start()
        try:
            doc = transcript_to_json(transcript)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = {"bits": Slot("bits"), "hex": Slot("hex", hex=True)}
        rows = doc["broadcasts"]
        if scheme == "uncoded":
            assert rows.skeleton["payloads"] == [payload]
            assert rows.columns["hex"] is values
        else:
            nested = rows.columns["payloads"]
            assert all(p.skeleton == payload for p in nested)
            assert list(chain.from_iterable(p.columns["hex"] for p in nested)) == values
        # one hex string per payload would take more than all of this
        assert peak < sum(sys.getsizeof(f"{value:x}") for value in values) / 4, peak


# values json rejects, alone or after a sibling that it writes; the Fraction
# key sorts among int keys, and json rejects it only when it reaches it; a
# Slot outside a Rows skeleton is not JSON either
UNWRITABLE = st.sampled_from([
    {1, 2}, b"ab", Gf2Matrix((3,), 2), {(1, 2): 0}, {1: "a", "b": 2},
    {1: [0, {2}], Fraction(3, 2): 0}, {0: "a", Fraction(1, 2): {3}},
    Slot("x"), {"a": [Slot("x", hex=True)]}])


class TestWriteJson:
    """``write_json`` passes a file the text ``dump_json`` returns, piece by
    piece."""

    @staticmethod
    def written_to_file(obj) -> str:
        out = io.StringIO()
        write_json(obj, out)
        return out.getvalue()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(obj=JSON_TREES | rows_values())
    def test_writes_what_dump_json_returns(self, obj):
        assert self.written_to_file(obj) == dump_json(obj)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(before=st.lists(JSON_TREES, max_size=2), bad=UNWRITABLE,
           after=st.lists(JSON_TREES | UNWRITABLE, max_size=2))
    def test_raises_json_own_type_error(self, before, bad, after):
        obj = before + [bad] + after
        with pytest.raises(TypeError) as expected:
            stdlib_json(obj)
        for render in (dump_json, self.written_to_file):
            with pytest.raises(TypeError) as got:
                render(obj)
            assert str(got.value) == str(expected.value)

    def test_file_write_peak_memory(self):
        # the paper-fig4 uncoded fixture document, 30 240 broadcasts as rows
        # and about 7.5 MB of text, goes to the file a chunk of rows at a
        # time; rendered as one string it peaks near 15 MB
        spec = JobSpec(K=10, N=120, Q=360, r=3, s=1, T=64)
        transcript = run_uncoded_shuffle(make_placement(spec),
                                         SyntheticRankWorkload(seed=1).build_store(spec))
        doc = {"workload": {"kind": "synthetic", "seed": 1},
               "transcript": transcript_to_json(transcript)}
        assert len(doc["transcript"]["broadcasts"].columns["sender"]) == 30_240
        with open(os.devnull, "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                write_json(doc, fh)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 1_000_000


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

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(texts=st.lists(st.text("0123456789abcdefABCDEFxX_ +-\t\u0663\u0669", max_size=6)
                          .filter(lambda t: _int16(t) is not None and _int16(t) >= 0),
                          min_size=1, max_size=3))
    def test_reader_accepts_exactly_canonical_payloads(self, texts):
        # the reader compares all payloads' hex joined, so a digit one payload
        # lacks must not be made up by another's extra character
        spec = {"K": 4, "N": 6, "Q": 4, "r": 2, "s": 1, "T": 24}
        obj = {"scheme": "uncoded", "spec": spec, "broadcasts": [
            {"sender": 1, "kind": "uncoded", "meta": {"q": 1, "n": 1},
             "payloads": [{"bits": 24, "hex": text} for text in texts]}]}
        bad = next((text for text in texts if text != f"{int(text, 16):x}"), None)
        if bad is None:
            assert transcript_from_json(obj).broadcasts.values == [int(t, 16) for t in texts]
        else:
            message = f"broadcast 0: payload hex {bad!r} is not written as"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                transcript_from_json(obj)
