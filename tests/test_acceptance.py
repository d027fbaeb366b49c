"""Acceptance suite: one test per release criterion, exact tolerances.

Every assertion here is an integer or exact-rational equality (or a strict
inequality); nothing is checked "approximately".  Run with ``-v -s`` to see
one pass line per criterion.
"""

from __future__ import annotations

import io
import random
import time
from fractions import Fraction
from math import comb, lcm

import numpy as np
from cdcsim.analytics import (
    GENERAL_S_FLAG,
    average_rank,
    build_load_report,
    fig2_table,
    fmt12,
    l_cdc,
    l_cdc_ld,
    l_cdc_ld_accounting,
    l_uncoded,
    tradeoff_sweep,
)
from cdcsim.cli import main
from cdcsim.codec import decode_cdc_s1, full_message, groups_containing, ld_compress
from cdcsim.engine import run, run_cdc_ld_shuffle, validate_transcript
from cdcsim.gf2 import Gf2Matrix, ext_field, rank_and_basis, reconstruct
from cdcsim.placement import JobSpec, make_placement
from cdcsim.workloads import (
    CodedLinearTransformWorkload,
    LinearTransformWorkload,
    SyntheticRankWorkload,
    WordCountWorkload,
    ingest_text,
)
from oracles import int_to_bits, naive_rank

PAPER_TEXT = "1212231 2111121 2312131 3112132 1131414 1141231"


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS - {detail}")


def test_criterion_1_paper_wordcount_golden():
    workload = ingest_text(io.StringIO(PAPER_TEXT), 4, 6, tokenizer="char")

    spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
    store = workload.build_store(spec)
    assert store.join((1,), 1, 1) == 3
    assert store.join((1,), 2, 1) == 5
    assert store.join((1,), 3, 1) == 3
    assert store.join((2,), 3, 1) == 2 == store.join((3,), 3, 1)
    assert store.join((4,), 1, 1) == 0 == store.join((4,), 2, 1)

    placement = make_placement(spec)
    messages = [full_message(1, g, placement, store)
                for g in groups_containing(spec, 1, 3)]
    assert len(messages) == 3
    assert messages[1] == messages[2] and messages[0] != messages[1]

    assert ld_compress(3, messages, spec).rho == 2

    # per-node bit cost at a few value lengths: T+6 compressed vs 3T/2 plain
    for T in (30, 60, 1000):
        spec_t = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=T)
        ld = run(spec_t, workload, "cdc-ld")
        plain = run(spec_t, workload, "cdc")
        assert ld.bits_by_node[1] == T + 6
        assert plain.bits_by_node[1] == 3 * T // 2
        assert ld.verification == "pass" and plain.verification == "pass"

    # total-load crossover at T=12 under rank 2, strict win beyond it
    assert l_cdc_ld(2, 1, 4, 4, 6, 12, {3: 2}) == l_cdc(2, 1, 4) == Fraction(1, 4)
    for T in (14, 20, 64, 1024):
        for rho in (Fraction(1), Fraction(3, 2), Fraction(2)):
            assert l_cdc_ld(2, 1, 4, 4, 6, T, {3: rho}) < Fraction(1, 4)
    report(1, "counts, equal payloads, rank 2, T+6 vs 3T/2, crossover at T=12")


def test_criterion_2_load_formula_equivalence():
    checked = 0
    for K in (3, 4, 5, 6):
        N = lcm(*(comb(K, r) for r in range(1, K + 1)))
        Q, T = K, 12
        for r in range(1, K + 1):
            spec = JobSpec(K=K, N=N, Q=Q, r=r, s=1, T=T)
            workload = SyntheticRankWorkload(seed=100 + 10 * K + r, duplicate_prob=0.3)

            uncoded = run(spec, workload, "uncoded")
            assert uncoded.load_empirical == l_uncoded(r, K)

            cdc = run(spec, workload, "cdc")
            assert cdc.load_empirical == l_cdc(r, 1, K) == Fraction(1, r) * (1 - Fraction(r, K))

            ld = run(spec, workload, "cdc-ld")
            rho = average_rank(ld.transcript.ranks(), K)
            assert ld.load_empirical == l_cdc_ld(r, 1, K, Q, N, T, rho)

            for result in (uncoded, cdc, ld):
                assert result.verification == "pass"
            checked += 1
    report(2, f"uncoded/cdc/cdc-ld empirical == closed forms on {checked} (K, r) specs")


def _random_case(rng: random.Random):
    while True:
        K = rng.choice((3, 4, 5, 6))
        r = rng.randint(1, K)
        eta1 = rng.choice((1, 2))
        eta2 = rng.choice((1, 2))
        T = rng.choice((4, 6, 8, 12, 16))
        N = comb(K, r) * eta1
        Q = K * eta2
        kind = rng.choice(("synthetic", "wordcount", "lintrans", "coded-lintrans"))
        if kind == "coded-lintrans" and eta2 != 1:
            continue
        spec = JobSpec(K=K, N=N, Q=Q, r=r, s=1, T=T)
        seed = rng.randint(0, 10**6)
        if kind == "synthetic":
            workload = SyntheticRankWorkload(seed=seed, duplicate_prob=rng.choice((0.0, 0.5, 1.0)))
        elif kind == "wordcount":
            wl_rng = random.Random(seed)
            symbols = [wl_rng.randint(1, Q) for _ in range(rng.randint(0, 4 * N))]
            workload = WordCountWorkload.from_symbols(symbols, N)
        elif kind == "lintrans":
            workload = LinearTransformWorkload.random(Q * T, rng.choice((8, 16)), N, seed)
        else:
            workload = CodedLinearTransformWorkload(
                LinearTransformWorkload.random(Q * T, rng.choice((8, 16)), N, seed))
        return spec, workload


def test_criterion_3_end_to_end_randomized():
    rng = random.Random(20260810)
    cases = 0
    for _ in range(100):
        spec, workload = _random_case(rng)
        store = workload.build_store(spec)
        # the single-machine reduce of every function, from the store
        reference = {q: workload.reduce(q, store.row(q), spec.T) for q in range(1, spec.Q + 1)}
        for scheme in ("uncoded", "cdc", "cdc-ld"):
            result = run(spec, workload, scheme)
            assert result.verification == "pass", (spec, scheme)
            assert result.mismatch is None
            for out in result.outputs.values():
                for q, v in out.items():
                    assert v == reference[q]
            if scheme == "cdc-ld":
                # compress -> decompress -> decode recovered the exact bits,
                # read from the node-by-node decoding the run verified with
                placement = make_placement(spec)
                got = validate_transcript(placement, result.transcript)
                for k in range(1, spec.K + 1):
                    # node k's functions on every file, its needed values
                    # among them, each bit for bit
                    assert decode_cdc_s1(k, got, store, placement) == [
                        store.join((q,), n, 1) for q in placement.node_funcs[k]
                        for n in range(1, spec.N + 1)]
        cases += 1
    assert cases >= 100
    report(3, f"{cases} randomized specs: all schemes match the reference bit-exactly")


def test_criterion_4_fig2_reproduction():
    t0 = time.time()
    rows = fig2_table(K=16, Q=16, N=128, m=2048, q=2)
    elapsed = time.time() - t0
    assert [row.r for row in rows] == list(range(1, 16))
    for row in rows:
        holds = row.msg_len_bits < row.count_paper
        assert holds == (2 <= row.r <= 14), row
    assert elapsed < 1.0
    report(4, f"length<count exactly for r in 2..14 and not r in (1, 15); {elapsed:.3f}s")


def test_criterion_5_fig4_reproduction():
    rows = tradeoff_sweep(10, 360, 2520, 64, range(1, 10), rho_model="full-rank")
    assert [row.r for row in rows] == list(range(1, 10))
    for row in rows:
        assert row.l_uncoded == 1 - Fraction(row.r, 10)
        assert row.l_cdc == Fraction(1, row.r) * (1 - Fraction(row.r, 10))
        # CSV rendering is the 12-digit image of the exact value
        assert fmt12(row.l_cdc) == f"{float(row.l_cdc):.12g}"

    # declared-rank substitute property: closed form equals engine bit count
    # with the measured rank, at the sweep's own parameters
    spec = JobSpec(K=10, N=2520, Q=360, r=5, s=1, T=64)
    store = SyntheticRankWorkload(seed=4).build_store(spec)
    transcript = run_cdc_ld_shuffle(make_placement(spec), store)
    load = Fraction(sum(transcript.bits_by_node().values()), spec.Q * spec.N * spec.T)
    rho_avg = average_rank(transcript.ranks(), 10)
    assert load == l_cdc_ld(5, 1, 10, 360, 2520, 64, rho_avg)
    report(5, "uncoded/cdc columns exact for r=1..9; measured-rank run matches closed form")


def test_criterion_6_gf2_kernel_properties():
    rng = random.Random(606)

    for _ in range(1000):
        nrows = rng.randint(1, 64)
        ncols = rng.randint(1, 256)
        values = []
        for _ in range(nrows):
            if values and rng.random() < 0.35:
                dep = 0
                for pick in rng.sample(values, rng.randint(1, min(4, len(values)))):
                    dep ^= pick
                values.append(dep)
            else:
                values.append(rng.getrandbits(ncols))
        m = Gf2Matrix(tuple(values), ncols)
        assert reconstruct(rank_and_basis(m)) == m

    for n in range(1, 33):
        values = [rng.getrandbits(n) for _ in range(n)]
        ours = rank_and_basis(Gf2Matrix(tuple(values), n)).rho
        assert ours == naive_rank([int_to_bits(v, n) for v in values])

    for lam in range(1, 9):
        f = ext_field(lam)
        order = f.order
        table = np.zeros((order, order), dtype=np.uint16)
        for a in range(order):
            for b in range(order):
                table[a, b] = f.mul(a, b)
        idx = np.arange(order, dtype=np.intp)
        A, B, C = np.meshgrid(idx, idx, idx, indexing="ij", sparse=True)
        assert (table[table[A, B], C] == table[A, table[B, C]]).all()
        assert (table[A, B ^ C] == (table[A, B] ^ table[A, C])).all()
        for a in range(1, order):
            assert f.mul(a, f.pow(a, order - 2)) == 1
    report(6, "1000 roundtrips, rank oracle to n=32, field axioms exhaustive to degree 8")


def test_criterion_7_general_s_accounting():
    spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
    workload = SyntheticRankWorkload(seed=9, duplicate_prob=0.4)

    cdc_run = run(spec, workload, "cdc")
    cdc = build_load_report(cdc_run)
    assert cdc_run.load_empirical == l_cdc(2, 2, 4) == Fraction(4, 9)
    assert cdc.deviation == 0

    ld_run = run(spec, workload, "cdc-ld")
    ld = build_load_report(ld_run)
    published = l_cdc_ld(2, 2, 4, 6, 6, 8, ld.rho_by_ell)
    accounting = l_cdc_ld_accounting(2, 2, 4, 6, 6, 8, ld.rho_by_ell)
    matches = {"published": ld_run.load_empirical == published,
               "accounting": ld_run.load_empirical == accounting}
    assert any(matches.values())            # exact agreement with >= 1 reading
    assert matches["accounting"] and not matches["published"]
    assert "K/C(K,s)" in ld.notes == GENERAL_S_FLAG  # the factor question is flagged
    assert ld.load_analytic_alt == ld_run.load_empirical

    # a second, larger multi-copy configuration
    spec2 = JobSpec(K=5, N=10, Q=10, r=2, s=2, T=8)
    cdc2_run = run(spec2, workload, "cdc")
    cdc2 = build_load_report(cdc2_run)
    assert cdc2_run.load_empirical == l_cdc(2, 2, 5)
    assert cdc2.deviation == 0
    report(7, "s=2 encoder bits match one closed-form reading exactly; factor flagged")


def test_criterion_8_determinism(tmp_path):
    pairs = [
        (["run", "--preset", "paper-wordcount", "--scheme", "cdc-ld", "--T", "30"],
         ("result.json", "loads.csv")),
        (["sweep", "--preset", "fig3", "--rho", "2"], ("fig3.csv", "fig3.meta.json")),
        (["sweep", "--preset", "fig2"], ("fig2.csv",)),
        (["fixture", "--preset", "paper-wordcount"],
         ("fixture-uncoded.json", "fixture-cdc.json", "fixture-cdc-ld.json")),
    ]
    for i, (argv, artifacts) in enumerate(pairs):
        a = tmp_path / f"a{i}"
        b = tmp_path / f"b{i}"
        assert main(argv + ["--out-dir", str(a)]) == 0
        assert main(argv + ["--out-dir", str(b)]) == 0
        for name in artifacts:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    report(8, "every preset rerun is byte-identical across CSV/JSON artifacts")
