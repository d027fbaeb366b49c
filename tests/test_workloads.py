"""Workload generators and their intermediate-value stores."""

from __future__ import annotations

import io
import random
import tracemalloc
from itertools import product

import pytest

from cdcsim.gf2 import Gf2Matrix, rank_and_basis
from cdcsim.placement import JobSpec
from cdcsim.workloads import (
    CodedLinearTransformWorkload,
    CountOverflowError,
    LinearTransformWorkload,
    SyntheticRankWorkload,
    WordCountWorkload,
    ingest_text,
    load_gf2_sections,
    lintrans_from_file,
)
from corpora import write_corpus, zipf_text
from oracles import int_to_bits, naive_dot, naive_ingest_text, naive_wordcount_map, recount

PAPER_TEXT = "1212231 2111121 2312131 3112132 1131414 1141231"
PAPER_BLOCKS = (
    (1, 2, 1, 2, 2, 3, 1),
    (2, 1, 1, 1, 1, 2, 1),
    (2, 3, 1, 2, 1, 3, 1),
    (3, 1, 1, 2, 1, 3, 2),
    (1, 1, 3, 1, 4, 1, 4),
    (1, 1, 4, 1, 2, 3, 1),
)


def paper_spec(T=6):
    return JobSpec(K=4, N=6, Q=4, r=2, s=1, T=T)


class TestWordCount:
    def test_paper_counts(self):
        store = WordCountWorkload(PAPER_BLOCKS).build_store(paper_spec())
        assert store[(1, 1)] == 3
        assert store[(1, 2)] == 5
        assert store[(1, 3)] == 3
        assert store[(2, 3)] == 2
        assert store[(3, 3)] == 2
        assert store[(4, 1)] == 0
        assert store[(4, 2)] == 0

    def test_empty_block_counts_zero(self):
        w = WordCountWorkload(((1, 2), (), (2,)))
        store = w.build_store(JobSpec(K=3, N=3, Q=3, r=1, s=1, T=4))
        for q in (1, 2, 3):
            assert store[(q, 2)] == 0

    def test_overflow_is_an_error(self):
        w = WordCountWorkload(((1, 1, 1, 1),),)
        with pytest.raises(CountOverflowError):
            w.build_store(JobSpec(K=2, N=1, Q=2, r=2, s=1, T=2))

    def test_bad_symbol(self):
        w = WordCountWorkload(((1, 9),),)
        with pytest.raises(ValueError, match="symbol"):
            w.build_store(JobSpec(K=2, N=1, Q=2, r=2, s=1, T=4))

    def test_block_count_mismatch(self):
        with pytest.raises(ValueError, match="blocks"):
            WordCountWorkload(PAPER_BLOCKS).build_store(JobSpec(K=4, N=12, Q=4, r=2, s=1, T=6))

    def test_conservation_random_texts(self):
        # placement is irrelevant here; K=2, r=2, s=2 keeps any (N, Q) valid
        rng = random.Random(11)
        for _ in range(20):
            Q, N = rng.randint(1, 5), rng.randint(1, 6)
            symbols = [rng.randint(1, Q) for _ in range(rng.randint(1, 60))]
            w = WordCountWorkload.from_symbols(symbols, N)
            store = w.build_store(JobSpec(K=2, N=N, Q=Q, r=2, s=2, T=8))
            for q in range(1, Q + 1):
                total = sum(store[(q, n)] for n in range(1, N + 1))
                assert total == recount([list(b) for b in w.blocks], q)


def _ingest_string(text, Q, N, tokenizer="word"):
    """``ingest_text`` over an in-memory text."""
    return ingest_text(io.StringIO(text), Q, N, tokenizer=tokenizer)


class TestIngest:
    def test_paper_digit_sequence(self):
        # the digits keep their own numbers ("1" is the most frequent), and
        # every digit is kept
        w = _ingest_string(PAPER_TEXT, 4, 6, tokenizer="char")
        assert w.blocks == PAPER_BLOCKS
        assert sum(map(len, w.blocks)) == len(PAPER_TEXT.replace(" ", "")) == 42

    def test_frequency_rank_with_ties(self):
        # equal counts break lexicographically: a is 1, b is 2, c is dropped
        w = _ingest_string("b a b a c", 2, 1)
        assert w.blocks == ((2, 1, 2, 1),)

    def test_single_token_conservation(self):
        w = _ingest_string("x x x x x", 1, 2)
        spec = JobSpec(K=2, N=2, Q=1, r=1, s=2, T=4)
        store = w.build_store(spec)
        assert store[(1, 1)] + store[(1, 2)] == 5

    def test_two_token_block_sums(self):
        text = "a b a a b a b b a a a b"
        w = _ingest_string(text, 2, 3)
        spec = JobSpec(K=3, N=3, Q=3, r=1, s=1, T=5)
        # pad vocabulary: Q=3 > vocab, fine -- counts for symbol 3 are zero
        store = w.build_store(spec)
        for n, block in enumerate(w.blocks, start=1):
            total = sum(store[(q, n)] for q in (1, 2, 3))
            assert total == len(block)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            _ingest_string("   ", 2, 2)

    def test_bad_q(self):
        with pytest.raises(ValueError):
            _ingest_string("a b", 0, 1)

    def test_bad_tokenizer(self):
        with pytest.raises(ValueError, match="tokenizer"):
            _ingest_string("a b", 1, 1, tokenizer="sentence")

    def test_ingest_from_path(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat on the mat the end", encoding="utf-8")
        w = ingest_text(corpus, Q=2, N=2)
        # three "the" are 1, and the runner-up "cat" (first of five ties) is 2
        assert w.blocks == ((1, 2), (1, 1))


def _outcome(fn, *args, **kwargs):
    """A function's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def _edge_corpus() -> str:
    """Words under every kind of whitespace the tokenizers split on, runs of
    blank lines, one line longer than a 64 KiB read, and no trailing newline."""
    words = zipf_text(3, 30_000, 150).split()
    words[10:10] = ["\u00e9t\u00e9", "\u65e5\u672c", "na\u00efve"]
    seps = [" ", "\t", "\r\n", "\r", "\x0c", "\x85", "\u2028", "\x1e", "\n\n\n\n", " \t\r\n\n"]
    head = "".join(w + seps[i % len(seps)] for i, w in enumerate(words[:3000]))
    long_line = " ".join(words[3000:25_000])
    assert len(long_line) > 1 << 16
    return head + long_line + "\n\n\n" + "\t".join(words[25_000:])


class TestStreamingIngest:
    """Streaming ingest and the one-pass map against the former implementations."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        text = _edge_corpus()
        path = tmp_path_factory.mktemp("corpus") / "edge.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)  # keep every \r as written
        return text, path

    @pytest.mark.parametrize("tokenizer", ["word", "char"])
    @pytest.mark.parametrize("Q", [1, 40, 100_000])
    def test_matches_whole_corpus_oracle(self, corpus, tokenizer, Q):
        text, path = corpus
        want = naive_ingest_text(path, Q, 7, tokenizer=tokenizer)
        vocab = set(text.split() if tokenizer == "word" else "".join(text.split()))
        assert len(vocab) > 1
        # the kept symbols are 1..min(Q, vocabulary), each at least once
        assert set().union(*want.blocks) == set(range(1, min(Q, len(vocab)) + 1))
        assert ingest_text(path, Q, 7, tokenizer=tokenizer) == want
        assert _ingest_string(text, Q, 7, tokenizer=tokenizer) == want
        assert naive_ingest_text(io.StringIO(text), Q, 7, tokenizer=tokenizer) == want
        with open(path, encoding="utf-8", newline="") as fh:  # a stream that sees raw \r
            assert ingest_text(fh, Q, 7, tokenizer=tokenizer) == want
            assert not fh.closed

    @pytest.mark.parametrize("text", ["", "\n\n\r\n", "\x85\u2028 \t"])
    @pytest.mark.parametrize("tokenizer", ["word", "char", "sentence"])
    def test_errors_match_oracle(self, text, tokenizer):
        want = _outcome(naive_ingest_text, io.StringIO(text), 2, 1, tokenizer=tokenizer)
        assert _outcome(_ingest_string, text, 2, 1, tokenizer=tokenizer) == want
        assert _outcome(_ingest_string, text + "a", 0, 1, tokenizer=tokenizer) == _outcome(
            naive_ingest_text, io.StringIO(text + "a"), 0, 1, tokenizer=tokenizer)

    def test_map_matches_rescan_oracle(self):
        # placement is irrelevant here; K=2, r=2, s=2 keeps any (N, Q) valid
        rng = random.Random(29)
        kinds = set()
        for _ in range(400):
            Q, N, T = rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 4)
            low, high = (-1, Q + 2) if rng.random() < 0.2 else (1, Q)
            w = WordCountWorkload(tuple(
                tuple(rng.randint(low, high) for _ in range(rng.randint(0, 12)))
                for _ in range(N)))
            spec = JobSpec(K=2, N=N, Q=Q, r=2, s=2, T=T)
            want = _outcome(naive_wordcount_map, w, spec)
            got = _outcome(w.build_store, spec)
            if isinstance(want, tuple):
                assert got == want
                kinds.add(want[0])
            else:
                # the oracle's dict is n-major; the table is q-major
                assert dict(got) == want
                assert list(got) == list(product(range(1, Q + 1), range(1, N + 1)))
                kinds.add("store")
        assert kinds == {"store", ValueError, CountOverflowError}

    def test_ingest_peak_memory(self, tmp_path):
        # a whole-corpus read that keeps every token as a string peaks near 23 MB on this corpus
        corpus = tmp_path / "corpus.txt"
        write_corpus(corpus, seed=12, tokens=300_000, vocab=5000)
        tracemalloc.start()
        try:
            ingest_text(corpus, Q=120, N=300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestLinearTransform:
    def lt_spec(self):
        # K=Q=4, T=4 => 16-row matrix
        return JobSpec(K=4, N=6, Q=4, r=2, s=1, T=4)

    def test_zero_input_maps_to_zero(self):
        spec = self.lt_spec()
        rng = random.Random(2)
        matrix = Gf2Matrix(tuple(rng.getrandbits(8) for _ in range(16)), 8)
        inputs = Gf2Matrix((0,) * 6, 8)
        store = LinearTransformWorkload(matrix, inputs).build_store(spec)
        assert all(v == 0 for v in store.values())

    def test_identity_blocks_slice_input(self):
        spec = self.lt_spec()
        matrix = Gf2Matrix(tuple(1 << i for i in range(16)), 16)
        rng = random.Random(3)
        inputs = Gf2Matrix(tuple(rng.getrandbits(16) for _ in range(6)), 16)
        store = LinearTransformWorkload(matrix, inputs).build_store(spec)
        for q in range(1, 5):
            for n, x in enumerate(inputs.rows, start=1):
                assert store[(q, n)] == x >> (q - 1) * 4 & 0xf

    def test_matches_naive_dot_oracle(self):
        spec = self.lt_spec()
        w = LinearTransformWorkload.random(16, 16, 6, seed=17)
        store = w.build_store(spec)
        for q in range(1, 5):
            for n in range(1, 7):
                x_bits = int_to_bits(w.inputs.rows[n - 1], 16)
                got = store[(q, n)]
                for i in range(4):
                    row_bits = int_to_bits(w.matrix.rows[(q - 1) * 4 + i], 16)
                    assert (got >> i) & 1 == naive_dot(row_bits, x_bits)

    def test_linearity(self):
        spec = self.lt_spec()
        rng = random.Random(23)
        matrix = Gf2Matrix(tuple(rng.getrandbits(10) for _ in range(16)), 10)
        xs = Gf2Matrix(tuple(rng.getrandbits(10) for _ in range(6)), 10)
        ys = Gf2Matrix(tuple(rng.getrandbits(10) for _ in range(6)), 10)
        both = Gf2Matrix(tuple(a ^ b for a, b in zip(xs.rows, ys.rows)), 10)
        sa = LinearTransformWorkload(matrix, xs).build_store(spec)
        sb = LinearTransformWorkload(matrix, ys).build_store(spec)
        sc = LinearTransformWorkload(matrix, both).build_store(spec)
        for key in sc:
            assert sc[key] == sa[key] ^ sb[key]

    def test_dimension_mismatch(self):
        spec = self.lt_spec()
        w = LinearTransformWorkload.random(20, 8, 6, seed=1)  # 20 rows not divisible into 4 blocks of T=4
        with pytest.raises(ValueError):
            w.build_store(spec)

    def test_input_width_mismatch(self):
        spec = self.lt_spec()
        w = LinearTransformWorkload(Gf2Matrix((0,) * 16, 8), Gf2Matrix((0,) * 6, 9))
        with pytest.raises(ValueError, match="input vectors of length 9, matrix has 8 columns"):
            w.build_store(spec)


class TestCodedLinearTransform:
    def test_parity_block_always_cancels(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=4)
        w = LinearTransformWorkload.random(16, 12, 6, seed=5)
        store = CodedLinearTransformWorkload(w).build_store(spec)
        for n in range(1, 7):
            acc = store[(4, n)]
            for k in (1, 2, 3):
                acc ^= store[(k, n)]
            assert acc == 0

    def test_zero_matrix(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=4)
        w = LinearTransformWorkload(Gf2Matrix((0,) * 16, 8),
                                    Gf2Matrix(tuple(i + 1 for i in range(6)), 8))
        store = CodedLinearTransformWorkload(w).build_store(spec)
        assert all(v == 0 for v in store.values())

    def test_per_file_rank_deficient(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=8)
        w = LinearTransformWorkload.random(32, 16, 6, seed=9)
        store = CodedLinearTransformWorkload(w).build_store(spec)
        for n in range(1, 7):
            m = Gf2Matrix(tuple(store[(k, n)] for k in range(1, 5)), spec.T)
            assert rank_and_basis(m).rho <= 3


class TestSynthetic:
    def test_deterministic_given_seed(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=16)
        a = SyntheticRankWorkload(seed=42).build_store(spec)
        b = SyntheticRankWorkload(seed=42).build_store(spec)
        assert a == b

    def test_duplicate_prob_one_collapses(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=16)
        store = SyntheticRankWorkload(seed=1, duplicate_prob=1.0).build_store(spec)
        distinct = set(store.values())
        assert len(distinct) == 1

    def test_duplicate_prob_zero_mostly_distinct(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=64)
        store = SyntheticRankWorkload(seed=1, duplicate_prob=0.0).build_store(spec)
        distinct = set(store.values())
        assert len(distinct) == len(store)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            SyntheticRankWorkload(seed=0, duplicate_prob=1.5)

    @pytest.mark.parametrize("duplicate_prob", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("T", [6, 64])
    def test_bytes_match_per_value_loop(self, T, duplicate_prob):
        # the reference pools every draw; at duplicate_prob 0 the generator
        # keeps only the first, which must leave every value the same
        for seed in (0, 1, 7):
            for spec in (JobSpec(K=4, N=6, Q=4, r=2, s=1, T=T),
                         JobSpec(K=5, N=20, Q=15, r=2, s=1, T=T)):
                rng, pool, data = random.Random(seed), [], b""
                for _ in range(spec.Q * spec.N):
                    if pool and rng.random() < duplicate_prob:
                        value = rng.choice(pool)
                    else:
                        value = rng.getrandbits(T)
                        pool.append(value)
                    data += value.to_bytes((T + 7) // 8, "little")
                store = SyntheticRankWorkload(seed, duplicate_prob).build_store(spec)
                assert store.data == data


def write_gf2_sections(path, sections):
    with open(path, "w", encoding="utf-8") as fh:
        for name, m in sections.items():
            fh.write(f"gf2mat {name} {m.nrows} {m.ncols}\n")
            for row in m.rows:
                fh.write(f"{row:x}\n")


def test_gf2_sections_roundtrip(tmp_path):
    rng = random.Random(8)
    a = Gf2Matrix(tuple(rng.getrandbits(12) for _ in range(5)), 12)
    x = Gf2Matrix(tuple(rng.getrandbits(12) for _ in range(3)), 12)
    path = tmp_path / "mats.txt"
    write_gf2_sections(path, {"A": a, "X": x})
    back = load_gf2_sections(path)
    assert back == {"A": a, "X": x}
    w = lintrans_from_file(path)
    assert w.matrix == a and w.inputs == x


def test_gf2_sections_truncated(tmp_path):
    path = tmp_path / "mats.txt"
    path.write_text("gf2mat X 1 4\n3\ngf2mat A 3 4\n1\n2\n")
    with pytest.raises(ValueError, match="section 'A'"):
        load_gf2_sections(path)
