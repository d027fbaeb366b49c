"""Workload generators: map inputs to T-bit intermediate values.

Three families are provided: symbol counting over a block-partitioned
sequence, GF(2) linear transforms (plain and with a parity-coded row block),
and a synthetic generator with tunable value duplication for rank
experiments.  Each workload builds the full store, a dict from (q, n) to a
T-bit value held as an int, and knows how to reduce a function's values, so
end-to-end runs can be checked against a single-machine reference.
"""

from __future__ import annotations

import io
import os
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import filterfalse
from typing import Sequence, TextIO

from .gf2 import BitVec
from .placement import JobSpec


class CountOverflowError(ValueError):
    """A symbol count does not fit in T bits; never silently wrapped."""


# (q, n) -> the T-bit intermediate value of function q on file n
Store = dict[tuple[int, int], int]


def checked_store(spec: JobSpec, values: Store) -> Store:
    """``values`` once it holds Q*N entries, each a T-bit value."""
    expected = spec.Q * spec.N
    if len(values) != expected:
        raise ValueError(f"store has {len(values)} entries, expected Q*N={expected}")
    for (q, n), v in values.items():
        if v < 0 or v >> spec.T:
            raise ValueError(f"value ({q},{n}) 0x{v:x} does not fit in T={spec.T} bits")
    return values


@dataclass(frozen=True)
class WordCountWorkload:
    """A symbol sequence over {1..Q} split into N blocks; counts per block."""

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_symbols(cls, symbols: Sequence[int], n_blocks: int) -> "WordCountWorkload":
        if n_blocks < 1:
            raise ValueError("need at least one block")
        size = -(-len(symbols) // n_blocks)  # ceil; trailing blocks may be shorter or empty
        blocks = tuple(tuple(symbols[i * size:(i + 1) * size]) for i in range(n_blocks))
        return cls(blocks)

    def build_store(self, spec: JobSpec) -> Store:
        return wordcount_map(self, spec)

    def reduce(self, q: int, values: Sequence[int], T: int) -> int:
        """Total count of symbol q: the integer sum of per-block counts."""
        return sum(values)


def wordcount_map(w: WordCountWorkload, spec: JobSpec) -> Store:
    """Count symbol occurrences per block, each count a T-bit value."""
    if len(w.blocks) != spec.N:
        raise ValueError(f"workload has {len(w.blocks)} blocks, spec expects N={spec.N}")
    limit = 1 << spec.T
    values: Store = {}
    for n, block in enumerate(w.blocks, start=1):
        counts = Counter(block)
        for sym in counts:  # first occurrences, in block order
            if not 1 <= sym <= spec.Q:
                raise ValueError(f"symbol {sym} in block {n} outside 1..Q={spec.Q}")
        for q in range(1, spec.Q + 1):
            count = counts[q]
            if count >= limit:
                raise CountOverflowError(
                    f"count {count} of symbol {q} in block {n} does not fit in T={spec.T} bits"
                )
            values[(q, n)] = count
    return checked_store(spec, values)


@dataclass(frozen=True)
class IngestReport:
    """What text ingestion kept and what it dropped."""

    vocab_size: int
    kept_tokens: int
    dropped_tokens: int
    symbol_of_token: dict[str, int]


class _FirstSeenIds(dict):
    """Token -> id, where a new token gets the next id in order of first sight."""

    def __missing__(self, token: str) -> int:
        self[token] = i = len(self)
        return i


def ingest_text(source: str | os.PathLike | TextIO, Q: int, N: int,
                tokenizer: str = "word") -> tuple[WordCountWorkload, IngestReport]:
    """Turn a text corpus into a counting workload.

    Tokens are ranked by frequency (ties broken lexicographically) and the
    top Q become symbols 1..Q; everything else is dropped and tallied in the
    report.  ``tokenizer`` is "word" (whitespace-separated) or "char"
    (individual non-whitespace characters).  The kept symbols are split into
    N blocks of equal length, the last one possibly shorter.

    The corpus is read once, in blocks of whole lines, so a token never spans
    two reads; only the vocabulary is held as strings, each token occurrence
    as the int id of its first sighting.  A text stream is read, not closed.
    """
    if Q < 1:
        raise ValueError("Q must be positive")
    if tokenizer == "word":
        split = str.split
    elif tokenizer == "char":
        split = partial(filterfalse, str.isspace)
    else:
        raise ValueError(f"unknown tokenizer {tokenizer!r} (want 'word' or 'char')")
    opened = (nullcontext(source) if hasattr(source, "read")
              else open(source, "r", encoding="utf-8"))
    id_of_token = _FirstSeenIds()
    ids: list[int] = []
    with opened as fh:
        while lines := fh.readlines(1 << 16):
            ids.extend(map(id_of_token.__getitem__, split("".join(lines))))
    if not ids:
        raise ValueError("empty input: no tokens found")

    freq = Counter(ids)
    tokens = list(id_of_token)  # indexed by id
    ranked = sorted(range(len(tokens)), key=lambda i: (-freq[i], tokens[i]))[:Q]
    symbol_of_token = {tokens[i]: sym for sym, i in enumerate(ranked, start=1)}
    symbol_of_id = [0] * len(tokens)  # 0: dropped
    for sym, i in enumerate(ranked, start=1):
        symbol_of_id[i] = sym

    symbols = [sym for sym in map(symbol_of_id.__getitem__, ids) if sym]
    report = IngestReport(
        vocab_size=len(tokens),
        kept_tokens=len(symbols),
        dropped_tokens=len(ids) - len(symbols),
        symbol_of_token=symbol_of_token,
    )
    del ids  # free the per-token ids before the blocks are built
    return WordCountWorkload.from_symbols(symbols, N), report


def ingest_string(text: str, Q: int, N: int, tokenizer: str = "word"):
    """Convenience wrapper: ingest from an in-memory string."""
    return ingest_text(io.StringIO(text), Q, N, tokenizer=tokenizer)


@dataclass(frozen=True)
class LinearTransformWorkload:
    """GF(2) matrix rows plus input vectors; values are row-block products.

    The matrix is split into Q equal row blocks and function q applies block
    q, so each intermediate value is the T = nrows/Q bit product of one block
    with one input vector.  Bit i of a value is the product of block row i.
    """

    matrix: tuple[BitVec, ...]
    inputs: tuple[BitVec, ...]

    @classmethod
    def random(cls, nrows: int, ncols: int, n_inputs: int, seed: int) -> "LinearTransformWorkload":
        rng = random.Random(seed)
        matrix = tuple(BitVec(rng.getrandbits(ncols), ncols) for _ in range(nrows))
        inputs = tuple(BitVec(rng.getrandbits(ncols), ncols) for _ in range(n_inputs))
        return cls(matrix, inputs)

    @property
    def nrows(self) -> int:
        return len(self.matrix)

    @property
    def ncols(self) -> int:
        return self.matrix[0].nbits if self.matrix else 0

    def build_store(self, spec: JobSpec) -> Store:
        return lintrans_map(self, spec)

    def reduce(self, q: int, values: Sequence[int], T: int) -> BitVec:
        """Concatenate the per-input products of block q, in input order."""
        acc = 0
        for i, v in enumerate(values):
            acc |= v << i * T
        return BitVec(acc, len(values) * T)


def _matvec_block(rows: Sequence[BitVec], x: BitVec) -> int:
    value = 0
    for i, row in enumerate(rows):
        value |= ((row.value & x.value).bit_count() & 1) << i
    return value


def _check_lintrans_dims(w: LinearTransformWorkload, spec: JobSpec) -> None:
    if spec.Q % spec.K:
        raise ValueError(f"Q={spec.Q} must be a multiple of K={spec.K} for linear transforms")
    if w.nrows == 0 or w.nrows % spec.Q:
        raise ValueError(f"matrix with {w.nrows} rows cannot split into Q={spec.Q} equal blocks")
    if w.nrows // spec.Q != spec.T:
        raise ValueError(f"block height {w.nrows}/{spec.Q}={w.nrows // spec.Q} != T={spec.T}")
    if len(w.inputs) != spec.N:
        raise ValueError(f"{len(w.inputs)} input vectors, spec expects N={spec.N}")
    for x in w.inputs:
        if x.nbits != w.ncols:
            raise ValueError(f"input vector of length {x.nbits}, matrix has {w.ncols} columns")


def lintrans_map(w: LinearTransformWorkload, spec: JobSpec) -> Store:
    """value(q, n) = block q of the matrix times input vector n, over GF(2)."""
    _check_lintrans_dims(w, spec)
    T = spec.T
    values: Store = {}
    for q in range(1, spec.Q + 1):
        rows = w.matrix[(q - 1) * T:q * T]
        for n, x in enumerate(w.inputs, start=1):
            values[(q, n)] = _matvec_block(rows, x)
    return checked_store(spec, values)


def coded_lintrans_map(w: LinearTransformWorkload, spec: JobSpec) -> Store:
    """Linear transform with a parity row block: block K's values are the XOR
    of blocks 1..K-1, so the store is linearly dependent by construction.

    The matrix's own K-th row block is ignored and replaced by the XOR of the
    first K-1 blocks.
    """
    if spec.Q != spec.K:
        raise ValueError(f"parity coding requires Q == K, got Q={spec.Q}, K={spec.K}")
    _check_lintrans_dims(w, spec)
    T = spec.T
    values: Store = {}
    for n, x in enumerate(w.inputs, start=1):
        parity = 0
        for q in range(1, spec.K):
            v = _matvec_block(w.matrix[(q - 1) * T:q * T], x)
            values[(q, n)] = v
            parity ^= v
        values[(spec.K, n)] = parity
    return checked_store(spec, values)


@dataclass(frozen=True)
class CodedLinearTransformWorkload:
    """Wrapper running a linear transform through the parity redundancy map."""

    base: LinearTransformWorkload

    def build_store(self, spec: JobSpec) -> Store:
        return coded_lintrans_map(self.base, spec)

    reduce = LinearTransformWorkload.reduce


@dataclass(frozen=True)
class SyntheticRankWorkload:
    """Random T-bit values with a controllable chance of exact duplicates."""

    seed: int
    duplicate_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.duplicate_prob <= 1.0:
            raise ValueError(f"duplicate_prob {self.duplicate_prob} outside [0, 1]")

    def build_store(self, spec: JobSpec) -> Store:
        rng = random.Random(self.seed)
        pool: list[int] = []
        values: Store = {}
        for q in range(1, spec.Q + 1):
            for n in range(1, spec.N + 1):
                if pool and rng.random() < self.duplicate_prob:
                    raw = rng.choice(pool)
                else:
                    raw = rng.getrandbits(spec.T)
                    pool.append(raw)
                values[(q, n)] = raw
        return checked_store(spec, values)

    def reduce(self, q: int, values: Sequence[int], T: int) -> BitVec:
        """XOR-accumulate the values of function q across all files."""
        acc = 0
        for v in values:
            acc ^= v
        return BitVec(acc, T)


# --- simple hex-text matrix files -------------------------------------------
#
# Format, one or more named sections per file:
#
#     gf2mat <name> <nrows> <ncols>
#     <hex row>          (nrows lines; row bit j, i.e. column j, is bit j of the integer)
#
# Blank lines between sections are allowed.

def load_gf2_sections(path: str | os.PathLike) -> dict[str, list[BitVec]]:
    sections: dict[str, list[BitVec]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    i = 0
    while i < len(lines):
        if not lines[i]:
            i += 1
            continue
        parts = lines[i].split()
        if len(parts) != 4 or parts[0] != "gf2mat":
            raise ValueError(f"bad section header at line {i + 1}: {lines[i]!r}")
        name, nrows, ncols = parts[1], int(parts[2]), int(parts[3])
        if i + 1 + nrows > len(lines):
            raise ValueError(f"section {name!r} declares {nrows} rows, "
                             f"file ends after {len(lines) - i - 1}")
        rows = [BitVec.from_hex(lines[i + 1 + j], ncols) for j in range(nrows)]
        sections[name] = rows
        i += 1 + nrows
    return sections


def lintrans_from_file(path: str | os.PathLike) -> LinearTransformWorkload:
    """Read sections "A" (matrix) and "X" (one input vector per row)."""
    sections = load_gf2_sections(path)
    if "A" not in sections or "X" not in sections:
        raise ValueError(f"{path}: need sections 'A' and 'X'")
    return LinearTransformWorkload(tuple(sections["A"]), tuple(sections["X"]))
