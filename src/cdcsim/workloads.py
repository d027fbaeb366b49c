"""Workload generators: map inputs to T-bit intermediate values.

Three families are provided: symbol counting over a block-partitioned
sequence, GF(2) linear transforms (plain and with a parity-coded row block),
and a synthetic generator with tunable value duplication for rank
experiments.  Each workload builds the job's store, the one ``ValueTable``
(functions 1..Q on files 1..N), against which a run checks every value a
node decoded, knows how to reduce a function's values to an int, the node's
output, and writes that int as the output text of ``result.json``.
"""

from __future__ import annotations

import os
import random
import string
from collections import Counter
from collections.abc import Iterable
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial, reduce
from itertools import filterfalse, islice
from operator import xor
from typing import Sequence, TextIO

from .gf2 import WORD_CODE, Gf2Matrix, pack, unpack
from .placement import JobSpec


class CountOverflowError(ValueError):
    """A symbol count does not fit in T bits; never silently wrapped."""


class ValueTable:
    """A job's store: the T-bit value v(q, n) of each function q in 1..Q on
    each file n in 1..N, read a row (``row``, ``rows``) or a run of files
    (``join``) at a time, packed from ``rows`` (per function, in order, its
    values on files 1..N).  A missing or
    extra row raises ``ValueError``, and so does a short row or a value that
    does not fit in T bits, naming the row or the (q, n).

    Values are held q-major, ceil(T/8) little-endian bytes each, in one
    ``bytes``, so a table holds no object per value, and a value is found by
    index arithmetic.  It keeps only Q, N and T, so it serves every K, r and s;
    ``segments`` is ``codec.segment_usymbol``'s memo, by (value set, r).
    """

    __slots__ = ("Q", "N", "T", "width", "data", "segments")

    def __init__(self, spec: JobSpec, rows: Iterable[Sequence[int]]):
        self.Q, self.N, self.T = Q, N, T = spec.Q, spec.N, spec.T
        self.width = width = (T + 7) // 8
        self.segments: dict = {}
        chunks = []
        for q, row in zip(range(1, Q + 1), rows, strict=True):
            if len(row) != N:
                raise ValueError(f"row {q} has {len(row)} values, expected {N}")
            if min(row) < 0 or max(row) >> T:
                v, n = next((v, n) for n, v in enumerate(row, 1) if v < 0 or v >> T)
                raise ValueError(f"value ({q},{n}) 0x{v:x} does not fit in T={T} bits")
            chunks.append(pack(row, 8 * width).to_bytes(N * width, "little"))
        self.data = b"".join(chunks)

    def row(self, q: int) -> list[int]:
        """Function q's values on files 1..N, in order."""
        return self.rows(q, 1)

    def rows(self, q: int, count: int) -> list[int]:
        """The rows of functions q..q+count-1 concatenated: function q+i's
        value on file n at index i*N + n-1."""
        if count < 1 or q not in range(1, self.Q + 2 - count):
            raise KeyError(q)
        size = self.N * self.width
        return unpack(int.from_bytes(self.data[(q - 1) * size:(q - 1 + count) * size], "little"),
                      count * self.N, 8 * self.width)

    def join(self, qs: Sequence[int], n: int, count: int) -> int:
        """The values of files n..n+count-1 for each function in ``qs``, in
        that order, concatenated as ``pack`` concatenates T-bit values.

        One file of a consecutive run of functions, at 1, 2, 4 or 8 bytes a
        value, is one strided slice of the store (a column of its rows); any
        other read joins one slice of bytes per function.
        """
        N, Q, width = self.N, self.Q, self.width
        if count < 1 or n not in range(1, N + 2 - count):
            raise KeyError(n)
        if qs and (min(qs) < 1 or max(qs) > Q):
            raise KeyError(next(q for q in qs if not 0 < q <= Q))
        code = WORD_CODE.get(8 * width)
        if count == 1 and code and qs and tuple(qs) == tuple(range(qs[0], qs[0] + len(qs))):
            at = (qs[0] - 1) * N + n - 1
            joined = int.from_bytes(
                memoryview(self.data).cast(code)[at:at + (len(qs) - 1) * N + 1:N], "little")
        else:
            stride, at, size = N * width, (n - 1) * width, count * width
            joined = int.from_bytes(b"".join([
                self.data[(q - 1) * stride + at:(q - 1) * stride + at + size] for q in qs]),
                "little")
        # whole bytes per value: a T that is not a multiple of 8 closes the gaps
        return joined if self.T % 8 == 0 else pack(
            unpack(joined, len(qs) * count, 8 * width), self.T)


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

    def build_store(self, spec: JobSpec) -> ValueTable:
        """Count symbol occurrences per block, each count a T-bit value."""
        if len(self.blocks) != spec.N:
            raise ValueError(f"workload has {len(self.blocks)} blocks, spec expects N={spec.N}")
        columns = []
        for n, block in enumerate(self.blocks, start=1):
            counts = Counter(block)
            for sym in counts:  # first occurrences, in block order
                if not 1 <= sym <= spec.Q:
                    raise ValueError(f"symbol {sym} in block {n} outside 1..Q={spec.Q}")
            if counts and max(counts.values()) >> spec.T:
                q = min(q for q, count in counts.items() if count >> spec.T)
                raise CountOverflowError(
                    f"count {counts[q]} of symbol {q} in block {n} does not fit in T={spec.T} bits")
            columns.append([counts.get(q, 0) for q in range(1, spec.Q + 1)])
        return ValueTable(spec, zip(*columns))

    def reduce(self, q: int, values: Sequence[int], T: int) -> int:
        """Total count of symbol q: the integer sum of per-block counts."""
        return sum(values)

    def output_text(self, value: int, spec: JobSpec) -> str:
        """A count, in decimal."""
        return str(value)


class _FirstSeenIds(dict):
    """Token -> id, where a new token gets the next id in order of first sight."""

    def __missing__(self, token: str) -> int:
        self[token] = i = len(self)
        return i


def ingest_text(source: str | os.PathLike | TextIO, Q: int, N: int,
                tokenizer: str = "word") -> WordCountWorkload:
    """Turn a text corpus into a counting workload.

    Tokens are ranked by frequency (ties broken lexicographically) and the
    top Q become symbols 1..Q; everything else is dropped.  ``tokenizer`` is
    "word" (whitespace-separated) or "char" (individual non-whitespace
    characters).  The kept symbols are split into N blocks of equal length,
    the last one possibly shorter.

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
    symbol_of_id = [0] * len(tokens)  # 0: dropped
    for sym, i in enumerate(ranked, start=1):
        symbol_of_id[i] = sym

    symbols = [sym for sym in map(symbol_of_id.__getitem__, ids) if sym]
    del ids  # free the per-token ids before the blocks are built
    return WordCountWorkload.from_symbols(symbols, N)


@dataclass(frozen=True)
class LinearTransformWorkload:
    """A GF(2) matrix A and input vectors X, one per row; values are
    row-block products.

    A is split into Q equal row blocks and function q applies block q, so
    each intermediate value is the T = nrows/Q bit product of one block with
    one input vector.  Bit i of a value is the product of block row i.
    """

    matrix: Gf2Matrix
    inputs: Gf2Matrix

    @classmethod
    def random(cls, nrows: int, ncols: int, n_inputs: int, seed: int) -> "LinearTransformWorkload":
        rng = random.Random(seed)
        matrix = Gf2Matrix(tuple(rng.getrandbits(ncols) for _ in range(nrows)), ncols)
        inputs = Gf2Matrix(tuple(rng.getrandbits(ncols) for _ in range(n_inputs)), ncols)
        return cls(matrix, inputs)

    def build_store(self, spec: JobSpec) -> ValueTable:
        """value(q, n) = block q of the matrix times input vector n, over GF(2)."""
        return ValueTable(spec, self._block_products(spec, spec.Q))

    def _block_products(self, spec: JobSpec, count: int):
        """The rows of functions 1..count, one at a time: block q of the matrix
        times each input vector.  A matrix or input shape that does not fit
        the spec raises ``ValueError``."""
        if spec.Q % spec.K:
            raise ValueError(f"Q={spec.Q} must be a multiple of K={spec.K} for linear transforms")
        nrows = self.matrix.nrows
        if nrows == 0 or nrows % spec.Q:
            raise ValueError(f"matrix with {nrows} rows cannot split into Q={spec.Q} equal blocks")
        if nrows // spec.Q != spec.T:
            raise ValueError(f"block height {nrows}/{spec.Q}={nrows // spec.Q} != T={spec.T}")
        if self.inputs.nrows != spec.N:
            raise ValueError(f"{self.inputs.nrows} input vectors, spec expects N={spec.N}")
        if self.inputs.ncols != self.matrix.ncols:
            raise ValueError(f"input vectors of length {self.inputs.ncols}, "
                             f"matrix has {self.matrix.ncols} columns")
        return ([_matvec_block(self.matrix.rows[(q - 1) * spec.T:q * spec.T], x)
                 for x in self.inputs.rows] for q in range(1, count + 1))

    def reduce(self, q: int, values: Sequence[int], T: int) -> int:
        """Concatenate the per-input products of block q, in input order."""
        return pack(values, T)

    def output_text(self, value: int, spec: JobSpec) -> str:
        """The N*T-bit concatenation, as ``nbits:hex``."""
        return f"{spec.N * spec.T}:{value:x}"


def _matvec_block(rows: Sequence[int], x: int) -> int:
    value = 0
    for i, row in enumerate(rows):
        value |= ((row & x).bit_count() & 1) << i
    return value


@dataclass(frozen=True)
class CodedLinearTransformWorkload:
    """Wrapper running a linear transform through the parity redundancy map."""

    base: LinearTransformWorkload

    def build_store(self, spec: JobSpec) -> ValueTable:
        """Linear transform with a parity row block: block K's values are the
        XOR of blocks 1..K-1, so the store is linearly dependent by
        construction.  The matrix's own K-th row block is ignored."""
        if spec.Q != spec.K:
            raise ValueError(f"parity coding requires Q == K, got Q={spec.Q}, K={spec.K}")
        rows = list(self.base._block_products(spec, spec.K - 1))
        return ValueTable(spec, rows + [[reduce(xor, column) for column in zip(*rows)]])

    reduce = LinearTransformWorkload.reduce
    output_text = LinearTransformWorkload.output_text


@dataclass(frozen=True)
class SyntheticRankWorkload:
    """Random T-bit values with a controllable chance of exact duplicates."""

    seed: int
    duplicate_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.duplicate_prob <= 1.0:
            raise ValueError(f"duplicate_prob {self.duplicate_prob} outside [0, 1]")

    def build_store(self, spec: JobSpec) -> ValueTable:
        """Draw values q-major, the order that fixes each seed's values: the
        first fresh, then each a duplicate of an earlier fresh value with
        probability ``duplicate_prob`` (one ``rng.random()``), else fresh
        (one ``getrandbits(T)``).  A duplicate's index is drawn as
        ``rng.choice`` draws it, so the values are those ``choice`` gives."""
        rng = random.Random(self.seed)
        rand, bits = rng.random, rng.getrandbits
        p, T, N = self.duplicate_prob, spec.T, spec.N
        # the first value has nothing to duplicate, so it draws no rng.random()
        pool = [bits(T)]
        # at duplicate_prob 0 no value is chosen again: the pool keeps the first
        keep = p > 0

        def rows():
            row = pool[:]
            for _ in range(spec.Q):
                for _ in range(N - len(row)):
                    if rand() < p:
                        # Random._randbelow_with_getrandbits(len(pool))
                        n = len(pool)
                        k = n.bit_length()
                        i = bits(k)
                        while i >= n:
                            i = bits(k)
                        row.append(pool[i])
                    else:
                        value = bits(T)
                        row.append(value)
                        if keep:
                            pool.append(value)
                yield row
                row = []

        return ValueTable(spec, rows())

    def reduce(self, q: int, values: Sequence[int], T: int) -> int:
        """XOR-accumulate the values of function q across all files."""
        return reduce(xor, values, 0)

    def output_text(self, value: int, spec: JobSpec) -> str:
        """The T-bit XOR, as ``nbits:hex``."""
        return f"{spec.T}:{value:x}"


# --- simple hex-text matrix files -------------------------------------------
#
# Format, one or more named sections per file:
#
#     gf2mat <name> <nrows> <ncols>
#     <hex row>          (nrows lines; row bit j, i.e. column j, is bit j of the integer)
#
# Rows are ASCII hex digits only; blank lines between sections are allowed.

_HEX_DIGITS = frozenset(string.hexdigits)


def load_gf2_sections(path: str | os.PathLike) -> dict[str, Gf2Matrix]:
    """The named sections of a matrix file, one ``Gf2Matrix`` each.  A bad
    header or row, a repeated name or a short file raises ``ValueError``."""
    sections: dict[str, Gf2Matrix] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate((ln.strip() for ln in fh), start=1)
        for i, header in lines:
            if not header:
                continue
            parts = header.split()
            if len(parts) != 4 or parts[0] != "gf2mat":
                raise ValueError(f"bad section header at line {i}: {header!r}")
            name, at = parts[1], f"section {parts[1]!r} at line {i}"
            if name in sections:
                raise ValueError(f"{at} repeats the name of an earlier section")
            if not all(c.isascii() and c.removeprefix("-").isdecimal() for c in parts[2:]):
                raise ValueError(f"{at}: counts {parts[2]!r} and {parts[3]!r} are not ints")
            nrows, ncols = int(parts[2]), int(parts[3])
            if nrows < 0 or ncols < 0:
                raise ValueError(f"{at} declares a negative size: {nrows} rows, {ncols} columns")
            block = list(islice(lines, nrows))
            if len(block) < nrows:
                raise ValueError(f"section {name!r} declares {nrows} rows, "
                                 f"file ends after {len(block)}")
            rows = []
            for line, digits in block:
                if not digits or not _HEX_DIGITS.issuperset(digits):
                    raise ValueError(f"section {name!r} at line {line}: "
                                     f"row {digits!r} is not hex digits")
                if (row := int(digits, 16)) >> ncols:
                    raise ValueError(f"section {name!r} at line {line}: "
                                     f"row {digits} is wider than {ncols} columns")
                rows.append(row)
            sections[name] = Gf2Matrix(tuple(rows), ncols)
    return sections


def lintrans_from_file(path: str | os.PathLike) -> LinearTransformWorkload:
    """Read sections "A" (matrix) and "X" (one input vector per row)."""
    sections = load_gf2_sections(path)
    if "A" not in sections or "X" not in sections:
        raise ValueError(f"{path}: need sections 'A' and 'X'")
    return LinearTransformWorkload(sections["A"], sections["X"])
