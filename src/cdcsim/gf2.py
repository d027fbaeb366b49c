"""Bit-packed linear algebra over GF(2) and small binary extension fields.

A vector is a plain Python integer: bit position i of the vector is bit i
of the integer, so position 0 is the lowest-order bit.  A vector's length is
kept beside the integers, once per matrix or transcript column, or follows
from the job spec.
Everything here is deterministic; there is no floating point anywhere.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Sequence


class UnsupportedDegreeError(ValueError):
    """Extension degree outside the supported range 1..16."""


class FieldSizeError(ValueError):
    """Field too small to supply the requested number of distinct nonzero elements."""


class MalformedDecompositionError(ValueError):
    """Coefficient vectors of a basis decomposition do not match its rank."""


# struct codes of the value widths that are whole machine words
WORD_CODE = {8: "B", 16: "H", 32: "I", 64: "Q"}


def pack(values: Sequence[int], T: int) -> int:
    """Concatenate T-bit values, value i at bits i*T; each must fit in T bits.

    Linear in len(values) when T is a multiple of 8 (whole bytes per value,
    through ``struct`` for 8, 16, 32 and 64); any other T takes one shift per
    value, quadratic in len(values).
    """
    code = WORD_CODE.get(T)
    if code is not None:
        return int.from_bytes(struct.pack(f"<{len(values)}{code}", *values), "little")
    if T % 8 == 0:
        size = T // 8
        return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in values]), "little")
    acc = 0
    for i, v in enumerate(values):
        acc |= v << i * T
    return acc


def unpack(x: int, n: int, T: int) -> list[int]:
    """The n T-bit values ``pack`` concatenated into x, which must be below
    2**(n*T): for T a multiple of 8 a wider x raises ``OverflowError``.
    Linear in n when T is a multiple of 8, quadratic otherwise."""
    code = WORD_CODE.get(T)
    if code is not None:
        return list(struct.unpack(f"<{n}{code}", x.to_bytes(n * T // 8, "little")))
    if T % 8 == 0:
        size = T // 8
        data = x.to_bytes(n * size, "little")
        return [int.from_bytes(data[i * size:(i + 1) * size], "little") for i in range(n)]
    mask = (1 << T) - 1
    return [x >> i * T & mask for i in range(n)]


@dataclass(frozen=True)
class Gf2Matrix:
    """Rows over GF(2), each an int that fits in ``ncols`` bits."""

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self) -> None:
        for row in self.rows:
            if row < 0 or row >> self.ncols:
                raise ValueError(f"row {row:#x} does not fit in {self.ncols} columns")

    @property
    def nrows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class BasisDecomposition:
    """Rank factorization of a GF(2) matrix: rows == coeffs x basis.

    ``basis`` holds the first maximal independent subset of the original
    rows, in the order they were encountered; ``coeffs[i]`` is the rho-bit
    combination that reproduces original row i, bit j selecting ``basis[j]``.
    """

    basis: tuple[int, ...]
    coeffs: tuple[int, ...]
    ncols: int

    @property
    def rho(self) -> int:
        """The rank: the number of basis rows."""
        return len(self.basis)


def rank_and_basis(m: Gf2Matrix) -> BasisDecomposition:
    """Extract an independent row basis and per-row combination coefficients.

    Rows are processed top to bottom; an incoming row is reduced against the
    reduced rows kept so far, each keyed by its top set bit, until it is
    zero or its top bit keys no reduced row.  A row that survives reduction is
    independent of the rows before it and joins the basis in its original
    form.  The output therefore does not depend on the pivot rule: the basis
    is the first maximal independent subset of the rows, in order, and each
    coefficient vector is the unique combination of that basis giving its
    row.
    """
    basis: list[int] = []
    coeffs: list[int] = []
    # top bit position + 1 of a reduced row -> its slot in reduced_rows
    pivot_of: dict[int, int] = {}
    # each reduced row, and its expansion over basis slots
    reduced_rows: list[int] = []
    expansions: list[int] = []

    for row in m.rows:
        cur = row
        exp = 0
        while cur:
            slot = pivot_of.get(cur.bit_length())
            if slot is None:
                break
            # clears cur's top bit, touching only lower ones
            cur ^= reduced_rows[slot]
            exp ^= expansions[slot]
        if cur:
            b = len(basis)
            basis.append(row)
            pivot_of[cur.bit_length()] = len(reduced_rows)
            reduced_rows.append(cur)
            # cur == row xor (the basis combination recorded in exp)
            expansions.append(exp ^ (1 << b))
            coeffs.append(1 << b)
        else:
            coeffs.append(exp)

    return BasisDecomposition(basis=tuple(basis), coeffs=tuple(coeffs), ncols=m.ncols)


def reconstruct(b: BasisDecomposition) -> Gf2Matrix:
    """Rebuild the original matrix from a basis decomposition, bit for bit.

    Each row is the XOR of the basis rows its coefficient vector selects,
    one step per set bit.  A basis row that does not fit in ``ncols`` bits,
    or a coefficient vector that does not fit in rho bits, raises
    ``MalformedDecompositionError`` naming the first one; both checks come
    before the set-bit loop, which a negative vector would never leave.
    """
    basis, rho = b.basis, b.rho
    for vec in basis:
        if vec < 0 or vec >> b.ncols:
            raise MalformedDecompositionError(
                f"basis row {vec:#x} does not fit in {b.ncols} columns")
    rows = []
    for i, c in enumerate(b.coeffs):
        if c < 0 or c >> rho:
            raise MalformedDecompositionError(
                f"coefficient vector {i} ({c:#x}) does not fit in rho={rho} bits")
        acc = 0
        while c:
            j = c.bit_length() - 1
            acc ^= basis[j]
            c ^= 1 << j
        rows.append(acc)
    return Gf2Matrix(tuple(rows), b.ncols)


# Low-weight irreducible polynomials, one per degree, from the standard
# published table (each entry includes the leading term).  Fixed forever so
# that encoded fixtures never drift.
IRREDUCIBLE_POLY: dict[int, int] = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011011,          # x^8 + x^4 + x^3 + x + 1
    9: 0b1000000011,         # x^9 + x + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000000001001,     # x^12 + x^3 + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100000000100001,   # x^14 + x^5 + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10000000000101011,  # x^16 + x^5 + x^3 + x + 1
}


class Gf2ExtField:
    """GF(2**degree) with a fixed modulus; elements are ints below 2**degree."""

    def __init__(self, degree: int, modulus: int) -> None:
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree

    def _check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of GF(2^{self.degree})")

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if (a >> self.degree) & 1:
                a ^= self.modulus
        return acc

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            raise ValueError("negative exponent")
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def nonzero(self) -> range:
        """All nonzero elements, in increasing integer order."""
        return range(1, self.order)

    def __repr__(self) -> str:
        return f"Gf2ExtField(degree={self.degree}, modulus=0x{self.modulus:x})"


@functools.lru_cache(maxsize=None)
def ext_field(degree: int) -> Gf2ExtField:
    """Field context for GF(2**degree), 1 <= degree <= 16."""
    if degree not in IRREDUCIBLE_POLY:
        raise UnsupportedDegreeError(f"extension degree {degree} not supported (need 1..16)")
    return Gf2ExtField(degree, IRREDUCIBLE_POLY[degree])


def vandermonde(field: Gf2ExtField, m: int, n: int) -> list[list[int]]:
    """n x m matrix of powers a_j^i with a_j the j-th nonzero field element.

    The evaluation points are distinct, so every n x n column submatrix is
    invertible.  The first row is all ones.
    """
    if m >= field.order:
        raise FieldSizeError(
            f"GF(2^{field.degree}) has only {field.order - 1} nonzero elements, need {m}"
        )
    if n > m:
        raise ValueError(f"cannot build {n} rows from {m} columns (need n <= m)")
    points = field.nonzero()[:m]
    rows = [[1] * m] if n > 0 else []
    while len(rows) < n:
        rows.append([field.mul(v, a) for v, a in zip(rows[-1], points)])
    return rows


class BlockCombiner:
    """A fixed n x m matrix ``rows`` over GF(2^lam), applied blockwise: each of
    m ``nbits``-bit vectors is a run of nbits/lam lam-bit symbols, symbol b at
    bits b*lam, and output i is sum_j rows[i][j] * vector j, symbol by symbol.

    Bit-sliced over all lanes at once: ``combine`` multiplies each vector by
    alpha^0 .. alpha^(lam-1) in turn, every lane with one shift and a
    lane-wise reduction, and XORs each shifted copy into every output whose
    scalar for that vector has the bit set (``targets[j][b]``).
    """

    def __init__(self, field: Gf2ExtField, rows: Sequence[Sequence[int]], nbits: int) -> None:
        lam = field.degree
        if nbits % lam:
            raise ValueError(f"vectors of {nbits} bits are not a whole number of "
                             f"{lam}-bit symbols")
        for row in rows:
            for a in row:
                field._check(a)
        self.field, self.rows, self.nbits = field, rows, nbits
        # lane-wise constants: the top bit of every lane, and x^lam mod modulus
        self.top = ((1 << nbits) - 1) // ((1 << lam) - 1) << (lam - 1)
        self.low = field.modulus ^ (1 << lam)
        # per vector j and bit b, up to the highest bit any scalar of column j
        # has set: the outputs whose scalar for vector j has bit b set
        self.targets = tuple(
            tuple(tuple(i for i, row in enumerate(rows) if row[j] >> b & 1)
                  for b in range(max(row[j] for row in rows).bit_length()))
            for j in range(len(rows[0]) if rows else 0))

    def combine(self, vectors: Sequence[int]) -> list[int]:
        """The n outputs for m vectors of ``nbits`` bits each, in row order;
        a vector count other than m raises ``ValueError``."""
        acc = [0] * len(self.rows)
        top, low, shift = self.top, self.low, self.field.degree - 1
        for x, by_bit in zip(vectors, self.targets, strict=True):
            for b, outputs in enumerate(by_bit):
                if b:
                    hi = x & top
                    x = ((x ^ hi) << 1) ^ ((hi >> shift) * low)
                for i in outputs:
                    acc[i] ^= x
        return acc
