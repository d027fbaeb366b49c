"""Bit-packed linear algebra over GF(2) and small binary extension fields.

A vector is a plain Python integer: bit position i of the vector is bit i
of the integer, so position 0 is the lowest-order bit.  ``BitVec`` pairs such
an integer with its length wherever the job spec does not fix the length
(wire payloads, rank decompositions, reduce outputs, rows read from a file).
Everything here is deterministic; there is no floating point anywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable


class UnsupportedDegreeError(ValueError):
    """Extension degree outside the supported range 1..16."""


class FieldSizeError(ValueError):
    """Field too small to supply the requested number of distinct nonzero elements."""


class MalformedDecompositionError(ValueError):
    """Coefficient vectors of a basis decomposition do not match its rank."""


@dataclass(frozen=True, slots=True)
class BitVec:
    """A GF(2) vector with its length; position i is bit i of ``value``."""

    value: int
    nbits: int

    def __post_init__(self) -> None:
        if self.nbits < 0:
            raise ValueError(f"negative bit length {self.nbits}")
        if self.value < 0 or self.value >> self.nbits:
            raise ValueError(f"value 0x{self.value:x} does not fit in {self.nbits} bits")

    @classmethod
    def concat_all(cls, parts: Iterable["BitVec"]) -> "BitVec":
        value = 0
        shift = 0
        for p in parts:
            value |= p.value << shift
            shift += p.nbits
        return cls(value, shift)

    @classmethod
    def from_hex(cls, digits: str, nbits: int) -> "BitVec":
        return cls(int(digits, 16), nbits)

    def to_hex(self) -> str:
        return f"{self.value:x}"


@dataclass(frozen=True)
class Gf2Matrix:
    """A list of equal-length rows over GF(2)."""

    rows: tuple[BitVec, ...]
    ncols: int

    def __post_init__(self) -> None:
        for row in self.rows:
            if row.nbits != self.ncols:
                raise ValueError(f"row of length {row.nbits} in matrix with {self.ncols} columns")

    @property
    def nrows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class BasisDecomposition:
    """Rank factorization of a GF(2) matrix: rows == coeffs x basis.

    ``basis`` holds the first maximal independent subset of the original
    rows, in the order they were encountered; ``coeffs[i]`` is the length-rho
    combination that reproduces original row i.
    """

    basis: tuple[BitVec, ...]
    coeffs: tuple[BitVec, ...]
    rho: int
    ncols: int


def rank_and_basis(m: Gf2Matrix) -> BasisDecomposition:
    """Extract an independent row basis and per-row combination coefficients.

    Rows are processed top to bottom; an incoming row is reduced against the
    pivots found so far (pivot = first nonzero position of the reduced row).
    A row that survives reduction joins the basis in its original form, so
    the basis is a subset of the input rows and the whole procedure is
    deterministic.
    """
    basis: list[BitVec] = []
    coeffs: list[BitVec] = []
    # (pivot position, reduced row, expansion of the reduced row over basis slots)
    pivot_of: dict[int, int] = {}
    reduced_rows: list[int] = []
    expansions: list[int] = []

    for row in m.rows:
        cur = row.value
        exp = 0
        while cur:
            p = (cur & -cur).bit_length() - 1
            slot = pivot_of.get(p)
            if slot is None:
                break
            cur ^= reduced_rows[slot]
            exp ^= expansions[slot]
        if cur:
            b = len(basis)
            basis.append(row)
            pivot_of[(cur & -cur).bit_length() - 1] = len(reduced_rows)
            reduced_rows.append(cur)
            # cur == row xor (the basis combination recorded in exp)
            expansions.append(exp ^ (1 << b))
            coeffs.append(1 << b)
        else:
            coeffs.append(exp)

    rho = len(basis)
    return BasisDecomposition(
        basis=tuple(basis),
        coeffs=tuple(BitVec(c, rho) for c in coeffs),
        rho=rho,
        ncols=m.ncols,
    )


def reconstruct(b: BasisDecomposition) -> Gf2Matrix:
    """Rebuild the original matrix from a basis decomposition, bit for bit."""
    if len(b.basis) != b.rho:
        raise MalformedDecompositionError(f"basis has {len(b.basis)} rows but rho={b.rho}")
    for vec in b.basis:
        if vec.nbits != b.ncols:
            raise MalformedDecompositionError(
                f"basis row of length {vec.nbits} in decomposition with {b.ncols} columns"
            )
    rows = []
    for i, c in enumerate(b.coeffs):
        if c.nbits != b.rho:
            raise MalformedDecompositionError(
                f"coefficient vector {i} has length {c.nbits}, expected rho={b.rho}"
            )
        acc = 0
        for j in range(b.rho):
            if (c.value >> j) & 1:
                acc ^= b.basis[j].value
        rows.append(BitVec(acc, b.ncols))
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
