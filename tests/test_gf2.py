"""GF(2) kernel: vectors, rank/basis extraction, extension fields."""

from __future__ import annotations

import random

import pytest

from cdcsim.gf2 import (
    IRREDUCIBLE_POLY,
    BasisDecomposition,
    FieldSizeError,
    Gf2Matrix,
    MalformedDecompositionError,
    UnsupportedDegreeError,
    ext_field,
    rank_and_basis,
    reconstruct,
    vandermonde,
)
from oracles import gf_mul_longdiv, int_to_bits, is_irreducible, naive_rank, perm_det


def matrix(values, ncols):
    return Gf2Matrix(tuple(values), ncols)


class TestGf2Matrix:
    def test_rows_must_fit(self):
        assert matrix([0, 0b1111], 4).nrows == 2
        for bad in (0b10000, -1):
            with pytest.raises(ValueError, match="does not fit in 4 columns"):
                matrix([0, bad], 4)


class TestRankAndBasis:
    def test_zero_row(self):
        m = matrix([0], 8)
        d = rank_and_basis(m)
        assert d.rho == 0
        assert d.basis == ()
        assert d.coeffs == (0,)

    def test_empty_matrix(self):
        d = rank_and_basis(Gf2Matrix((), 8))
        assert d.rho == 0 and d.coeffs == ()
        assert reconstruct(d).nrows == 0

    def test_sum_row_coeffs(self):
        # forced by linearity: the dependent row is basis[0] + basis[1]
        rng = random.Random(1)
        for _ in range(50):
            u = rng.getrandbits(16)
            v = rng.getrandbits(16)
            if naive_rank([int_to_bits(u, 16), int_to_bits(v, 16)]) != 2:
                continue
            d = rank_and_basis(matrix([u, v, u ^ v], 16))
            assert d.rho == 2
            assert d.coeffs[2] == 0b11
            assert d.basis == (u, v)

    def test_basis_rows_are_original_rows(self):
        rows = [0b0110, 0b0011, 0b0101, 0b1000]
        d = rank_and_basis(matrix(rows, 4))
        originals = {r for r in rows}
        assert all(b in originals for b in d.basis)

    def test_roundtrip_random(self):
        rng = random.Random(99)
        for _ in range(300):
            nrows = rng.randint(1, 24)
            ncols = rng.randint(1, 48)
            values = []
            for _ in range(nrows):
                if values and rng.random() < 0.4:
                    # plant a dependent row
                    picks = rng.sample(values, rng.randint(1, min(3, len(values))))
                    dep = 0
                    for p in picks:
                        dep ^= p
                    values.append(dep)
                else:
                    values.append(rng.getrandbits(ncols))
            m = matrix(values, ncols)
            assert reconstruct(rank_and_basis(m)) == m

    def test_rank_matches_textbook_oracle(self):
        rng = random.Random(7)
        for n in range(1, 33):
            values = [rng.getrandbits(n) for _ in range(n)]
            ours = rank_and_basis(matrix(values, n)).rho
            theirs = naive_rank([int_to_bits(v, n) for v in values])
            assert ours == theirs

    def test_rank_invariant_under_row_ops(self):
        rng = random.Random(13)
        for _ in range(25):
            nrows = rng.randint(2, 64)
            ncols = rng.randint(nrows, 256)
            values = [rng.getrandbits(ncols) for _ in range(nrows)]
            base = rank_and_basis(matrix(values, ncols)).rho

            shuffled = values[:]
            rng.shuffle(shuffled)
            assert rank_and_basis(matrix(shuffled, ncols)).rho == base

            i, j = rng.sample(range(nrows), 2)
            added = values[:]
            added[i] ^= added[j]
            assert rank_and_basis(matrix(added, ncols)).rho == base

    def test_basis_is_independent(self):
        rng = random.Random(21)
        for _ in range(30):
            values = [rng.getrandbits(12) for _ in range(10)]
            d = rank_and_basis(matrix(values, 12))
            bits = [int_to_bits(b, 12) for b in d.basis]
            assert naive_rank(bits) == d.rho


class TestReconstruct:
    def test_rank_zero_gives_zero_matrix(self):
        d = BasisDecomposition(basis=(), coeffs=(0,) * 3, ncols=8)
        m = reconstruct(d)
        assert m.nrows == 3 and m.ncols == 8
        assert m.rows == (0, 0, 0)

    def test_malformed_coeff_length(self):
        # a coefficient vector must fit in rho bits
        for coeff in (0b10, -1):
            d = BasisDecomposition(basis=(1,), coeffs=(0, coeff), ncols=4)
            with pytest.raises(MalformedDecompositionError, match="coefficient vector 1"):
                reconstruct(d)

    def test_malformed_basis(self):
        # a basis row must fit in ncols bits
        for basis in ((0b10000,), (-1,)):
            d = BasisDecomposition(basis=basis, coeffs=(1,), ncols=4)
            with pytest.raises(MalformedDecompositionError):
                reconstruct(d)

    def test_roundtrip_5x32(self):
        rng = random.Random(3)
        values = [rng.getrandbits(32) for _ in range(5)]
        m = matrix(values, 32)
        assert reconstruct(rank_and_basis(m)) == m


class TestExtField:
    def test_gf2_is_and_xor(self):
        f = ext_field(1)
        for a in (0, 1):
            for b in (0, 1):
                assert f.mul(a, b) == (a & b)

    def test_cube_of_x_in_gf8(self):
        f = ext_field(3)
        expected = gf_mul_longdiv(gf_mul_longdiv(0b010, 0b010, f.modulus), 0b010, f.modulus)
        assert f.pow(0b010, 3) == expected == 0b011

    def test_mul_matches_long_division_oracle(self):
        for lam in (2, 3, 4, 5):
            f = ext_field(lam)
            for a in range(f.order):
                for b in range(f.order):
                    assert f.mul(a, b) == gf_mul_longdiv(a, b, f.modulus)

    @pytest.mark.parametrize("lam", range(1, 9))
    def test_inverses(self, lam):
        f = ext_field(lam)
        for a in f.nonzero():
            assert f.mul(a, f.inv(a)) == 1

    def test_unsupported_degrees(self):
        for lam in (0, -1, 17, 100):
            with pytest.raises(UnsupportedDegreeError):
                ext_field(lam)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            ext_field(4).inv(0)

    def test_moduli_table_is_irreducible(self):
        # guards the hard-coded table against typos
        for lam, poly in IRREDUCIBLE_POLY.items():
            assert is_irreducible(poly, lam), f"degree {lam} modulus 0x{poly:x} is reducible"


class TestVandermonde:
    def test_single_row_is_all_ones(self):
        f = ext_field(4)
        for m in (1, 3, 7):
            assert vandermonde(f, m, 1) == [[1] * m]
            assert vandermonde(f, m, 0) == []

    def test_gf4_definition(self):
        f = ext_field(2)
        assert vandermonde(f, 3, 2) == [[1, 1, 1], [1, 2, 3]]
        for degree in range(1, 6):
            f = ext_field(degree)
            m = f.order - 1
            assert vandermonde(f, m, m) == [[f.pow(a, i) for a in range(1, m + 1)]
                                            for i in range(m)]

    def test_all_column_submatrices_invertible_gf8(self):
        from itertools import combinations
        f = ext_field(3)
        mat = vandermonde(f, 5, 3)
        for cols in combinations(range(5), 3):
            sub = [[mat[i][j] for j in cols] for i in range(3)]
            assert perm_det(sub, f.mul) != 0

    def test_all_column_submatrices_invertible_exhaustive(self):
        from itertools import combinations
        f = ext_field(4)
        m = 8
        for n in range(1, m + 1):
            mat = vandermonde(f, m, n)
            for cols in combinations(range(m), n):
                sub = [[mat[i][j] for j in cols] for i in range(n)]
                assert perm_det(sub, f.mul) != 0, (n, cols)

    def test_field_too_small(self):
        with pytest.raises(FieldSizeError):
            vandermonde(ext_field(2), 4, 2)

    def test_too_many_rows(self):
        with pytest.raises(ValueError):
            vandermonde(ext_field(3), 3, 4)
