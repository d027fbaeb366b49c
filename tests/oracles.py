"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written the slow, obvious way (list-of-bits
arithmetic, long division, permutation sums, direct predicate enumeration)
so it shares no code path with the library it checks.  The word-count
oracles are the former whole-corpus ingest and per-function rescan; they
build the library's result types only, so results compare with ``==``.
"""

from __future__ import annotations

from itertools import permutations

from cdcsim.workloads import CountOverflowError, WordCountWorkload


def naive_rank(rows: list[list[int]]) -> int:
    """Textbook Gaussian elimination over GF(2) on 0/1 lists."""
    if not rows:
        return 0
    work = [row[:] for row in rows]
    ncols = len(work[0])
    rank = 0
    pivot_row = 0
    for col in range(ncols):
        found = None
        for r in range(pivot_row, len(work)):
            if work[r][col] == 1:
                found = r
                break
        if found is None:
            continue
        work[pivot_row], work[found] = work[found], work[pivot_row]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] == 1:
                work[r] = [(a + b) % 2 for a, b in zip(work[r], work[pivot_row])]
        rank += 1
        pivot_row += 1
        if pivot_row == len(work):
            break
    return rank


def int_to_bits(value: int, nbits: int) -> list[int]:
    return [(value >> i) & 1 for i in range(nbits)]


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less polynomial product over GF(2)[x]."""
    out = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            out ^= a << i
        i += 1
    return out


def poly_mod(a: int, modulus: int) -> int:
    """Long division remainder over GF(2)[x]."""
    dm = poly_degree(modulus)
    while poly_degree(a) >= dm and a:
        a ^= modulus << (poly_degree(a) - dm)
    return a


def gf_mul_longdiv(a: int, b: int, modulus: int) -> int:
    """Field product computed as full polynomial product then reduction."""
    return poly_mod(poly_mul(a, b), modulus)


def is_irreducible(poly: int, degree: int) -> bool:
    """Trial division by every polynomial of degree 1..degree//2."""
    if poly_degree(poly) != degree:
        return False
    for d in range(1, degree // 2 + 1):
        for low in range(1 << d):
            candidate = (1 << d) | low
            # divisible iff remainder of long division is zero
            if poly_mod(poly, candidate) == 0 and poly_degree(candidate) >= 1:
                return False
    return True


def perm_det(matrix: list[list[int]], mul) -> int:
    """Determinant over a field of characteristic 2: plain permutation sum."""
    n = len(matrix)
    det = 0
    for perm in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod = mul(prod, matrix[i][perm[i]])
            if prod == 0:
                break
        det ^= prod
    return det


def recount(blocks: list[list[int]], q: int) -> int:
    """Total occurrences of symbol q across all blocks."""
    return sum(1 for block in blocks for sym in block if sym == q)


def naive_dot(row_bits: list[int], x_bits: list[int]) -> int:
    return sum(a * b for a, b in zip(row_bits, x_bits)) % 2


def vset_members_bruteforce(placement, group, holders) -> set[tuple[int, int]]:
    """Direct evaluation of the multicast set membership predicate."""
    spec = placement.spec
    group = set(group)
    holders = set(holders)
    receivers = group - holders
    members = set()
    for q in range(1, spec.Q + 1):
        wanters = {k for k in range(1, spec.K + 1) if q in placement.node_funcs[k]}
        if not receivers <= wanters:
            continue
        if wanters - group:
            continue
        for n in range(1, spec.N + 1):
            holders_of_n = {k for k in range(1, spec.K + 1) if n in placement.node_files[k]}
            if holders_of_n == holders:
                members.add((q, n))
    return members


def naive_wordcount_map(w, spec):
    """Word-count map that rescans each block once per function."""
    if len(w.blocks) != spec.N:
        raise ValueError(f"workload has {len(w.blocks)} blocks, spec expects N={spec.N}")
    limit = 1 << spec.T
    values = {}
    for n, block in enumerate(w.blocks, start=1):
        for sym in block:
            if not 1 <= sym <= spec.Q:
                raise ValueError(f"symbol {sym} in block {n} outside 1..Q={spec.Q}")
        for q in range(1, spec.Q + 1):
            count = sum(1 for sym in block if sym == q)
            if count >= limit:
                raise CountOverflowError(
                    f"count {count} of symbol {q} in block {n} does not fit in T={spec.T} bits"
                )
            values[(q, n)] = count
    return values


def naive_ingest_text(source, Q, N, tokenizer="word"):
    """Text ingestion that reads the whole corpus and keeps every token."""
    if Q < 1:
        raise ValueError("Q must be positive")
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    if tokenizer == "word":
        tokens = text.split()
    elif tokenizer == "char":
        tokens = [c for c in text if not c.isspace()]
    else:
        raise ValueError(f"unknown tokenizer {tokenizer!r} (want 'word' or 'char')")
    if not tokens:
        raise ValueError("empty input: no tokens found")

    freq = {}
    for t in tokens:
        freq[t] = freq.get(t, 0) + 1
    ranked = sorted(freq, key=lambda t: (-freq[t], t))
    symbol_of_token = {t: i + 1 for i, t in enumerate(ranked[:Q])}

    symbols = [symbol_of_token[t] for t in tokens if t in symbol_of_token]
    return WordCountWorkload.from_symbols(symbols, N)
