"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written the slow, obvious way (list-of-bits
arithmetic, long division, permutation sums, direct predicate enumeration)
so it shares no code path with the library it checks.  The word-count
oracles are the former whole-corpus ingest and per-function rescan, and the
GF(2) decomposition oracles the former lowest-bit-pivot elimination and
bit-by-bit decompression; they build the library's result types only, so
results compare with ``==``.  The transcript reader is the former one that
checks every rule broadcast by broadcast, and ``reference_validate_cdc`` the
former cdc validation, one broadcast at a time.  ``reference_value_sets`` is
the former pass over (file batch, reduce batch) pairs on sets of nodes.
``shift_pack`` and ``shift_unpack`` are the one-shift-per-value definition of
``gf2.pack`` and ``gf2.unpack``, and ``table_path_verify`` the former s = 1
verification of a transcript, which decodes, reduces and compares every
node's whole table.
"""

from __future__ import annotations

from itertools import permutations
from math import comb

from cdcsim.codec import decode_cdc_s1, segment_width
from cdcsim.engine import (_BROADCAST_KEYS, _META_KEYS, SCHEMES, Broadcasts, ShuffleTranscript,
                           expect_json, reduce_phase, unknown_field, validate_transcript)
from cdcsim.gf2 import BasisDecomposition, Gf2Matrix, MalformedDecompositionError
from cdcsim.placement import SPEC_KEYS, JobSpec, group_sizes, ksubsets
from cdcsim.workloads import CountOverflowError, WordCountWorkload


def shift_pack(values, T: int) -> int:
    """Value i of ``values`` at bits i*T, one shift and OR per value."""
    acc = 0
    for i, v in enumerate(values):
        acc |= v << i * T
    return acc


def shift_unpack(x: int, n: int, T: int) -> list[int]:
    """The n T-bit values at bits i*T of x, one shift and mask per value."""
    return [x >> i * T & (1 << T) - 1 for i in range(n)]


def table_path_verify(placement, store, transcript, workload):
    """(outputs, mismatch, verification) of an s = 1 transcript: each node's
    table decoded, reduced by ``reduce_phase`` and compared value by value
    with the store's rows, the first wrong value named by node, then table
    order.  A coded table is ``decode_cdc_s1``'s; an uncoded one holds the
    node's functions' Q*N slots, its own files' values read from the store
    one by one."""
    got = validate_transcript(placement, transcript)
    N = placement.spec.N
    outputs, mismatch = {}, None
    for k, funcs in placement.node_funcs.items():
        if transcript.scheme == "uncoded":
            own = set(placement.node_files[k])
            table = [store.join((q,), n, 1) if n in own else got[(q - 1) * N + n - 1]
                     for q in funcs for n in range(1, N + 1)]
        else:
            table = decode_cdc_s1(k, got, store, placement)
        outputs[k] = reduce_phase(placement, k, table, workload)
        for i, q in enumerate(funcs):
            row = store.row(q)
            for n in range(1, N + 1):
                v, w = table[i * N + n - 1], row[n - 1]
                if mismatch is None and v != w:
                    mismatch = (f"node {k}: function {q} on file {n} decoded as 0x{v:x}, "
                                f"expected 0x{w:x}")
    return outputs, mismatch, "pass" if mismatch is None else "fail"


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


def reference_rank_and_basis(m: Gf2Matrix) -> BasisDecomposition:
    """Extract an independent row basis and per-row combination coefficients.

    Rows are processed top to bottom; an incoming row is reduced against the
    pivots found so far (pivot = first nonzero position of the reduced row).
    A row that survives reduction joins the basis in its original form, so
    the basis is a subset of the input rows and the whole procedure is
    deterministic.
    """
    basis: list[int] = []
    coeffs: list[int] = []
    # (pivot position, reduced row, expansion of the reduced row over basis slots)
    pivot_of: dict[int, int] = {}
    reduced_rows: list[int] = []
    expansions: list[int] = []

    for row in m.rows:
        cur = row
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

    return BasisDecomposition(basis=tuple(basis), coeffs=tuple(coeffs), ncols=m.ncols)


def reference_reconstruct(b: BasisDecomposition) -> Gf2Matrix:
    """Rebuild the original matrix from a basis decomposition, bit for bit."""
    for vec in b.basis:
        if vec < 0 or vec >> b.ncols:
            raise MalformedDecompositionError(
                f"basis row {vec:#x} does not fit in {b.ncols} columns")
    rows = []
    for i, c in enumerate(b.coeffs):
        if c < 0 or c >> b.rho:
            raise MalformedDecompositionError(
                f"coefficient vector {i} ({c:#x}) does not fit in rho={b.rho} bits")
        acc = 0
        for j in range(b.rho):
            if (c >> j) & 1:
                acc ^= b.basis[j]
        rows.append(acc)
    return Gf2Matrix(tuple(rows), b.ncols)


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


def reference_value_sets(placement) -> dict:
    """A placement's value sets by (group, holders), built on sets of nodes:
    each reduce batch S not inside file batch H adds its functions to the
    set of group sorted(H | S) with holders H, on H's files; a set of the
    wrong size raises ``AssertionError``."""
    spec = placement.spec
    funcs: dict = {}
    for holders in placement.file_batches:
        held = set(holders)
        for batch, qs in placement.reduce_batches.items():
            if not held.issuperset(batch):
                funcs.setdefault((tuple(sorted(held.union(batch))), holders), []).extend(qs)
    vsets = {}
    for (group, holders), qs in funcs.items():
        ns = placement.file_batches[holders]
        expected = comb(spec.r, len(group) - spec.s) * spec.eta1 * spec.eta2
        if len(qs) * len(ns) != expected:
            raise AssertionError(f"value set for group={group} holders={holders} has "
                                 f"{len(qs) * len(ns)} entries, expected {expected}")
        vsets[group, holders] = tuple(qs), ns
    return vsets


def reference_validate_cdc(placement, transcript) -> dict:
    """A cdc transcript's messages by (sender, group), each broadcast checked
    in turn: its key is one of the job's and not repeated, it has one
    payload of its group's ``segment_width`` and the value fits; the first
    fault, or the keys no broadcast sent, raise ``ValueError``."""
    spec = placement.spec
    K, r = spec.K, spec.r
    sizes = group_sizes(K, r, spec.s)
    cols = transcript.broadcasts
    nbits, values = cols.nbits, cols.values
    keys = {(j, g, c) for ell in sizes for g in ksubsets(K, ell) for j in g
            for c in range(1, comb(ell - 2, r - 1) + 1)}
    widths = {ell: segment_width(spec, ell) for ell in sizes}
    seen: set = set()
    got: dict = {}
    end = 0
    for i, (sender, count, group, component) in enumerate(zip(
            cols.senders, cols.counts, cols.meta["group"], cols.meta["component"])):
        first, end = end, end + count
        key = (sender, group, component)
        if key not in keys:
            meta = {field: column[i] for field, column in cols.meta.items()}
            raise ValueError(f"broadcast {i}: cdc {meta} from node {sender} is not one "
                             f"of the job's cdc broadcasts")
        lengths = [widths[len(group)]]
        if key in seen:
            raise ValueError(f"broadcast {i}: second broadcast for {key}")
        seen.add(key)
        if nbits[first:end] != lengths:
            raise ValueError(f"broadcast {i}: payloads of {nbits[first:end]} bits for {key}, "
                             f"expected {lengths}")
        rows = tuple(values[first:end])
        for j, (v, n) in enumerate(zip(rows, lengths)):
            if v >> n:
                raise ValueError(f"broadcast {i}: payload {j} for {key} does not fit in {n} bits")
        pair = sender, group
        got[pair] = got.get(pair, 0) | rows[0] << (component - 1) * lengths[0]
    if len(seen) < len(keys):
        raise ValueError(f"no cdc broadcast for {sorted(keys - seen)}")
    return got


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


def reference_payload_from_json(obj: dict) -> tuple[int, int]:
    """The (bits, value) of a payload object, or ``ValueError`` naming its fault."""
    if type(obj) is dict:
        bits, digits = obj.get("bits"), obj.get("hex")
        if type(bits) is int and type(digits) is str:
            value = int(digits, 16)
            if len(obj) != 2:
                raise ValueError(f"payload {unknown_field(obj, ('bits', 'hex'), 'payload')}")
            if bits < 0:
                raise ValueError(f"negative bit length {bits}")
            if value < 0 or value >> bits:
                raise ValueError(f"value 0x{value:x} does not fit in {bits} bits")
            if not (digits.isascii() and len(digits) == ((value.bit_length() + 3) // 4 or 1)
                    and digits.lower() == digits):
                raise ValueError(f"payload hex {digits!r} is not written as '{value:x}'")
            return bits, value
    raise ValueError(f"payload {obj!r} is not an object with an int 'bits' and a str 'hex'")


def reference_transcript_from_json(obj: dict) -> ShuffleTranscript:
    """Read a transcript back, checking each broadcast in turn; the first
    fault raises ``ValueError`` naming it."""
    expect_json(obj, dict, "transcript")
    spec = obj.get("spec")
    if type(spec) is not dict or spec.keys() != set(SPEC_KEYS):
        raise ValueError(f"transcript spec: expected an object with keys "
                         f"{', '.join(SPEC_KEYS)}, got {spec!r}")
    spec = JobSpec(**spec)
    scheme = expect_json(obj.get("scheme"), str, "transcript scheme")
    if scheme not in _META_KEYS:
        raise ValueError(f"transcript scheme {scheme!r}: expected one of {', '.join(SCHEMES)}")
    keys = _META_KEYS[scheme]
    raw = expect_json(obj.get("broadcasts"), list, "transcript broadcasts")
    if len(obj) != 3:
        raise ValueError("transcript "
                         + unknown_field(obj, ("scheme", "spec", "broadcasts"), "transcript"))
    nbits, values = [], []
    for i, b in enumerate(raw):
        if type(b) is not dict:
            raise ValueError(f"broadcast {i}: expected an object, got {type(b).__name__}")
        for key in _BROADCAST_KEYS:
            if key not in b:
                raise ValueError(f"broadcast {i}: has no {key!r}")
        meta = b["meta"]
        if type(b["sender"]) is not int:
            raise ValueError(f"broadcast {i}: sender {b['sender']!r} is not an int")
        if b["kind"] != scheme:
            raise ValueError(f"broadcast {i}: kind {b['kind']!r} is not the transcript's "
                             f"scheme {scheme!r}")
        if type(meta) is not dict:
            raise ValueError(f"broadcast {i}: meta {meta!r} is not an object")
        if type(b["payloads"]) is not list:
            raise ValueError(f"broadcast {i}: payloads {b['payloads']!r} is not a list")
        for key in keys:
            if key not in meta:
                raise ValueError(f"broadcast {i}: meta has no {key!r}")
            if key == "group":
                if type(meta[key]) is not list or not all([type(j) is int for j in meta[key]]):
                    raise ValueError(f"broadcast {i}: meta group {meta[key]!r} "
                                     "is not a list of ints")
            elif type(meta[key]) is not int:
                raise ValueError(f"broadcast {i}: meta {key} {meta[key]!r} is not an int")
        if len(meta) != len(keys):
            raise ValueError(f"broadcast {i}: meta {unknown_field(meta, keys, scheme + ' meta')}")
        if len(b) != len(_BROADCAST_KEYS):
            raise ValueError(f"broadcast {i}: {unknown_field(b, _BROADCAST_KEYS, 'broadcast')}")
        try:
            for bits, value in map(reference_payload_from_json, b["payloads"]):
                nbits.append(bits)
                values.append(value)
        except ValueError as exc:
            raise ValueError(f"broadcast {i}: {exc}") from None
    return ShuffleTranscript(scheme, spec, Broadcasts(
        [b["sender"] for b in raw],
        {key: [b["meta"][key] for b in raw] if key != "group" else
              [tuple(b["meta"][key]) for b in raw] for key in keys},
        [len(b["payloads"]) for b in raw], nbits, values))
