"""Coded shuffle construction: multicast value sets, segment symbols, coded
messages, the single-copy XOR-peeling decoder, and rank compression of each
node's message set.

For reduce replication s=1 every coded message is a plain XOR of segments and
every receiver can peel out the one segment it is missing.  For s >= 2 the
encoder combines segments blockwise over a small extension field using rows
of powers of distinct field points; those messages are built and counted but
not decoded.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from .gf2 import (
    BasisDecomposition,
    BitVec,
    Gf2Matrix,
    ext_field,
    rank_and_basis,
    reconstruct,
    vandermonde,
)
from .placement import JobSpec, Placement, group_sizes, ksubsets


class IncompleteShuffleError(RuntimeError):
    """Decoding could not recover every needed value."""

    def __init__(self, missing: Sequence[tuple[int, int]]):
        self.missing = sorted(set(missing))
        super().__init__(f"unrecoverable intermediate values: {self.missing}")


def groups_containing(spec: JobSpec, k: int, ell: int) -> list[tuple[int, ...]]:
    """Size-ell groups that include node k, in lexicographic order."""
    return [g for g in combinations(range(1, spec.K + 1), ell) if k in g]


def build_vset(group: Sequence[int], holders: Sequence[int],
               placement: Placement) -> tuple[tuple[int, int], ...]:
    """Collect the (q, n) pairs served by one (group, holders) multicast: the
    values known exclusively by the holders and wanted by the rest of the group.

    A function index q qualifies when every non-holder in the group wants it
    and nobody outside the group does, i.e. its reduce batch is an s-subset
    of the group containing every receiver; a file index n qualifies when it
    is held by exactly the holder subset.  Pairs come out sorted by q then n.
    """
    spec = placement.spec
    group = tuple(sorted(group))
    holders = tuple(sorted(holders))
    ell = len(group)
    if ell not in group_sizes(spec.K, spec.r, spec.s):
        raise ValueError(f"group size {ell} invalid for r={spec.r}, s={spec.s}, K={spec.K}")
    if len(holders) != spec.r or not set(holders) <= set(group):
        raise ValueError(f"holders {holders} must be an r={spec.r} subset of group {group}")

    receivers = set(group) - set(holders)
    qs = sorted(
        q for subset in combinations(group, spec.s) if receivers <= set(subset)
        for q in placement.reduce_batches[subset]
    )
    ns = sorted(placement.file_batches[holders])
    value_ids = tuple((q, n) for q in qs for n in ns)
    expected = comb(spec.r, ell - spec.s) * spec.eta1 * spec.eta2
    if len(value_ids) != expected:
        raise AssertionError(
            f"value set for group={group} holders={holders} has {len(value_ids)} "
            f"entries, expected {expected}"
        )
    return value_ids


def segment_usymbol(value_ids: Sequence[tuple[int, int]], r: int,
                    values: Mapping[tuple[int, int], int], T: int) -> tuple[int, tuple[int, ...]]:
    """Concatenate a value set of T-bit values and split it into r equal
    segments; returns the segment width and the segments.

    Segment i belongs to the i-th smallest holder.  The concatenation is
    zero-padded at the end to a multiple of r so the split is even; a receiver
    strips the padding by keeping len(value_ids) * T bits.
    """
    payload = 0
    for i, qn in enumerate(value_ids):
        payload |= values[qn] << i * T
    width = -(-len(value_ids) * T // r)
    mask = (1 << width) - 1
    return width, tuple(payload >> i * width & mask for i in range(r))


def segment_width(spec: JobSpec, ell: int) -> int:
    """Bits of one coded component to a group of size ell: a value set's
    C(r, ell-s) * eta1 * eta2 * T bits split r ways, padded at s >= 2 to whole
    symbols of the field the encoder combines segments in."""
    width = -(-comb(spec.r, ell - spec.s) * spec.eta1 * spec.eta2 * spec.T // spec.r)
    lam = comb(ell - 1, spec.r - 1).bit_length() if spec.s > 1 else 1
    return width + (-width) % lam


def _scale_segment(field, scalar: int, x: int, nbits: int) -> int:
    """Blockwise scalar multiplication: the nbits-bit segment x as a vector of
    field symbols.

    Bit-sliced over all lam-bit lanes at once: shift-and-add over the scalar's
    bits, multiplying every lane by x with one shift and a lane-wise reduction.
    """
    field._check(scalar)
    lam = field.degree
    if nbits % lam:
        raise ValueError(f"segment of {nbits} bits is not a whole number of "
                         f"{lam}-bit symbols")
    # lane-wise constants: the top bit of every lane, and x^lam mod modulus
    top = ((1 << nbits) - 1) // ((1 << lam) - 1) << (lam - 1)
    low = field.modulus ^ (1 << lam)
    acc = 0
    while scalar:
        if scalar & 1:
            acc ^= x
        scalar >>= 1
        hi = x & top
        x = ((x ^ hi) << 1) ^ ((hi >> (lam - 1)) * low)
    return acc


def encode_cdc(k: int, group: Sequence[int], placement: Placement,
               values: Mapping[tuple[int, int], int]) -> list[BitVec]:
    """Build node k's coded broadcast to one multicast group, one payload per
    component in component order.

    With s=1 the single message is the XOR of k's segments.  With s>=2 the
    m segments are combined into n < m components using rows of powers of
    distinct nonzero points from GF(2^lam), applied blockwise with lam the
    smallest degree giving more than m nonzero elements; segments are padded
    to a multiple of lam first.
    """
    spec = placement.spec
    group = tuple(sorted(group))
    if k not in group:
        raise ValueError(f"sender {k} not in group {group}")
    # k's segment of every holder subset of the group it belongs to
    segments = [segment_usymbol(build_vset(group, holders, placement), spec.r, values, spec.T)[1]
                [holders.index(k)] for holders in combinations(group, spec.r) if k in holders]
    ell = len(group)
    width = segment_width(spec, ell)
    m = comb(ell - 1, spec.r - 1)

    if spec.s == 1:
        acc = 0
        for seg in segments:
            acc ^= seg
        return [BitVec(acc, width)]

    n_comp = comb(ell - 2, spec.r - 1)
    field = ext_field(m.bit_length())
    powers = vandermonde(field, m, n_comp)

    messages = []
    for i in range(n_comp):
        acc = 0
        for j, seg in enumerate(segments):
            acc ^= _scale_segment(field, powers[i][j], seg, width)
        messages.append(BitVec(acc, width))
    return messages


def full_message(k: int, group: Sequence[int], placement: Placement,
                 values: Mapping[tuple[int, int], int]) -> BitVec:
    """All components of one broadcast concatenated into a single vector."""
    return BitVec.concat_all(encode_cdc(k, group, placement, values))


def decode_cdc_s1(k: int, received: Mapping[tuple[int, tuple[int, ...]], BitVec],
                  values: Mapping[tuple[int, int], int],
                  placement: Placement) -> dict[tuple[int, int], int]:
    """Recover node k's missing values by XOR peeling (single-copy reduce only).

    ``received`` maps (sender, group) to that sender's broadcast payload.  In
    each group containing k, every other member's message leaves exactly one
    unknown segment once k cancels the segments it can rebuild from its own
    map results; the r recovered segments reassemble the symbol holding k's
    wanted values for that group.  Only the values of files k mapped are read
    from ``values``, so it may be the whole store or k's own part of it.  Payload
    lengths are ``engine.validate_transcript``'s to check; a recovered symbol
    whose zero padding is not zero raises ``ValueError``.
    """
    spec = placement.spec
    if spec.s != 1:
        raise ValueError("peeling decoder only applies when each reduce function has one copy")
    T, width = spec.T, segment_width(spec, spec.r + 1)
    mask = (1 << T) - 1
    recovered: dict[tuple[int, int], int] = {}
    missing: list[tuple[int, int]] = []

    for group in groups_containing(spec, k, spec.r + 1):
        others = tuple(j for j in group if j != k)
        target = build_vset(group, others, placement)
        payloads = [received.get((j, group)) for j in others]
        if None in payloads:
            missing.extend(target)
            continue
        # segments this node can compute itself, per (holder subset, segment owner)
        local_segs = {
            holders: segment_usymbol(build_vset(group, holders, placement), spec.r, values, T)[1]
            for holders in combinations(group, spec.r) if k in holders
        }
        symbol = 0
        for idx, (j, payload) in enumerate(zip(others, payloads)):
            acc = payload.value
            for i in others:
                if i != j:
                    holders = tuple(sorted(set(group) - {i}))
                    acc ^= local_segs[holders][holders.index(j)]
            symbol |= acc << idx * width
        # the trailing zero padding the segmentation added lies above the values
        if symbol >> len(target) * T:
            raise ValueError(f"node {k}: the padding of group {group}'s symbol is not zero")
        for idx, qn in enumerate(target):
            recovered[qn] = symbol >> idx * T & mask

    if missing:
        raise IncompleteShuffleError(missing)
    return recovered


def ld_compress(ell: int, messages: Sequence[BitVec], spec: JobSpec) -> BasisDecomposition:
    """Compress a node's size-ell broadcasts down to a basis of their span plus
    one coefficient vector per message."""
    expected = comb(spec.K - 1, ell - 1)
    if len(messages) != expected:
        raise ValueError(f"got {len(messages)} messages, expected C(K-1,ell-1)={expected}")
    lengths = {m.nbits for m in messages}
    if len(lengths) > 1:
        raise ValueError(f"inconsistent message lengths {sorted(lengths)}")
    msg_len = lengths.pop() if lengths else 0
    return rank_and_basis(Gf2Matrix(tuple(messages), msg_len))


def ld_decompress(d: BasisDecomposition) -> list[BitVec]:
    """Rebuild the original messages exactly from basis and coefficients."""
    return list(reconstruct(d).rows)


def multicast_coverage(placement: Placement) -> dict[int, set[tuple[int, int]]]:
    """Per node, the (q, n) pairs served to it by some multicast value set.

    Used as a structural check when no decoder runs: compare against each
    node's demand set.
    """
    spec = placement.spec
    covered: dict[int, set[tuple[int, int]]] = {k: set() for k in range(1, spec.K + 1)}
    for ell in group_sizes(spec.K, spec.r, spec.s):
        for group in ksubsets(spec.K, ell):
            for holders in combinations(group, spec.r):
                value_ids = build_vset(group, holders, placement)
                for receiver in set(group) - set(holders):
                    covered[receiver].update(value_ids)
    return covered
