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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class VSet:
    """Values known exclusively by ``holders`` and wanted by the rest of ``group``."""

    group: tuple[int, ...]
    holders: tuple[int, ...]
    value_ids: tuple[tuple[int, int], ...]


def build_vset(group: Sequence[int], holders: Sequence[int], placement: Placement) -> VSet:
    """Collect the (q, n) pairs served by one (group, holders) multicast.

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
    ns = placement.file_batches[holders]
    value_ids = tuple((q, n) for q in qs for n in sorted(ns))
    expected = comb(spec.r, ell - spec.s) * spec.eta1 * spec.eta2
    if len(value_ids) != expected:
        raise AssertionError(
            f"value set for group={group} holders={holders} has {len(value_ids)} "
            f"entries, expected {expected}"
        )
    return VSet(group, holders, value_ids)


@dataclass(frozen=True)
class USymbol:
    """Concatenation of a value set, split into one segment per holder.

    Segment i belongs to the i-th smallest holder.  The payload is zero-padded
    at the end to a multiple of r so the split is even; ``pad_bits`` records
    how much padding the receiver must strip.
    """

    group: tuple[int, ...]
    holders: tuple[int, ...]
    payload: BitVec
    segments: tuple[BitVec, ...]
    pad_bits: int


def segment_usymbol(vset: VSet, values: Mapping[tuple[int, int], BitVec]) -> USymbol:
    r = len(vset.holders)
    payload = BitVec.concat_all(values[qn] for qn in vset.value_ids)
    pad = (-payload.nbits) % r
    padded = payload.concat(BitVec.zeros(pad)) if pad else payload
    if padded.nbits % r:
        raise AssertionError(f"padded payload of {padded.nbits} bits not divisible by r={r}")
    seg = padded.nbits // r
    segments = tuple(padded.extract(i * seg, (i + 1) * seg) for i in range(r))
    return USymbol(vset.group, vset.holders, payload, segments, pad)


@dataclass(frozen=True)
class CodedMessage:
    """One component of a node's broadcast to a multicast group."""

    sender: int
    group: tuple[int, ...]
    index: int
    payload: BitVec


def _own_segments(k: int, group: tuple[int, ...], placement: Placement,
                  values: Mapping[tuple[int, int], BitVec]) -> list[BitVec]:
    """Node k's segment of every holder subset of the group it belongs to,
    in lexicographic subset order."""
    segs = []
    for holders in combinations(group, placement.spec.r):
        if k not in holders:
            continue
        u = segment_usymbol(build_vset(group, holders, placement), values)
        segs.append(u.segments[holders.index(k)])
    return segs


def _scale_segment(field, scalar: int, seg: BitVec) -> BitVec:
    """Blockwise scalar multiplication: the segment as a vector of field symbols.

    Bit-sliced over all lam-bit lanes at once: shift-and-add over the scalar's
    bits, multiplying every lane by x with one shift and a lane-wise reduction.
    """
    field._check(scalar)
    lam = field.degree
    if seg.nbits % lam:
        raise ValueError(f"segment of {seg.nbits} bits is not a whole number of "
                         f"{lam}-bit symbols")
    # lane-wise constants: the top bit of every lane, and x^lam mod modulus
    top = ((1 << seg.nbits) - 1) // ((1 << lam) - 1) << (lam - 1)
    low = field.modulus ^ (1 << lam)
    x = seg.value
    acc = 0
    while scalar:
        if scalar & 1:
            acc ^= x
        scalar >>= 1
        hi = x & top
        x = ((x ^ hi) << 1) ^ ((hi >> (lam - 1)) * low)
    return BitVec(acc, seg.nbits)


def encode_cdc(k: int, group: Sequence[int], placement: Placement,
               values: Mapping[tuple[int, int], BitVec]) -> list[CodedMessage]:
    """Build node k's coded broadcast to one multicast group.

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
    segments = _own_segments(k, group, placement, values)
    ell = len(group)
    m = comb(ell - 1, spec.r - 1)
    assert len(segments) == m

    if spec.s == 1:
        acc = segments[0]
        for seg in segments[1:]:
            acc ^= seg
        return [CodedMessage(k, group, 1, acc)]

    n_comp = comb(ell - 2, spec.r - 1)
    lam = 1
    while (1 << lam) <= m:
        lam += 1
    field = ext_field(lam)
    powers = vandermonde(field, m, n_comp)

    pad = (-segments[0].nbits) % lam
    if pad:
        segments = [seg.concat(BitVec.zeros(pad)) for seg in segments]
    messages = []
    for i in range(n_comp):
        acc = BitVec.zeros(segments[0].nbits)
        for j, seg in enumerate(segments):
            acc ^= _scale_segment(field, powers[i][j], seg)
        messages.append(CodedMessage(k, group, i + 1, acc))
    return messages


def full_message(k: int, group: Sequence[int], placement: Placement,
                 values: Mapping[tuple[int, int], BitVec]) -> BitVec:
    """All components of one broadcast concatenated into a single vector."""
    parts = encode_cdc(k, group, placement, values)
    return BitVec.concat_all(msg.payload for msg in parts)


def decode_cdc_s1(k: int, received: Mapping[tuple[int, tuple[int, ...]], BitVec],
                  local_values: Mapping[tuple[int, int], BitVec],
                  placement: Placement) -> dict[tuple[int, int], BitVec]:
    """Recover node k's missing values by XOR peeling (single-copy reduce only).

    ``received`` maps (sender, group) to that sender's broadcast payload.  In
    each group containing k, every other member's message leaves exactly one
    unknown segment once k cancels the segments it can rebuild from its own
    map results; the r recovered segments reassemble the symbol holding k's
    wanted values for that group.
    """
    spec = placement.spec
    if spec.s != 1:
        raise ValueError("peeling decoder only applies when each reduce function has one copy")
    recovered: dict[tuple[int, int], BitVec] = {}
    missing: list[tuple[int, int]] = []

    for group in groups_containing(spec, k, spec.r + 1):
        others = tuple(j for j in group if j != k)
        target = build_vset(group, others, placement)
        # segments this node can compute itself, per (holder subset, segment owner)
        local_syms = {
            holders: segment_usymbol(build_vset(group, holders, placement), local_values)
            for holders in combinations(group, spec.r) if k in holders
        }
        parts = []
        ok = True
        for j in others:
            payload = received.get((j, group))
            if payload is None:
                ok = False
                break
            for i in others:
                if i == j:
                    continue
                holders = tuple(sorted(set(group) - {i}))
                u = local_syms[holders]
                payload = payload ^ u.segments[holders.index(j)]
            parts.append(payload)
        if not ok:
            missing.extend(target.value_ids)
            continue
        symbol = BitVec.concat_all(parts)
        # drop the trailing zero padding the segmentation added
        payload = symbol.extract(0, len(target.value_ids) * spec.T)
        for idx, qn in enumerate(target.value_ids):
            recovered[qn] = payload.extract(idx * spec.T, (idx + 1) * spec.T)

    if missing:
        raise IncompleteShuffleError(missing)
    return recovered


@dataclass(frozen=True)
class LdPayload:
    """Rank-compressed form of one node's messages to all same-size groups:
    a basis of the spanned subspace plus one coefficient vector per message."""

    node: int
    ell: int
    msg_len: int
    basis: tuple[BitVec, ...]
    coeffs: tuple[BitVec, ...]

    @property
    def rho(self) -> int:
        return len(self.basis)

    @property
    def bit_cost(self) -> int:
        return self.rho * self.msg_len + self.rho * len(self.coeffs)


def ld_compress(k: int, ell: int, messages: Sequence[BitVec], spec: JobSpec) -> LdPayload:
    """Compress a node's size-ell broadcasts down to basis plus coefficients."""
    expected = comb(spec.K - 1, ell - 1)
    if len(messages) != expected:
        raise ValueError(f"got {len(messages)} messages, expected C(K-1,ell-1)={expected}")
    lengths = {m.nbits for m in messages}
    if len(lengths) > 1:
        raise ValueError(f"inconsistent message lengths {sorted(lengths)}")
    msg_len = lengths.pop() if lengths else 0
    decomp = rank_and_basis(Gf2Matrix(tuple(messages), msg_len))
    return LdPayload(node=k, ell=ell, msg_len=msg_len,
                     basis=decomp.basis, coeffs=decomp.coeffs)


def ld_decompress(p: LdPayload) -> list[BitVec]:
    """Rebuild the original messages exactly from basis and coefficients."""
    decomp = BasisDecomposition(basis=p.basis, coeffs=p.coeffs, rho=p.rho, ncols=p.msg_len)
    return list(reconstruct(decomp).rows)


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
                vset = build_vset(group, holders, placement)
                for receiver in set(group) - set(holders):
                    covered[receiver].update(vset.value_ids)
    return covered
