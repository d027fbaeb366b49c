"""Coded shuffle construction: multicast value sets, segment symbols, coded
messages, the single-copy XOR-peeling decoder, and rank compression of each
node's message set.

For reduce replication s=1 every coded message is a plain XOR of segments and
every receiver can peel out the one segment it is missing: ``peel_cdc_s1``
yields a node's recovered components per group, which the engine checks
against the store's segments, and only for a node with a differing
component does ``decode_cdc_s1`` unpack them into the node's table of
values.  For s >= 2 the encoder combines segments blockwise over a small
extension field using rows of powers of distinct field points; those
messages are built and counted but not decoded.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from .gf2 import (
    BasisDecomposition,
    BlockCombiner,
    Gf2Matrix,
    ext_field,
    pack,
    rank_and_basis,
    reconstruct,
    unpack,
    vandermonde,
)
from .placement import JobSpec, Placement
from .workloads import ValueTable


class IncompleteShuffleError(RuntimeError):
    """Decoding could not recover every needed value."""

    def __init__(self, missing: Sequence[tuple[int, int]], node: int):
        self.missing = sorted(set(missing))
        super().__init__(f"node {node}: unrecoverable intermediate values: {self.missing}")


def require_complete(k: int, placement: Placement, table: list) -> list:
    """Node k's table, if it holds every value; a ``None`` left in it raises
    ``IncompleteShuffleError`` naming node k and each (q, n) it lacks."""
    if None in table:
        funcs, N = placement.node_funcs[k], placement.spec.N
        raise IncompleteShuffleError([(funcs[i // N], i % N + 1)
                                      for i, v in enumerate(table) if v is None], k)
    return table


def groups_containing(spec: JobSpec, k: int, ell: int) -> list[tuple[int, ...]]:
    """Size-ell groups that include node k, in lexicographic order."""
    return [g for g in combinations(range(1, spec.K + 1), ell) if k in g]


def _value_sets(placement: Placement) -> dict:
    """``placement.vsets``, filled on first use in one pass over every (file
    batch H, reduce batch S) pair, with each node subset a bitmask: each S
    with a node outside H adds its functions to the value set of group
    H | S with holders H, on H's files.  Each distinct group mask becomes its
    sorted tuple once, and each set's size is checked once, as it is
    stored."""
    vsets = placement.vsets
    if not vsets:
        spec = placement.spec
        nodes = range(1, spec.K + 1)
        batches = [(sum(1 << j for j in batch), qs)
                   for batch, qs in placement.reduce_batches.items()]
        groups: dict[int, tuple[tuple[int, ...], int]] = {}  # mask -> group, its set's size
        for holders, ns in placement.file_batches.items():
            held = sum(1 << j for j in holders)
            # batches come in increasing function order, so each set's are sorted
            funcs: dict[int, list[int]] = {}
            for batch, qs in batches:
                if batch & ~held:
                    funcs.setdefault(batch | held, []).extend(qs)
            for union, qs in funcs.items():
                if union not in groups:
                    group = tuple(j for j in nodes if union >> j & 1)
                    groups[union] = group, comb(spec.r, len(group) - spec.s) * spec.eta1 * spec.eta2
                group, expected = groups[union]
                if len(qs) * len(ns) != expected:
                    raise AssertionError(f"value set for group={group} holders={holders} has "
                                         f"{len(qs) * len(ns)} entries, expected {expected}")
                vsets[group, holders] = tuple(qs), ns
    return vsets


def build_vset(group: Sequence[int], holders: Sequence[int],
               placement: Placement) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The value set of one (group, holders) multicast: the values known
    exclusively by the holders and wanted by the rest of the group, as the
    rectangle (qs, ns) of its sorted functions and its consecutive files.

    Its functions are those of every reduce batch S with holders | S =
    group, and its files the holders' batch; its (q, n) pairs are
    ``product(qs, ns)``.  All of a placement's value sets are built at once
    (``placement.vsets``), so a repeat call, in any order, returns the same
    object; a pair that is no multicast raises ``ValueError``.
    """
    try:
        return placement.vsets[group, holders]
    except (KeyError, TypeError):  # not built yet, another order, or lists
        key = tuple(sorted(group)), tuple(sorted(holders))
    vset = _value_sets(placement).get(key)
    if vset is None:
        spec = placement.spec
        raise ValueError(f"group {key[0]} with holders {key[1]} is no multicast of "
                         f"K={spec.K}, r={spec.r}, s={spec.s}")
    return vset


def segment_usymbol(vset: tuple[Sequence[int], Sequence[int]], values: ValueTable,
                    r: int) -> tuple[int, tuple[int, ...]]:
    """Concatenate a value set of T-bit values (T the store's) and split it
    into r equal segments; returns the segment width and the segments.

    ``vset`` is a value set as ``build_vset`` gives it: each of its functions
    on one run of consecutive files, q-major, so the concatenation joins one
    run of a row of ``values`` per function.  Segment i belongs to the i-th
    smallest holder.  The concatenation is zero-padded at the end to a
    multiple of r so the split is even; a receiver strips the padding by
    keeping len(qs) * len(ns) * T bits.  The result is kept in
    ``values.segments`` under (vset, r): one table serves every r, and at K=4
    ((4,), (1,)) is a value set of r=1's and of r=3's, split 1 and 3 ways.
    """
    segmented = values.segments.get((vset, r))
    if segmented is None:
        qs, ns = vset
        payload = values.join(qs, ns[0], len(ns))
        width = -(-len(qs) * len(ns) * values.T // r)
        mask = (1 << width) - 1
        parts = tuple(payload >> i * width & mask for i in range(r))
        values.segments[vset, r] = segmented = width, parts
    return segmented


def segment_width(spec: JobSpec, ell: int) -> int:
    """Bits of one coded component to a group of size ell: a value set's
    C(r, ell-s) * eta1 * eta2 * T bits split r ways, padded at s >= 2 to whole
    symbols of the field the encoder combines segments in."""
    width = -(-comb(spec.r, ell - spec.s) * spec.eta1 * spec.eta2 * spec.T // spec.r)
    lam = comb(ell - 1, spec.r - 1).bit_length() if spec.s > 1 else 1
    return width + (-width) % lam


def message_width(spec: JobSpec, ell: int) -> int:
    """Bits of one whole coded broadcast to a group of size ell: its
    C(ell-2, r-1) components of ``segment_width`` bits each, concatenated."""
    return segment_width(spec, ell) * comb(ell - 2, spec.r - 1)


def combiner(placement: Placement, ell: int) -> BlockCombiner:
    """The s >= 2 encoder's combination for groups of size ell: the
    C(ell-2, r-1) x C(ell-1, r-1) ``vandermonde`` rows over GF(2^lam), lam
    the bit length of C(ell-1, r-1), applied to ``segment_width``-bit
    segments.  Built once per placement and kept in
    ``placement.combiners``."""
    found = placement.combiners.get(ell)
    if found is None:
        spec = placement.spec
        m = comb(ell - 1, spec.r - 1)
        field = ext_field(m.bit_length())
        rows = vandermonde(field, m, comb(ell - 2, spec.r - 1))
        placement.combiners[ell] = found = BlockCombiner(field, rows, segment_width(spec, ell))
    return found


def encode_cdc(k: int, group: Sequence[int], placement: Placement,
               values: ValueTable) -> list[int]:
    """Build node k's coded broadcast to one multicast group, one
    ``segment_width``-bit payload per component in component order.

    With s=1 the single message is the XOR of k's segments.  With s>=2 the
    m segments are combined into n < m components using rows of powers of
    distinct nonzero points from GF(2^lam), applied blockwise
    (``combiner``) with lam the smallest degree giving at least m nonzero
    elements; segments are padded to a multiple of lam first.
    """
    spec = placement.spec
    group = tuple(sorted(group))
    if k not in group:
        raise ValueError(f"sender {k} not in group {group}")
    # k's segment of every holder subset of the group it belongs to
    segments = [segment_usymbol(build_vset(group, holders, placement), values, spec.r)[1]
                [holders.index(k)] for holders in combinations(group, spec.r) if k in holders]
    if spec.s == 1:
        acc = 0
        for seg in segments:
            acc ^= seg
        return [acc]
    return combiner(placement, len(group)).combine(segments)


def full_message(k: int, group: Sequence[int], placement: Placement,
                 values: ValueTable) -> int:
    """All components of one broadcast concatenated into a single
    ``message_width``-bit vector, component i at bits i * segment_width."""
    return pack(encode_cdc(k, group, placement, values), segment_width(placement.spec, len(group)))


def peel_cdc_s1(k: int, received: Mapping[tuple[int, tuple[int, ...]], int],
                values: ValueTable, placement: Placement):
    """Peel node k's messages apart by XOR (single-copy reduce only): yield,
    for each group containing k in ``groups_containing`` order, the group,
    its value set ``build_vset(group, others)`` (the values k wants from the
    other members) and the r components k recovered, or ``None`` where a
    message is missing.

    ``received`` maps (sender, group) to that sender's message, as
    ``engine.validate_transcript`` returns them.  Every other member j's
    message leaves exactly one unknown segment once k cancels the segments
    it rebuilds from its own map results (``values`` is read only on files k
    mapped): j's segment of the wanted value set.  The components, in
    holder order, are that set's r segments as ``segment_usymbol`` splits
    them, padding included.
    """
    spec = placement.spec
    for group in groups_containing(spec, k, spec.r + 1):
        others = tuple(j for j in group if j != k)
        vset = build_vset(group, others, placement)
        payloads = [received.get((j, group)) for j in others]
        if None in payloads:
            yield group, vset, None
            continue
        # the segments this node can compute itself: those of each holder
        # subset containing k, the group without one other member i
        local_segs = []
        for i in others:
            holders = tuple(h for h in group if h != i)
            segs = segment_usymbol(build_vset(group, holders, placement), values, spec.r)[1]
            local_segs.append((i, holders, segs))
        components = []
        for j, acc in zip(others, payloads):
            # j's message is its segment of every holder subset it is in
            for i, holders, segs in local_segs:
                if i != j:
                    acc ^= segs[holders.index(j)]
            components.append(acc)
        yield group, vset, tuple(components)


def decode_cdc_s1(k: int, received: Mapping[tuple[int, tuple[int, ...]], int],
                  values: ValueTable, placement: Placement) -> list[int]:
    """Node k's table (single-copy reduce only): the values of its
    functions (at s=1 one run of consecutive functions) on files 1..N,
    q-major, the value of its i-th function on file n at index i*N + n-1.

    The columns of the files k mapped are read from ``values``, the job's
    store, which is read on no other file; every other value is one
    ``peel_cdc_s1`` recovers: in each group, the r components joined are
    the symbol of k's wanted values, its functions on the group's file
    batch.  ``received`` is as the peel takes it, its lengths
    ``engine.validate_transcript``'s to check.  A recovered symbol whose
    zero padding is not zero raises ``ValueError``, and a value no message
    recovers ``IncompleteShuffleError`` (``require_complete``).
    """
    spec = placement.spec
    if spec.s != 1:
        raise ValueError("peeling decoder only applies when each reduce function has one copy")
    T, N, width = spec.T, spec.N, segment_width(spec, spec.r + 1)
    funcs = placement.node_funcs[k]
    table, rows = [None] * (len(funcs) * N), values.rows(funcs[0], len(funcs))
    for n in placement.node_files[k]:
        table[n - 1::N] = rows[n - 1::N]
    del rows

    for group, (qs, ns), components in peel_cdc_s1(k, received, values, placement):
        if components is None:
            continue
        symbol = pack(components, width)
        # the trailing zero padding the segmentation added lies above the
        # values; check it first, since unpack raises OverflowError on it
        m = len(ns)
        count = len(qs) * m
        if symbol >> count * T:
            raise ValueError(f"node {k}: the padding of group {group}'s symbol is not zero")
        # at s=1 qs are all of node k's functions, so file n of the symbol
        # fills the column table[n-1::N]
        vals = unpack(symbol, count, T)
        for j, n in enumerate(ns):
            table[n - 1::N] = vals[j::m]

    return require_complete(k, placement, table)


def ld_compress(ell: int, messages: Sequence[int], spec: JobSpec) -> BasisDecomposition:
    """Compress a node's size-ell broadcasts, each ``message_width`` bits,
    down to a basis of their span plus one coefficient vector per message; a
    message that does not fit raises ``ValueError``."""
    expected = comb(spec.K - 1, ell - 1)
    if len(messages) != expected:
        raise ValueError(f"got {len(messages)} messages, expected C(K-1,ell-1)={expected}")
    return rank_and_basis(Gf2Matrix(tuple(messages), message_width(spec, ell)))


def ld_decompress(d: BasisDecomposition) -> list[int]:
    """Rebuild the original messages exactly from basis and coefficients."""
    return list(reconstruct(d).rows)


def multicast_coverage(placement: Placement) -> dict[int, set[tuple[int, tuple[int, ...]]]]:
    """Per node, the (q, holders) pairs served to it by some multicast value
    set: function q on the file batch of the holder subset ``holders``.

    A value set's files are exactly its holders' batch (``build_vset``), so
    the (q, n) pairs a node is served are q with each file of that batch.
    ``engine.decode_and_verify`` checks coverage at s >= 2 on sets of
    functions per (node, file batch), and builds these pairs only when that
    finds a miss, to name the (q, n) pairs the node lacks.
    """
    spec = placement.spec
    covered: dict[int, set[tuple[int, tuple[int, ...]]]] = {k: set() for k in range(1, spec.K + 1)}
    for (group, holders), (qs, _) in _value_sets(placement).items():
        pairs = [(q, holders) for q in qs]
        for receiver in set(group) - set(holders):
            covered[receiver].update(pairs)
    return covered
