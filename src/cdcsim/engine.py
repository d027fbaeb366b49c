"""Map -> shuffle -> reduce orchestration over an error-free broadcast bus.

The network model is a zero-latency lossless broadcast: every payload a node
sends is visible to all others and the only cost tracked is its exact bit
length.  A run produces a transcript of every broadcast, per-node bit
counters, and (for single-copy reduce) reduce outputs and a pass/fail check of
every decoded value against the store, one node at a time: a coded node
whose every peeled component equals the store's segment of that value set
reduces the store's rows; any other node, and every uncoded one, builds its
table, reduces it and compares it with its store rows.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import comb
from operator import countOf, itemgetter, rshift

from .codec import (
    _value_sets,
    decode_cdc_s1,
    encode_cdc,
    full_message,
    groups_containing,
    ld_compress,
    ld_decompress,
    message_width,
    multicast_coverage,
    peel_cdc_s1,
    require_complete,
    segment_usymbol,
    segment_width,
)
from .gf2 import BasisDecomposition, Gf2Matrix, rank_and_basis
from .placement import (SPEC_KEYS, JobSpec, Placement, group_sizes, ksubsets, make_placement,
                        needed_values, unmapped_files)
from .workloads import ValueTable

# the fields of every serialised broadcast, and the meta fields of each scheme
_BROADCAST_KEYS = ("sender", "kind", "meta", "payloads")
_META_KEYS = {"uncoded": ("q", "n"), "cdc": ("group", "component"),
             "cdc-ld": ("ell", "rho", "msg_len")}
SCHEMES = tuple(_META_KEYS)


class UnsupportedCombinationError(ValueError):
    """Scheme cannot run with these parameters (e.g. uncoded with s >= 2)."""


def check_scheme(scheme: str, spec: JobSpec) -> None:
    """Refuse a scheme that cannot run ``spec``: an unknown one with
    ``ValueError``, uncoded at s >= 2 with ``UnsupportedCombinationError``."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if scheme == "uncoded" and spec.s != 1:
        raise UnsupportedCombinationError(
            f"uncoded shuffle is defined only for s=1, got s={spec.s}")


@dataclass
class Broadcasts:
    """A transcript's broadcasts as columns: per broadcast its sender and
    payload count, and a column per meta field of its scheme (``_META_KEYS``);
    per payload, in broadcast order, its width and value."""

    senders: list[int]
    meta: dict[str, list]
    counts: list[int]
    nbits: list[int]
    values: list[int]

    def __len__(self) -> int:
        return len(self.senders)


@dataclass
class ShuffleTranscript:
    scheme: str
    spec: JobSpec
    broadcasts: Broadcasts

    def __post_init__(self) -> None:
        check_scheme(self.scheme, self.spec)

    def bits_by_node(self) -> dict[int, int]:
        counts = {k: 0 for k in range(1, self.spec.K + 1)}
        cols = self.broadcasts
        widths = iter(cols.nbits)
        for sender, count in zip(cols.senders, cols.counts):
            counts[sender] += next(widths) if count == 1 else sum(islice(widths, count))
        return counts

    def ranks(self) -> dict[tuple[int, int], int] | None:
        """A cdc-ld transcript's rank per (sender, ell), read from its meta;
        ``None`` for a scheme that sends no ranks."""
        if self.scheme != "cdc-ld":
            return None
        meta = self.broadcasts.meta
        return dict(zip(zip(self.broadcasts.senders, meta["ell"]), meta["rho"]))


@dataclass
class RunResult:
    """A run's transcript, the bits and load measured from it, and the
    outputs, mismatch and verdict of ``decode_and_verify``."""

    transcript: ShuffleTranscript
    bits_by_node: dict[int, int]
    load_empirical: Fraction
    outputs: dict[int, dict[int, int]] | None
    mismatch: str | None  # the first wrong decoded value, on "fail" only
    verification: str  # "pass" | "fail" | "not-applicable"


def run_uncoded_shuffle(placement: Placement, store: ValueTable) -> ShuffleTranscript:
    """Ship every needed value plainly; the smallest node holding the file sends."""
    spec = placement.spec
    senders, qs, ns, values = [], [], [], []
    for k in range(1, spec.K + 1):
        # sorted(needed_values(placement, k)), one shared list of files per node
        others = unmapped_files(placement, k)
        first = [placement.batch_of_file[n][0] for n in others]
        at = [n - 1 for n in others]  # positions in a row of the store
        for q in sorted(placement.node_funcs[k]):
            senders += first
            qs += [q] * len(others)
            ns += others
            values += map(store.row(q).__getitem__, at)
    m = len(ns)
    return ShuffleTranscript("uncoded", spec, Broadcasts(
        senders, {"q": qs, "n": ns}, [1] * m, [spec.T] * m, values))


def run_cdc_shuffle(placement: Placement, store: ValueTable) -> ShuffleTranscript:
    spec = placement.spec
    senders, groups, components, nbits, values = [], [], [], [], []
    for ell in group_sizes(spec.K, spec.r, spec.s):
        width = segment_width(spec, ell)
        for group in ksubsets(spec.K, ell):
            for k in group:
                for index, payload in enumerate(encode_cdc(k, group, placement, store), 1):
                    senders.append(k)
                    groups.append(group)
                    components.append(index)
                    nbits.append(width)
                    values.append(payload)
    return ShuffleTranscript("cdc", spec, Broadcasts(
        senders, {"group": groups, "component": components}, [1] * len(senders), nbits, values))


def run_cdc_ld_shuffle(placement: Placement, store: ValueTable) -> ShuffleTranscript:
    """Per node and group size, broadcast a subspace basis plus coefficients."""
    spec = placement.spec
    senders, ells, rhos, msg_lens, counts, nbits, values = [], [], [], [], [], [], []
    for k in range(1, spec.K + 1):
        for ell in group_sizes(spec.K, spec.r, spec.s):
            messages = [full_message(k, g, placement, store)
                        for g in groups_containing(spec, k, ell)]
            d = ld_compress(ell, messages, spec)
            senders.append(k)
            ells.append(ell)
            rhos.append(d.rho)
            msg_lens.append(d.ncols)
            counts.append(d.rho + len(d.coeffs))
            nbits += [d.ncols] * d.rho + [d.rho] * len(d.coeffs)
            values += d.basis + d.coeffs
    return ShuffleTranscript("cdc-ld", spec, Broadcasts(
        senders, {"ell": ells, "rho": rhos, "msg_len": msg_lens}, counts, nbits, values))


def validate_transcript(placement: Placement, transcript: ShuffleTranscript) -> list | dict:
    """Check that a transcript holds, one to one and in any order, the
    broadcasts its scheme sends for this job, and return what a node hears.

    uncoded (s=1 only) sends one T-bit payload per needed (q, n), from a node
    that mapped file n, returned as a list of Q*N slots: the value of (q, n)
    at index (q-1)*N + n-1, ``None`` where nothing was sent.  cdc sends one
    ``segment_width``-bit payload per (sender, group, component); cdc-ld per
    (sender, ell) rho independent basis rows of msg_len = ``message_width``
    bits and C(K-1, ell-1) coefficient rows of rho bits.  Both return the
    messages by (sender, group), laid out as ``full_message`` lays them out.
    Every payload value must fit in its width.  A bad, repeated or missing
    broadcast raises ``ValueError``, a missing one named by its key.

    cdc is checked over whole columns: one payload per broadcast, the set of
    (sender, group, component) keys equal to the job's with none repeated,
    each width its group's and every value fitting.  Only a transcript these
    checks refuse is read one broadcast at a time, as cdc-ld always is, to
    name its first fault; the cdc messages are built by the column pass only.
    """
    spec = placement.spec
    scheme, K, r = transcript.scheme, spec.K, spec.r
    sizes = group_sizes(K, r, spec.s)
    cols = transcript.broadcasts
    nbits, values = cols.nbits, cols.values
    if scheme == "uncoded":
        N = spec.N
        reducer = {q: k for k, qs in placement.node_funcs.items() for q in qs}  # q's only one
        slots: list = [None] * (spec.Q * N)
        for i, (sender, q, n, count) in enumerate(
                zip(cols.senders, cols.meta["q"], cols.meta["n"], cols.counts)):
            mappers = placement.batch_of_file.get(n, ())
            if q not in reducer or reducer[q] in mappers or sender not in mappers:
                raise _foreign(i, cols, scheme)
            at = (q - 1) * N + n - 1
            if slots[at] is not None:
                raise ValueError(f"broadcast {i}: second broadcast for {(q, n)}")
            # every earlier broadcast has one payload, so this one's is payload i
            if count != 1 or nbits[i] != spec.T:
                raise ValueError(f"broadcast {i}: payloads of {nbits[i:i + count]} bits "
                                 f"for {(q, n)}, expected {[spec.T]}")
            if values[i] >> spec.T:
                raise ValueError(f"broadcast {i}: payload 0 for {(q, n)} does not fit in "
                                 f"{spec.T} bits")
            slots[at] = values[i]
        # each broadcast filled one slot
        if len(cols.senders) < sum(N - len(placement.node_files[k]) for k in reducer.values()):
            missing = sorted((q, n) for k in range(1, K + 1) for q, n in needed_values(placement, k)
                             if slots[(q - 1) * N + n - 1] is None)
            raise ValueError(f"no uncoded broadcast for {missing}")
        return slots
    widths = {ell: segment_width(spec, ell) for ell in sizes}
    if scheme == "cdc":
        indices = {ell: range(1, comb(ell - 2, r - 1) + 1) for ell in sizes}  # per group size
        keys = {(j, g, c) for ell in sizes for g in ksubsets(K, ell) for j in g
                for c in indices[ell]}
        groups, components = cols.meta["group"], cols.meta["component"]
        # whole columns: as many broadcasts as keys, each of one payload, so
        # equal key sets leave no key repeated; each width its group's, and
        # every value fits
        if (cols.counts == [1] * len(keys) and set(zip(cols.senders, groups, components)) == keys
                and nbits == list(map(widths.__getitem__, map(len, groups)))
                and not any(map(rshift, values, nbits))):
            got = {}
            for pair, component, value, width in zip(zip(cols.senders, groups), components,
                                                     values, nbits):
                got[pair] = got.get(pair, 0) | value << (component - 1) * width
            return got
    else:
        keys = {(j, ell) for j in range(1, K + 1) for ell in sizes}
    # a repeated or missing broadcast is named by its wire key, not its message's
    seen: set = set()
    got: dict = {}
    end = 0
    for i, (sender, count, meta) in enumerate(zip(
            cols.senders, cols.counts, zip(*[cols.meta[field] for field in _META_KEYS[scheme]]))):
        first, end = end, end + count
        if scheme == "cdc":
            group, component = meta
            key = (sender, group, component)
        else:
            ell, rho, msg_len = meta
            key = (sender, ell)
        if key not in keys:
            raise _foreign(i, cols, scheme)
        ell = len(group) if scheme == "cdc" else ell
        lengths = [widths[ell]]
        if scheme == "cdc-ld":
            ncols = message_width(spec, ell)
            if msg_len != ncols or not 0 <= rho <= ncols:
                raise ValueError(f"broadcast {i}: msg_len {msg_len} and rho {rho}, "
                                 f"expected msg_len {ncols} and rho in 0..{ncols}")
            lengths = [ncols] * rho + [rho] * comb(K - 1, ell - 1)
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
        if scheme == "cdc-ld":
            if (rank := rank_and_basis(Gf2Matrix(rows[:rho], ncols)).rho) != rho:
                raise ValueError(f"broadcast {i}: its {rho} basis rows have rank {rank}")
            got.update(zip([(sender, g) for g in groups_containing(spec, sender, ell)],
                           ld_decompress(BasisDecomposition(rows[:rho], rows[rho:], ncols))))
    if len(seen) < len(keys):
        raise ValueError(f"no {scheme} broadcast for {sorted(keys - seen)}")
    if scheme == "cdc":
        raise ValueError("cdc broadcasts: the column check refused broadcasts that each pass "
                         "the per-broadcast check")
    return got


def _foreign(i: int, cols: Broadcasts, scheme: str) -> ValueError:
    """Broadcast i's sender or key is not one of the job's."""
    meta = {field: column[i] for field, column in cols.meta.items()}
    return ValueError(f"broadcast {i}: {scheme} {meta} from node {cols.senders[i]} is not one "
                      f"of the job's {scheme} broadcasts")


def reduce_phase(placement: Placement, k: int, table: list[int], workload) -> dict[int, int]:
    """Node k's reduce outputs: each of its functions evaluated on the
    function's row of node k's table (as ``codec.decode_cdc_s1`` lays it
    out).  A value the table lacks (``None``) raises
    ``IncompleteShuffleError`` naming node k and every (q, n) it lacks."""
    N, T = placement.spec.N, placement.spec.T
    require_complete(k, placement, table)
    return {q: workload.reduce(q, table[i * N:(i + 1) * N], T)
            for i, q in enumerate(placement.node_funcs[k])}


def decode_and_verify(placement: Placement, store: ValueTable, transcript: ShuffleTranscript,
                      workload):
    """Validate a transcript with ``validate_transcript``, then check what
    each node decodes against the store.

    At s = 1 this is one pass over the nodes.  For cdc and cdc-ld, every
    component ``peel_cdc_s1`` recovers for node k is compared with the
    store's segment of the same value set (``segment_usymbol``, memoised in
    the store): when all are equal, k's decoded values are the store's, and
    each output is its function's reduce over the store's row.  Any other
    node, and every uncoded one, reads its store rows once, builds its table
    (``decode_cdc_s1``; for uncoded its functions' slots of what
    ``validate_transcript`` returns, with the columns of the files it mapped
    from those rows), reduces it (``reduce_phase``) and compares it with the
    rows.

    Returns (outputs, mismatch, verification), "fail" with the first wrong
    value by node, then table order.  With s >= 2 no decoder exists: one pass
    over the placement's value sets collects the functions served to each
    node on each file batch it did not map, and each such set must hold all
    of the node's functions; (None, None, "not-applicable").  A miss raises
    ``AssertionError`` naming the first such node and, from
    ``multicast_coverage``, the (q, n) pairs it lacks.
    """
    spec = placement.spec
    got = validate_transcript(placement, transcript)
    if spec.s != 1:
        # demand and coverage per (function, file batch); a miss is named by
        # its (q, n) pairs
        batches = placement.file_batches
        served: dict = {k: {} for k in placement.node_funcs}  # node -> holders -> functions
        for (group, holders), (qs, _) in _value_sets(placement).items():
            for k in group:
                if k not in holders:
                    served[k].setdefault(holders, []).extend(qs)
        for k, funcs in placement.node_funcs.items():
            # compared as sets: a count would let a repeated function hide a miss
            unmapped = [b for b in batches if k not in b]
            if not all(map(set(funcs).issubset, map(served[k].get, unmapped, repeat(())))):
                needed = {(q, b) for b in unmapped for q in funcs}
                missed = needed - multicast_coverage(placement)[k]
                pairs = sorted((q, n) for q, b in missed for n in batches[b])
                raise AssertionError(f"multicast structure misses {pairs} for node {k}")
        return None, None, "not-applicable"

    coded, N, T = transcript.scheme != "uncoded", spec.N, spec.T
    outputs, mismatch = {}, None
    for k, funcs in placement.node_funcs.items():
        if coded and all(components == segment_usymbol(vset, store, spec.r)[1]
                         for _, vset, components in peel_cdc_s1(k, got, store, placement)):
            # node k decoded exactly the store's values
            outputs[k] = {q: workload.reduce(q, store.row(q), T) for q in funcs}
            continue
        rows = store.rows(funcs[0], len(funcs))
        if coded:
            table = decode_cdc_s1(k, got, store, placement)
        else:
            # node k hears every broadcast: its functions' slots, with the
            # columns of the files it mapped read from the store
            table = got[(funcs[0] - 1) * N:funcs[-1] * N]
            for n in placement.node_files[k]:
                table[n - 1::N] = rows[n - 1::N]
        outputs[k] = reduce_phase(placement, k, table, workload)
        if mismatch is None and table != rows:
            i, v, w = next((i, v, w) for i, (v, w) in enumerate(zip(table, rows)) if v != w)
            mismatch = (f"node {k}: function {funcs[i // N]} on file {i % N + 1} decoded as "
                        f"0x{v:x}, expected 0x{w:x}")
        del table, rows  # not held through the next node's decode
    return outputs, mismatch, "pass" if mismatch is None else "fail"


def run(spec: JobSpec, workload, scheme: str) -> RunResult:
    """``run_on`` a placement and a store built for the job, once ``check_scheme`` passes."""
    check_scheme(scheme, spec)
    return run_on(make_placement(spec), workload.build_store(spec), workload, scheme)


def run_on(placement: Placement, store: ValueTable, workload, scheme: str) -> RunResult:
    """Execute one full job under the given scheme on a built placement and a
    store of the spec's Q, N and T (else ``ValueError``), then decode, reduce
    and verify it with ``decode_and_verify`` (a structural check at s >= 2)."""
    spec = placement.spec
    check_scheme(scheme, spec)
    if (got := (store.Q, store.N, store.T)) != (want := (spec.Q, spec.N, spec.T)):
        raise ValueError(f"a store of (Q, N, T) = {got} does not fit the spec's {want}")
    # looked up per call, so that a wrapper perfbench's tracer installs is what runs
    shuffle = {"uncoded": run_uncoded_shuffle, "cdc": run_cdc_shuffle,
               "cdc-ld": run_cdc_ld_shuffle}[scheme]
    transcript = shuffle(placement, store)
    bits = transcript.bits_by_node()
    load = Fraction(sum(bits.values()), spec.Q * spec.N * spec.T)
    # decode_and_verify returns the last three fields in order
    return RunResult(transcript, bits, load,
                     *decode_and_verify(placement, store, transcript, workload))


# --- transcript serialization (JSON metadata + hex payloads) -----------------

# rows are joined this many at a time: one list of every row's string took
# the Fig. 4-scale (N=2520) uncoded fixture write from 447 to 527 MB peak RSS
_ROWS_PER_CHUNK = 256


@dataclass(frozen=True)
class Slot:
    """A varying leaf of a ``Rows`` skeleton: the row's value in the column
    of this name, or with ``hex`` that value, an exact int, as the string of
    its ``f"{value:x}"`` digits.  A ``Slot`` anywhere else is not JSON."""

    name: str
    hex: bool = False


@dataclass
class Rows:
    """A list of like objects for ``dump_json``: row i is ``skeleton`` with
    each ``Slot`` replaced by value i of its column.  Every column holds one
    value per row."""

    skeleton: object
    columns: dict[str, list]


_JSON_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def expect_json(value, kind: type, field: str):
    """``value`` when its type is ``kind``; otherwise ``ValueError`` naming ``field``."""
    if type(value) is not kind:
        raise ValueError(f"{field}: expected {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def unknown_field(obj: dict, keys: tuple, what: str) -> str:
    """Why ``obj``, which holds every key of ``keys`` and more, is refused:
    its first other key is not one of the ``what`` fields."""
    extra = next(key for key in obj if key not in keys)
    return f"{extra!r} is not one of the {what} fields {', '.join(keys)}"


def _payload_from_json(obj: dict) -> tuple[int, int]:
    """The (bits, value) of a payload object: a non-negative width and a value
    that fits in it, written as ``f"{value:x}"`` writes it.  ``_columns``
    checks every payload at once; this explains one it refused."""
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
            # int(_, 16) also reads "0x3", " 3 ", "0_3", "03", "+3", "A" and
            # non-ASCII digits
            if digits != f"{value:x}":
                raise ValueError(f"payload hex {digits!r} is not written as '{value:x}'")
            return bits, value
    raise ValueError(f"payload {obj!r} is not an object with an int 'bits' and a str 'hex'")


def transcript_to_json(transcript: ShuffleTranscript) -> dict:
    """The transcript as a document for ``dump_json`` to write, its broadcasts
    one ``Rows`` over the transcript's columns, a payload's ``hex`` a hex slot
    over its ``values``; parse the written text to read or edit it."""
    cols = transcript.broadcasts
    payload = {"bits": Slot("bits"), "hex": Slot("hex", hex=True)}
    columns = {"sender": cols.senders, **cols.meta}
    if set(cols.counts) <= {1}:
        # one payload per broadcast, so its fields are broadcast columns too
        payloads = [payload]
        columns |= {"bits": cols.nbits, "hex": cols.values}
    else:
        payloads = Slot("payloads")
        columns["payloads"] = [
            Rows(payload, {"bits": cols.nbits[first:first + count],
                           "hex": cols.values[first:first + count]})
            for count, first in zip(cols.counts, accumulate(cols.counts, initial=0))]
    skeleton = {"sender": Slot("sender"), "kind": transcript.scheme,
                "meta": {name: Slot(name) for name in cols.meta}, "payloads": payloads}
    return {"scheme": transcript.scheme, "spec": transcript.spec.as_dict(),
            "broadcasts": Rows(skeleton, columns)}


def transcript_from_json(obj: dict) -> ShuffleTranscript:
    """Read a transcript back; an unknown scheme, a missing or unknown field,
    or a field of the wrong type or shape, raises ``ValueError`` naming it.
    The broadcasts are checked a column at a time (``_columns``); only when
    that refuses them are they read one by one, to name the first fault."""
    expect_json(obj, dict, "transcript")
    spec = obj.get("spec")
    if type(spec) is not dict or spec.keys() != set(SPEC_KEYS):
        raise ValueError(f"transcript spec: expected an object with keys "
                         f"{', '.join(SPEC_KEYS)}, got {spec!r}")
    spec = JobSpec(**spec)
    scheme = expect_json(obj.get("scheme"), str, "transcript scheme")
    if scheme not in _META_KEYS:
        raise ValueError(f"transcript scheme {scheme!r}: expected one of {', '.join(SCHEMES)}")
    raw = expect_json(obj.get("broadcasts"), list, "transcript broadcasts")
    if len(obj) != 3:
        raise ValueError("transcript "
                         + unknown_field(obj, ("scheme", "spec", "broadcasts"), "transcript"))
    cols = _columns(raw, scheme)
    if cols is None:
        for i, b in enumerate(raw):
            _check_broadcast(i, b, scheme, _META_KEYS[scheme])
        raise ValueError("transcript broadcasts: the column check refused broadcasts "
                         "that each pass the per-broadcast check")
    return ShuffleTranscript(scheme, spec, cols)


def _columns(raw: list, scheme: str) -> Broadcasts | None:
    """The columns of ``raw``, broadcasts of ``scheme``, or ``None`` when any
    of them breaks a rule of ``_check_broadcast``.  Each check is one pass
    over a field of every broadcast: a rule per broadcast cost a Python-level
    step each, most of the reader's time on a fixture of many broadcasts."""
    keys = _META_KEYS[scheme]
    try:
        if not (_exactly(dict, raw) and set(map(len, raw)) <= {len(_BROADCAST_KEYS)}
                and countOf(map(itemgetter("kind"), raw), scheme) == len(raw)):
            return None
        senders, metas, payloads = (list(map(itemgetter(key), raw))
                                    for key in ("sender", "meta", "payloads"))
        if not (_exactly(int, senders) and _exactly(dict, metas)
                and set(map(len, metas)) <= {len(keys)} and _exactly(list, payloads)):
            return None
        meta = {key: list(map(itemgetter(key), metas)) for key in keys}
        groups = meta.get("group")
        if groups is not None:
            if not (_exactly(list, groups) and _exactly(int, chain.from_iterable(groups))):
                return None
            meta["group"] = list(map(tuple, groups))  # as the shuffle sends it
        if not all(_exactly(int, meta[key]) for key in keys if key != "group"):
            return None
        flat = list(chain.from_iterable(payloads))
        if not (_exactly(dict, flat) and set(map(len, flat)) <= {2}):
            return None
        nbits, hexes = list(map(itemgetter("bits"), flat)), list(map(itemgetter("hex"), flat))
        if not (_exactly(int, nbits) and _exactly(str, hexes)):
            return None
        values = list(map(int, hexes, repeat(16)))
        # a negative width raises ValueError, and a negative value shifts to
        # -1, so it does not fit.  Every string int(_, 16) reads has at least
        # as many characters as its value's canonical digits, so equal joined
        # texts force equal lengths one by one, hence each hex canonical
        canonical = ("%x" * len(values)) % tuple(values)
        if any(map(rshift, values, nbits)) or "".join(hexes) != canonical:
            return None
    except (KeyError, TypeError, ValueError):
        return None
    return Broadcasts(senders, meta, list(map(len, payloads)), nbits, values)


def _exactly(kind: type, column) -> bool:
    """Whether every item of ``column`` is of exactly the type ``kind``."""
    return set(map(type, column)) <= {kind}


def _check_broadcast(i: int, b, scheme: str, keys: tuple) -> None:
    """Raise the ``ValueError`` that names broadcast ``i``'s first fault, if it
    has one: ``b`` must be a broadcast object of ``scheme`` with meta ``keys``."""
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
        for payload in b["payloads"]:
            _payload_from_json(payload)
    except ValueError as exc:
        raise ValueError(f"broadcast {i}: {exc}") from None


def _render(o, nl: str, write, slots: bool = False) -> None:
    """Pass ``o`` to ``write`` in pieces, in document order, as
    ``json.dumps(o, sort_keys=True, indent=2)`` renders it, a ``Rows`` as the
    list of its rows, where ``nl`` is the newline and indent of the line ``o``
    starts on.  ``slots`` is set for a ``Rows`` skeleton, which alone may
    hold a ``Slot``."""
    # Containers are walked here, item by item, and exact ints and strs,
    # nearly every leaf of a transcript, are written without a call.  Any
    # other leaf or key is json's own text, and json's TypeError for what it
    # cannot write; json sorts the items first, then writes a non-str key as text.
    inner = nl + "  "
    if isinstance(o, dict):
        # each key is written just before its value, as json writes them
        opener, closer = "{", "}"
        items = (((_quote(k) if type(k) is str else json.dumps({k: 0})[1:-4]) + ": ", v)
                 for k, v in sorted(o.items()))
    elif isinstance(o, (list, tuple)):
        # a list of exact ints and strs only, such as a cdc group, is one piece from one
        # comprehension: item by item, the general-s cdc fixture write took 4.1 ms, not 3.1
        texts = [_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else None
                 for v in o]
        if o and None not in texts:
            return write("[" + inner + ("," + inner).join(texts) + nl + "]")
        opener, closer, items = "[", "]", zip(repeat(""), o)
    elif type(o) is Rows:
        return _render_rows(o, nl, write)
    elif type(o) is Slot and slots:
        # _quote escapes NUL, so only a slot marker has one: it holds its
        # value's nl, or "x" for a hex slot, whose value is a string leaf
        return write("\0" + _quote(o.name) + "\0" + ("x" if o.hex else nl) + "\0")
    else:
        return write(json.dumps(o))
    if not o:
        return write(opener + closer)
    sep = opener + inner
    for head, v in items:
        if type(v) is str:
            write(sep + head + _quote(v))
        elif type(v) is int:
            write(sep + head + int.__repr__(v))
        else:
            write(sep + head)
            _render(v, inner, write, slots)
        sep = "," + inner
    write(nl + closer)


def _text(o, nl: str, slots: bool = False) -> str:
    """``o`` as ``_render`` writes it, as one string: for a skeleton or one
    row's value, whose few pieces a list joins faster than a ``StringIO``."""
    pieces = []
    _render(o, nl, pieces.append, slots)
    return "".join(pieces)


def _render_rows(rows: Rows, nl: str, write) -> None:
    """Write ``rows`` as ``_render`` writes the list of its rows: the skeleton
    is rendered once into a ``%``-template with a hole per slot, filled a row
    at a time, each chunk of rows one piece.  A column of exact ints is a
    ``%d`` hole, or ``"%x"`` for a hex slot (which refuses any other column
    with ``TypeError``), fed the column itself.  Any other column is a ``%s``
    hole: exact strs quoted, tuples of exact ints, such as a cdc ``group``,
    rendered once per distinct tuple, other cells one by one."""
    lengths = {len(column) for column in rows.columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"Rows columns of {sorted(lengths)} values, expected one length")
    if not (n := max(lengths, default=0)):
        return write("[]")
    inner = nl + "  "
    # text, then each slot's quoted name and its value's newline and indent
    # ("x" for a hex slot)
    parts = _text(rows.skeleton, inner, True).split("\0")
    by_marker = {_quote(name): column for name, column in rows.columns.items()}
    holes, filled = [], []
    for marker, value_nl in zip(parts[1::3], parts[2::3]):
        if marker not in by_marker:
            raise ValueError(f"Rows slot {json.loads(marker)!r} names no column, "
                             f"expected one of {list(rows.columns)}")
        column = by_marker[marker]
        kinds = set(map(type, column))
        if kinds == {int}:
            # "%x" writes the digits f"{value:x}" writes, "%d" int.__repr__'s
            holes.append('"%x"' if value_nl == "x" else "%d")
            filled.append(column)
            continue
        if value_nl == "x":
            raise TypeError(f"hex slot {json.loads(marker)!r} over a column of "
                            f"{', '.join(sorted(kind.__name__ for kind in kinds))}, "
                            "expected exact ints")
        holes.append("%s")
        if kinds == {str}:
            filled.append(map(_quote, column))
        elif kinds == {tuple} and set(map(type, chain.from_iterable(column))) <= {int}:
            # a cdc group: one text per distinct group, not per row.  Only
            # exact ints, as (True, 2) and (1.0, 2) equal (1, 2) as keys
            texts = {value: _text(value, value_nl) for value in dict.fromkeys(column)}
            filled.append(map(texts.__getitem__, column))
        else:
            filled.append(map(_text, column, repeat(value_nl)))
    consts = [text.replace("%", "%%") for text in parts[::3]]
    template = "".join(map(str.__add__, consts, holes)) + consts[-1]
    lines = map(template.__mod__, zip(*filled)) if filled else repeat(template % (), n)
    sep = "," + inner
    head = "[" + inner
    while chunk := sep.join(islice(lines, _ROWS_PER_CHUNK)):
        write(head)
        write(chunk)
        head = sep
    write(nl + "]")


def write_json(obj, fh) -> None:
    """Write ``obj`` to the open text file ``fh`` as ``dump_json`` renders it,
    piece by piece, so the whole text is never held; the trailing newline is
    its own piece."""
    _render(obj, "\n", fh.write)
    fh.write("\n")


def dump_json(obj) -> str:
    """Canonical JSON rendering used for every artifact this package writes.

    The text of a plain value is exactly ``json.dumps(obj, sort_keys=True,
    indent=2) + "\\n"``: sorted keys, 2-space indent, ASCII escapes and a
    trailing newline.  A ``Rows`` value is written as the list of its rows,
    each from one template of its skeleton, in chunks of rows, so no list of
    every row is held.  The pieces go into one ``io.StringIO``: a list of
    every piece would hold each piece's object as well.  ``write_json``
    writes the same text to a file.  Unlike ``json.dumps``, a document that
    contains itself raises ``RecursionError``; the package never builds one.
    """
    out = io.StringIO()
    write_json(obj, out)
    return out.getvalue()
