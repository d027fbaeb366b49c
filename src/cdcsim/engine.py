"""Map -> shuffle -> reduce orchestration over an error-free broadcast bus.

The network model is a zero-latency lossless broadcast: every payload a node
sends is visible to all others and the only cost tracked is its exact bit
length.  A run produces a transcript of every broadcast, per-node bit
counters, and (for single-copy reduce) reduce outputs, one node at a time from
the values it decoded, and a pass/fail comparison against a single-machine reference.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate, combinations, islice, product
from json.encoder import encode_basestring_ascii as _quote
from math import comb, inf as _INF

from .codec import (
    IncompleteShuffleError,
    build_vset,
    decode_cdc_s1,
    encode_cdc,
    full_message,
    groups_containing,
    ld_compress,
    ld_decompress,
    message_width,
    multicast_coverage,
    own_columns,
    require_complete,
    segment_width,
)
from .gf2 import BasisDecomposition, Gf2Matrix, rank_and_basis
from .placement import (JobSpec, Placement, group_sizes, ksubsets, make_placement, needed_values,
                        unmapped_files)
from .workloads import ValueTable

# scheme -> the name of its shuffle, looked up when a job runs, so that a
# wrapper installed on the module attribute (perfbench's tracer) is the one run
_SHUFFLES = {"uncoded": "run_uncoded_shuffle", "cdc": "run_cdc_shuffle",
             "cdc-ld": "run_cdc_ld_shuffle"}
SCHEMES = tuple(_SHUFFLES)

# the fields of a serialised spec and of every broadcast, and the meta fields
# of each scheme
_SPEC_KEYS = tuple(f.name for f in fields(JobSpec))
_BROADCAST_KEYS = ("sender", "kind", "meta", "payloads")
_META_KEYS = {"uncoded": ("q", "n"), "cdc": ("group", "component"),
             "cdc-ld": ("ell", "rho", "msg_len")}


class UnsupportedCombinationError(ValueError):
    """Scheme cannot run with these parameters (e.g. uncoded with s >= 2)."""


@dataclass
class Broadcasts:
    """A transcript's broadcasts as columns: per broadcast its sender, kind and
    payload count, and a column per meta field of its scheme (``_META_KEYS``);
    per payload, in broadcast order, its width and value."""

    senders: list[int]
    kinds: list[str]
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
        if self.scheme == "uncoded" and self.spec.s != 1:
            raise UnsupportedCombinationError(
                f"uncoded shuffle is defined only for s=1, got s={self.spec.s}")

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
    spec: JobSpec
    scheme: str
    transcript: ShuffleTranscript
    bits_by_node: dict[int, int]
    load_empirical: Fraction
    rho: dict[tuple[int, int], int] | None
    outputs: dict[int, dict[int, int]] | None
    reference: dict[int, int] | None
    verification: str  # "pass" | "fail" | "not-applicable"


def run_uncoded_shuffle(spec: JobSpec, placement: Placement,
                        store: ValueTable) -> ShuffleTranscript:
    """Ship every needed value plainly; the smallest node holding the file sends."""
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
        senders, ["uncoded"] * m, {"q": qs, "n": ns}, [1] * m, [spec.T] * m, values))


def run_cdc_shuffle(spec: JobSpec, placement: Placement,
                    store: ValueTable) -> ShuffleTranscript:
    senders, groups, components, nbits, values = [], [], [], [], []
    for ell in group_sizes(spec.K, spec.r, spec.s):
        width = segment_width(spec, ell)
        for group in ksubsets(spec.K, ell):
            for k in group:
                for index, payload in enumerate(encode_cdc(k, group, placement, store), 1):
                    senders.append(k)
                    groups.append(list(group))
                    components.append(index)
                    nbits.append(width)
                    values.append(payload)
    m = len(senders)
    return ShuffleTranscript("cdc", spec, Broadcasts(
        senders, ["cdc"] * m, {"group": groups, "component": components}, [1] * m, nbits, values))


def run_cdc_ld_shuffle(spec: JobSpec, placement: Placement,
                       store: ValueTable) -> ShuffleTranscript:
    """Per node and group size, broadcast a subspace basis plus coefficients."""
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
        senders, ["cdc-ld"] * len(senders), {"ell": ells, "rho": rhos, "msg_len": msg_lens},
        counts, nbits, values))


def validate_transcript(spec: JobSpec, placement: Placement,
                        transcript: ShuffleTranscript) -> list | dict:
    """Check that a transcript holds, one to one, the broadcasts its scheme
    sends for this job, and return their payloads.

    uncoded (s=1 only) sends one T-bit payload per needed (q, n), from a node
    that mapped file n, returned as a list of Q*N slots: the value of (q, n)
    at index (q-1)*N + n-1, ``None`` where nothing was sent.  cdc sends one
    ``segment_width``-bit payload per (sender, group, component), returned
    by that key as its value; cdc-ld per (sender, ell) rho independent basis
    rows of msg_len = ``message_width`` bits and C(K-1, ell-1) coefficient
    rows of rho bits, returned by (sender, ell) as a ``BasisDecomposition``.  Every payload value must fit in its width.  A bad
    or repeated broadcast raises ``ValueError``, a missing one
    ``IncompleteShuffleError``.
    """
    scheme, K, r = transcript.scheme, spec.K, spec.r
    sizes = group_sizes(K, r, spec.s)
    cols = transcript.broadcasts
    nbits, values = cols.nbits, cols.values
    if scheme == "uncoded":
        N = spec.N
        reducer = {q: k for k, qs in placement.node_funcs.items() for q in qs}  # q's only one
        slots: list = [None] * (spec.Q * N)
        for i, (sender, kind, q, n, count) in enumerate(
                zip(cols.senders, cols.kinds, cols.meta["q"], cols.meta["n"], cols.counts)):
            mappers = placement.batch_of_file.get(n, ())
            # every earlier broadcast has one payload, so this one's is payload i
            if (kind != scheme or q not in reducer or reducer[q] in mappers
                    or sender not in mappers):
                raise _rejected(i, i, cols, scheme)
            at = (q - 1) * N + n - 1
            if count != 1 or nbits[i] != spec.T or slots[at] is not None or values[i] >> spec.T:
                key = q, n
                raise _rejected(i, i, cols, scheme, key, [spec.T],
                                () if slots[at] is None else (key,))
            slots[at] = values[i]
        # each broadcast filled one slot
        if len(cols.senders) < sum(N - len(placement.node_files[k]) for k in reducer.values()):
            raise IncompleteShuffleError([(q, n) for k in range(1, K + 1)
                                          for q, n in needed_values(placement, k)
                                          if slots[(q - 1) * N + n - 1] is None])
        return slots
    got: dict = {}
    if scheme == "cdc":
        keys = {(j, g, c) for ell in sizes for g in ksubsets(K, ell) for j in g
                for c in range(1, comb(ell - 2, r - 1) + 1)}
    elif scheme == "cdc-ld":
        keys = {(j, ell) for j in range(1, K + 1) for ell in sizes}
    else:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    widths = {ell: segment_width(spec, ell) for ell in sizes}
    end = 0
    for i, (sender, kind, count, meta) in enumerate(zip(
            cols.senders, cols.kinds, cols.counts,
            zip(*[cols.meta[field] for field in _META_KEYS[scheme]]))):
        first, end = end, end + count
        if scheme == "cdc":
            # element types first: a list inside the group cannot be hashed
            group, component = meta
            key = ((sender, tuple(group), component)
                   if type(group) is list and all(type(j) is int for j in group) else None)
        else:
            ell, rho, msg_len = meta
            key = (sender, ell)
        if kind != scheme or key not in keys:
            raise _rejected(i, first, cols, scheme)
        ell = len(group) if scheme == "cdc" else ell
        lengths = [widths[ell]]
        if scheme == "cdc-ld":
            ncols = message_width(spec, ell)
            if msg_len != ncols or not 0 <= rho <= ncols:
                raise ValueError(f"broadcast {i}: msg_len {msg_len} and rho {rho}, "
                                 f"expected msg_len {ncols} and rho in 0..{ncols}")
            lengths = [ncols] * rho + [rho] * comb(K - 1, ell - 1)
        rows = tuple(values[first:end])
        if (nbits[first:end] != lengths or key in got
                or any(v >> n for v, n in zip(rows, lengths))):
            raise _rejected(i, first, cols, scheme, key, lengths, got)
        if scheme == "cdc":
            got[key] = rows[0]
        elif (rank := rank_and_basis(Gf2Matrix(rows[:rho], ncols)).rho) != rho:
            raise ValueError(f"broadcast {i}: its {rho} basis rows have rank {rank}")
        else:
            got[key] = BasisDecomposition(basis=rows[:rho], coeffs=rows[rho:], ncols=ncols)
    if len(got) < len(keys):
        # the value sets the sender of a missing broadcast holds a segment of
        lost = [(j, g) for j, g, _ in keys - got.keys()] if scheme == "cdc" else [
            (j, g) for j, ell in keys - got.keys() for g in groups_containing(spec, j, ell)]
        raise IncompleteShuffleError([qn for j, g in lost for h in combinations(g, r)
                                      if j in h for qn in product(*build_vset(g, h, placement))])
    return got


def _rejected(i: int, first: int, cols: Broadcasts, scheme: str, key=None, lengths=(),
              got=()) -> ValueError:
    """Why broadcast i, whose payloads start at payload ``first``, is not one
    of the job's: its kind, sender or key, else a repeated key, else its
    payload lengths, else the first payload value that does not fit its length."""
    meta = {field: column[i] for field, column in cols.meta.items()}
    bits = cols.nbits[first:first + cols.counts[i]]
    why = (f"{cols.kinds[i]} {meta} from node {cols.senders[i]} is not one of the job's "
           f"{scheme} broadcasts" if key is None else f"second broadcast for {key}" if key in got
           else f"payloads of {bits} bits for {key}, expected {lengths}"
           if bits != lengths else next(
               f"payload {j} for {key} does not fit in {n} bits"
               for j, (v, n) in enumerate(zip(cols.values[first:], bits)) if v >> n))
    return ValueError(f"broadcast {i}: {why}")


def node_decoder(spec: JobSpec, placement: Placement, store: ValueTable, scheme: str,
                 got) -> Callable[[int], list[int]]:
    """A function from node k to node k's table (``codec.own_columns``):
    its functions' values on every file, the values it needs decoded from
    ``got``, what ``validate_transcript`` returned for an s=1 transcript.  A
    coded node decodes its own values with ``decode_cdc_s1`` on each call."""
    if scheme == "uncoded":
        # every node hears every broadcast, and reads its functions' slots
        def table_of(k: int) -> list[int]:
            funcs, N = placement.node_funcs[k], spec.N
            return own_columns(k, placement, store,
                               got[(funcs[0] - 1) * N:funcs[-1] * N])
        return table_of
    # at s=1 every cdc broadcast is component 1 of its group's message
    if scheme == "cdc":
        received = {(j, group): p for (j, group, _), p in got.items()}
    else:
        received = {(j, group): msg for (j, ell), d in got.items()
                    for group, msg in zip(groups_containing(spec, j, ell), ld_decompress(d))}
    return lambda k: decode_cdc_s1(k, received, store, placement)


def reduce_phase(spec: JobSpec, placement: Placement, k: int, table: list[int],
                 workload) -> dict[int, int]:
    """Node k's reduce outputs: each of its functions evaluated on the
    function's row of node k's table (``codec.own_columns``).  A value the
    table lacks (``None``) raises ``IncompleteShuffleError`` naming node k
    and every (q, n) it lacks."""
    N = spec.N
    require_complete(k, placement, table)
    return {q: workload.reduce(q, table[i * N:(i + 1) * N], spec.T)
            for i, q in enumerate(placement.node_funcs[k])}


def decode_and_verify(spec: JobSpec, placement: Placement, store: ValueTable,
                      transcript: ShuffleTranscript, workload):
    """Validate a transcript with ``validate_transcript``, then one node at a
    time decode its table (``node_decoder``) and reduce (``reduce_phase``),
    and compare every output to the reference.

    Returns (outputs, reference, verification).  With s >= 2 no decoder
    exists: the multicast structure is checked to cover every node's demand
    set and the result is (None, None, "not-applicable").
    """
    got = validate_transcript(spec, placement, transcript)
    if spec.s != 1:
        # demand and coverage per (function, file batch); a miss is named by
        # its (q, n) pairs
        batches = placement.file_batches
        for k, covered in multicast_coverage(placement).items():
            needed = {(q, b) for b in batches if k not in b for q in placement.node_funcs[k]}
            if missed := needed - covered:
                pairs = sorted((q, n) for q, b in missed for n in batches[b])
                raise AssertionError(f"multicast structure misses {pairs} for node {k}")
        return None, None, "not-applicable"

    table_of = node_decoder(spec, placement, store, transcript.scheme, got)
    outputs = {k: reduce_phase(spec, placement, k, table_of(k), workload)
               for k in range(1, spec.K + 1)}
    reference = {q: workload.reduce(q, store.row(q), spec.T) for q in range(1, spec.Q + 1)}
    ok = all(v == reference[q] for out in outputs.values() for q, v in out.items())
    return outputs, reference, "pass" if ok else "fail"


def run(spec: JobSpec, workload, scheme: str) -> RunResult:
    """Execute one full job under the given shuffle scheme, then decode,
    reduce and verify it with ``decode_and_verify`` (accounting and a
    structural check only at s >= 2)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")

    placement = make_placement(spec)
    store = workload.build_store(spec)
    transcript = globals()[_SHUFFLES[scheme]](spec, placement, store)
    bits = transcript.bits_by_node()
    load = Fraction(sum(bits.values()), spec.Q * spec.N * spec.T)
    # decode_and_verify returns the last three fields in order
    return RunResult(spec, scheme, transcript, bits, load, transcript.ranks(),
                     *decode_and_verify(spec, placement, store, transcript, workload))


# --- transcript serialization (JSON metadata + hex payloads) -----------------

_JSON_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def expect_json(value, kind: type, field: str):
    """``value`` when its type is ``kind``; otherwise ``ValueError`` naming ``field``."""
    if type(value) is not kind:
        raise ValueError(f"{field}: expected {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def _payload_from_json(obj: dict) -> tuple[int, int]:
    """The (bits, value) of a payload object: a non-negative width and a value
    that fits in it."""
    if type(obj) is dict:
        bits, digits = obj.get("bits"), obj.get("hex")
        if type(bits) is int and type(digits) is str:
            value = int(digits, 16)
            if bits < 0:
                raise ValueError(f"negative bit length {bits}")
            if value < 0 or value >> bits:
                raise ValueError(f"value 0x{value:x} does not fit in {bits} bits")
            # int(_, 16) also reads "0x3", " 3 ", "0_3", "03", "+3", "A" and
            # non-ASCII digits.  A string it reads with exactly as many
            # characters as the value has hex digits holds those digits alone,
            # so it is canonical when it is ASCII and lowercase as well; this
            # costs less than comparing with hex(value) on long payloads.
            if not (digits.isascii() and len(digits) == ((value.bit_length() + 3) // 4 or 1)
                    and digits.lower() == digits):
                raise ValueError(f"payload hex {digits!r} is not written as '{value:x}'")
            return bits, value
    raise ValueError(f"payload {obj!r} is not an object with an int 'bits' and a str 'hex'")


def transcript_to_json(transcript: ShuffleTranscript) -> dict:
    cols = transcript.broadcasts
    # filled a field at a time: building each with dict(zip(...)) took the
    # paper-fig4 uncoded transcript_to_json about 20 % longer
    metas = [{} for _ in cols.senders]
    for name, column in cols.meta.items():
        for meta, value in zip(metas, column):
            meta[name] = value
    payloads = [{"bits": bits, "hex": f"{value:x}"} for bits, value in zip(cols.nbits, cols.values)]
    broadcasts = [
        {"sender": sender, "kind": kind, "meta": meta, "payloads": payloads[first:first + count]}
        for sender, kind, meta, count, first in zip(
            cols.senders, cols.kinds, metas, cols.counts, accumulate(cols.counts, initial=0))]
    return {"scheme": transcript.scheme, "spec": transcript.spec.as_dict(),
            "broadcasts": broadcasts}


def transcript_from_json(obj: dict) -> ShuffleTranscript:
    """Read a transcript back; an unknown scheme, or a field of the wrong type
    or shape, raises ``ValueError`` naming it."""
    expect_json(obj, dict, "transcript")
    spec = obj.get("spec")
    if type(spec) is not dict or spec.keys() != set(_SPEC_KEYS):
        raise ValueError(f"transcript spec: expected an object with keys "
                         f"{', '.join(_SPEC_KEYS)}, got {spec!r}")
    spec = JobSpec(**spec)
    scheme = expect_json(obj.get("scheme"), str, "transcript scheme")
    if scheme not in _META_KEYS:
        raise ValueError(f"transcript scheme {scheme!r}: expected one of {', '.join(SCHEMES)}")
    keys = _META_KEYS[scheme]
    raw = expect_json(obj.get("broadcasts"), list, "transcript broadcasts")
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
        if type(meta) is not dict:
            raise ValueError(f"broadcast {i}: meta {meta!r} is not an object")
        if type(b["payloads"]) is not list:
            raise ValueError(f"broadcast {i}: payloads {b['payloads']!r} is not a list")
        for key in keys:
            if key not in meta:
                raise ValueError(f"broadcast {i}: meta has no {key!r}")
            if key != "group" and type(meta[key]) is not int:
                raise ValueError(f"broadcast {i}: meta {key} {meta[key]!r} is not an int")
        if len(meta) != len(keys):
            extra = next(key for key in meta if key not in keys)
            raise ValueError(f"broadcast {i}: meta {extra!r} is not one of the {scheme} "
                             f"meta fields {', '.join(keys)}")
        try:
            for bits, value in map(_payload_from_json, b["payloads"]):
                nbits.append(bits)
                values.append(value)
        except ValueError as exc:
            raise ValueError(f"broadcast {i}: {exc}") from None
    # one column at a time from the checked broadcasts: appending to five
    # lists side by side left the wordcount-replay benchmark's replay 4 MB
    # more peak RSS
    return ShuffleTranscript(scheme, spec, Broadcasts(
        [b["sender"] for b in raw], [b["kind"] for b in raw],
        {key: [b["meta"][key] for b in raw] for key in keys},
        [len(b["payloads"]) for b in raw], nbits, values))


def _key(k) -> str:
    # json sorts the keys first, then writes a number, bool or None key as
    # the quoted text of the value
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _render(k, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _render(o, nl: str) -> str:
    """``o`` as ``json.dumps(o, sort_keys=True, indent=2)`` renders it, where
    ``nl`` is the newline and indent of the line ``o`` starts on."""
    # No object is two of dict, list, tuple, str, int and float, so testing
    # containers first gives json's text.  Exact ints and strs, nearly every
    # leaf of a transcript, are rendered in the item loop without a call.
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + inner + ("," + inner).join([
            (_quote(k) if type(k) is str else _key(k)) + ": "
            + (_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int
               else _render(v, inner)) for k, v in sorted(o.items())]) + nl + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _quote(v) if type(v) is str else int.__repr__(v) if type(v) is int
            else _render(v, inner) for v in o]) + nl + "]"
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        return "Infinity" if o == _INF else "-Infinity" if o == -_INF else float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dump_json(obj: dict) -> str:
    """Canonical JSON rendering used for every artifact this package writes.

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``:
    sorted keys, 2-space indent, ASCII escapes and a trailing newline.  Each
    container is joined once, so no list of every small chunk is held.  Unlike
    ``json.dumps``, a document that contains itself raises ``RecursionError``;
    the package never builds one.
    """
    return _render(obj, "\n") + "\n"
