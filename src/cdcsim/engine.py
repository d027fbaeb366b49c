"""Map -> shuffle -> reduce orchestration over an error-free broadcast bus.

The network model is a zero-latency lossless broadcast: every payload a node
sends is visible to all others and the only cost tracked is its exact bit
length.  A run produces a transcript of every broadcast, per-node bit
counters, and (for single-copy reduce) decoded values, reduce outputs, and a
pass/fail comparison against a single-machine reference.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote
from math import comb, inf as _INF
from typing import Mapping

from .codec import (
    IncompleteShuffleError,
    build_vset,
    decode_cdc_s1,
    encode_cdc,
    full_message,
    groups_containing,
    ld_compress,
    ld_decompress,
    multicast_coverage,
    segment_width,
)
from .gf2 import BasisDecomposition, BitVec
from .placement import JobSpec, Placement, group_sizes, ksubsets, make_placement, needed_values
from .workloads import Store

SCHEMES = ("uncoded", "cdc", "cdc-ld")

# the fields of a serialised spec and of every broadcast, and the meta fields
# of each scheme
_SPEC_KEYS = tuple(f.name for f in fields(JobSpec))
_BROADCAST_KEYS = ("sender", "kind", "meta", "payloads")
_META_KEYS = {"uncoded": ("q", "n"), "cdc": ("group", "component"),
             "cdc-ld": ("ell", "rho", "msg_len")}


class UnsupportedCombinationError(ValueError):
    """Scheme cannot run with these parameters (e.g. uncoded with s >= 2)."""


@dataclass
class Broadcast:
    """One on-air transmission: who sent it, what it is, and its payload bits."""

    sender: int
    kind: str
    meta: dict
    payloads: tuple[BitVec, ...]

    @property
    def bits(self) -> int:
        return sum(p.nbits for p in self.payloads)


@dataclass
class ShuffleTranscript:
    scheme: str
    spec: JobSpec
    broadcasts: list[Broadcast]

    def bits_by_node(self) -> dict[int, int]:
        counts = {k: 0 for k in range(1, self.spec.K + 1)}
        for b in self.broadcasts:
            counts[b.sender] += b.bits
        return counts


@dataclass
class RunResult:
    spec: JobSpec
    scheme: str
    transcript: ShuffleTranscript
    bits_by_node: dict[int, int]
    load_empirical: Fraction
    rho: dict[tuple[int, int], int] | None
    outputs: dict[int, dict[int, object]] | None
    reference: dict[int, object] | None
    recovered: dict[int, dict[tuple[int, int], int]] | None
    verification: str  # "pass" | "fail" | "not-applicable"


def run_uncoded_shuffle(spec: JobSpec, placement: Placement,
                        store: Store) -> ShuffleTranscript:
    """Ship every needed value plainly; the smallest node holding the file sends."""
    if spec.s != 1:
        raise UnsupportedCombinationError(f"uncoded shuffle is defined only for s=1, got s={spec.s}")
    broadcasts = []
    for k in range(1, spec.K + 1):
        for (q, n) in sorted(needed_values(placement, k)):
            sender = placement.batch_of_file[n][0]
            broadcasts.append(Broadcast(
                sender=sender,
                kind="uncoded",
                meta={"q": q, "n": n},
                payloads=(BitVec(store[(q, n)], spec.T),),
            ))
    return ShuffleTranscript("uncoded", spec, broadcasts)


def run_cdc_shuffle(spec: JobSpec, placement: Placement,
                    store: Store) -> ShuffleTranscript:
    broadcasts = []
    for ell in group_sizes(spec.K, spec.r, spec.s):
        for group in ksubsets(spec.K, ell):
            for k in group:
                for index, payload in enumerate(encode_cdc(k, group, placement, store), 1):
                    broadcasts.append(Broadcast(
                        sender=k,
                        kind="cdc",
                        meta={"group": list(group), "component": index},
                        payloads=(payload,),
                    ))
    return ShuffleTranscript("cdc", spec, broadcasts)


def run_cdc_ld_shuffle(spec: JobSpec, placement: Placement,
                       store: Store) -> tuple[ShuffleTranscript, dict]:
    """Per node and group size, broadcast a subspace basis plus coefficients."""
    broadcasts = []
    rho: dict[tuple[int, int], int] = {}
    for k in range(1, spec.K + 1):
        for ell in group_sizes(spec.K, spec.r, spec.s):
            messages = [full_message(k, g, placement, store)
                        for g in groups_containing(spec, k, ell)]
            d = ld_compress(ell, messages, spec)
            rho[(k, ell)] = d.rho
            broadcasts.append(Broadcast(
                sender=k,
                kind="cdc-ld",
                meta={"ell": ell, "rho": d.rho, "msg_len": d.ncols},
                payloads=d.basis + d.coeffs,
            ))
    return ShuffleTranscript("cdc-ld", spec, broadcasts), rho


def validate_transcript(spec: JobSpec, placement: Placement,
                        transcript: ShuffleTranscript) -> dict:
    """Check that a transcript holds, one to one, the broadcasts its scheme
    sends for this job, and return their payloads by key.

    uncoded sends one T-bit payload per needed (q, n), from a node that mapped
    file n; cdc one ``segment_width``-bit payload per (sender, group,
    component); cdc-ld per (sender, ell) rho basis rows of msg_len =
    segment_width * C(ell-2, r-1) bits and C(K-1, ell-1) coefficient rows of
    rho bits, returned as a ``BasisDecomposition``.  A bad or repeated
    broadcast raises ``ValueError``, a missing one ``IncompleteShuffleError``.
    """
    scheme, K, r = transcript.scheme, spec.K, spec.r
    sizes = group_sizes(K, r, spec.s)
    got: dict = {}
    if scheme == "uncoded":
        mapped = {}  # per function, the files all its reducers mapped
        for batch, qs in placement.reduce_batches.items():
            mapped.update(dict.fromkeys(qs, set.intersection(
                *[set(placement.node_files[j]) for j in batch])))
        for i, b in enumerate(transcript.broadcasts):
            key = q, n = b.meta["q"], b.meta["n"]
            if (b.kind != scheme or q not in mapped or n in mapped[q]
                    or b.sender not in placement.batch_of_file.get(n, ())):
                raise _rejected(i, b, scheme)
            if len(b.payloads) != 1 or b.payloads[0].nbits != spec.T or key in got:
                raise _rejected(i, b, scheme, key, [spec.T], got)
            got[key] = b.payloads[0]
        if len(got) < sum(spec.N - len(files) for files in mapped.values()):
            raise IncompleteShuffleError([qn for k in range(1, K + 1)
                                          for qn in needed_values(placement, k) if qn not in got])
        return got
    if scheme == "cdc":
        keys = {(j, g, c) for ell in sizes for g in ksubsets(K, ell) for j in g
                for c in range(1, comb(ell - 2, r - 1) + 1)}
    elif scheme == "cdc-ld":
        keys = {(j, ell) for j in range(1, K + 1) for ell in sizes}
    else:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    widths = {ell: segment_width(spec, ell) for ell in sizes}
    for i, b in enumerate(transcript.broadcasts):
        meta = b.meta
        if scheme == "cdc":
            # element types first: a list inside the group cannot be hashed
            group = meta["group"]
            key = ((b.sender, tuple(group), meta["component"])
                   if type(group) is list and all(type(j) is int for j in group) else None)
        else:
            key = (b.sender, meta["ell"])
        if b.kind != scheme or key not in keys:
            raise _rejected(i, b, scheme)
        ell = len(group) if scheme == "cdc" else key[1]
        lengths = [widths[ell]]
        if scheme == "cdc-ld":
            rho, ncols = meta["rho"], widths[ell] * comb(ell - 2, r - 1)
            if meta["msg_len"] != ncols or not 0 <= rho <= ncols:
                raise ValueError(f"broadcast {i}: msg_len {meta['msg_len']} and rho {rho}, "
                                 f"expected msg_len {ncols} and rho in 0..{ncols}")
            lengths = [ncols] * rho + [rho] * comb(K - 1, ell - 1)
        if [p.nbits for p in b.payloads] != lengths or key in got:
            raise _rejected(i, b, scheme, key, lengths, got)
        got[key] = b.payloads[0] if scheme == "cdc" else BasisDecomposition(
            basis=b.payloads[:rho], coeffs=b.payloads[rho:], rho=rho, ncols=ncols)
    if len(got) < len(keys):
        # the value sets the sender of a missing broadcast holds a segment of
        lost = [(j, g) for j, g, _ in keys - got.keys()] if scheme == "cdc" else [
            (j, g) for j, ell in keys - got.keys() for g in groups_containing(spec, j, ell)]
        raise IncompleteShuffleError([qn for j, g in lost for h in combinations(g, r)
                                      if j in h for qn in build_vset(g, h, placement)])
    return got


def _rejected(i: int, b: Broadcast, scheme: str, key=None, lengths=(), got=()) -> ValueError:
    """Why broadcast i is not one of the job's: its kind, sender or key, else
    a repeated key, else its payload lengths."""
    why = (f"{b.kind} {b.meta} from node {b.sender} is not one of the job's {scheme} broadcasts"
           if key is None else f"second broadcast for {key}" if key in got
           else f"payloads of {[p.nbits for p in b.payloads]} bits for {key}, expected {lengths}")
    return ValueError(f"broadcast {i}: {why}")


def reduce_phase(spec: JobSpec, placement: Placement, store: Store,
                 recovered: Mapping[int, Mapping[tuple[int, int], int]],
                 workload) -> dict[int, dict[int, object]]:
    """Evaluate each node's reduce functions: the values of the files a node
    mapped come from the store, the rest from what it recovered."""
    files = range(1, spec.N + 1)
    outputs: dict[int, dict[int, object]] = {}
    for k in range(1, spec.K + 1):
        own = set(placement.node_files[k])
        got = recovered[k]
        node_out: dict[int, object] = {}
        for q in placement.node_funcs[k]:
            try:
                held = [store[(q, n)] if n in own else got[(q, n)] for n in files]
            except KeyError:
                raise IncompleteShuffleError(
                    [(q, n) for n in files if n not in own and (q, n) not in got]) from None
            node_out[q] = workload.reduce(q, held, spec.T)
        outputs[k] = node_out
    return outputs


def decode_and_verify(spec: JobSpec, placement: Placement, store: Store,
                      transcript: ShuffleTranscript, workload):
    """Validate a transcript with ``validate_transcript``, decode it at every
    node, reduce, and compare to the reference.

    Returns (outputs, reference, recovered, verification).  With s >= 2 no
    decoder exists: the multicast structure is checked to cover every node's
    demand set and the result is (None, None, None, "not-applicable").
    """
    got = validate_transcript(spec, placement, transcript)
    if spec.s != 1:
        for k, covered in multicast_coverage(placement).items():
            if missed := needed_values(placement, k) - covered:
                raise AssertionError(f"multicast structure misses {sorted(missed)} for node {k}")
        return None, None, None, "not-applicable"

    nodes = range(1, spec.K + 1)
    if transcript.scheme == "uncoded":
        recovered = {k: {qn: got[qn].value for qn in needed_values(placement, k)} for k in nodes}
    else:
        # at s=1 every cdc broadcast is component 1 of its group's message
        if transcript.scheme == "cdc":
            received = {(j, group): p for (j, group, _), p in got.items()}
        else:
            received = {(j, group): msg for (j, ell), d in got.items()
                        for group, msg in zip(groups_containing(spec, j, ell), ld_decompress(d))}
        # a node decodes from the store in place: the decoder reads only the
        # value sets of holder subsets containing the node, i.e. files it mapped
        recovered = {k: decode_cdc_s1(k, received, store, placement) for k in nodes}
    outputs = reduce_phase(spec, placement, store, recovered, workload)

    reference = {
        q: workload.reduce(q, [store[(q, n)] for n in range(1, spec.N + 1)], spec.T)
        for q in range(1, spec.Q + 1)
    }
    ok = all(
        outputs[k][q] == reference[q]
        for k in range(1, spec.K + 1)
        for q in placement.node_funcs[k]
    )
    return outputs, reference, recovered, "pass" if ok else "fail"


def run(spec: JobSpec, workload, scheme: str) -> RunResult:
    """Execute one full job under the given shuffle scheme, then decode,
    reduce and verify it with ``decode_and_verify`` (accounting and a
    structural check only at s >= 2)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")

    placement = make_placement(spec)
    store = workload.build_store(spec)

    rho = None
    if scheme == "uncoded":
        transcript = run_uncoded_shuffle(spec, placement, store)
    elif scheme == "cdc":
        transcript = run_cdc_shuffle(spec, placement, store)
    else:
        transcript, rho = run_cdc_ld_shuffle(spec, placement, store)

    bits = transcript.bits_by_node()
    load = Fraction(sum(bits.values()), spec.Q * spec.N * spec.T)
    outputs, reference, recovered, verification = decode_and_verify(
        spec, placement, store, transcript, workload)

    return RunResult(
        spec=spec,
        scheme=scheme,
        transcript=transcript,
        bits_by_node=bits,
        load_empirical=load,
        rho=rho,
        outputs=outputs,
        reference=reference,
        recovered=recovered,
        verification=verification,
    )


# --- transcript serialization (JSON metadata + hex payloads) -----------------

_JSON_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def expect_json(value, kind: type, field: str):
    """``value`` when its type is ``kind``; otherwise ``ValueError`` naming ``field``."""
    if type(value) is not kind:
        raise ValueError(f"{field}: expected {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def _payload_to_json(p: BitVec) -> dict:
    return {"bits": p.nbits, "hex": p.to_hex()}


def _payload_from_json(obj: dict) -> BitVec:
    if type(obj) is dict:
        bits, digits = obj.get("bits"), obj.get("hex")
        if type(bits) is int and type(digits) is str:
            value = int(digits, 16)
            p = BitVec(value, bits)
            # int(_, 16) also reads "0x3", " 3 ", "0_3", "03", "+3", "A" and
            # non-ASCII digits.  A string it reads with exactly as many
            # characters as the value has hex digits holds those digits alone,
            # so it is canonical when it is ASCII and lowercase as well; this
            # costs less than comparing with hex(value) on long payloads.
            if not (digits.isascii() and len(digits) == ((value.bit_length() + 3) // 4 or 1)
                    and digits.lower() == digits):
                raise ValueError(f"payload hex {digits!r} is not written as '{value:x}'")
            return p
    raise ValueError(f"payload {obj!r} is not an object with an int 'bits' and a str 'hex'")


def transcript_to_json(transcript: ShuffleTranscript) -> dict:
    return {
        "scheme": transcript.scheme,
        "spec": transcript.spec.as_dict(),
        "broadcasts": [
            {
                "sender": b.sender,
                "kind": b.kind,
                "meta": b.meta,
                "payloads": [_payload_to_json(p) for p in b.payloads],
            }
            for b in transcript.broadcasts
        ],
    }


def transcript_from_json(obj: dict) -> ShuffleTranscript:
    """Read a transcript back; a field of the wrong type or shape raises
    ``ValueError`` naming the field."""
    expect_json(obj, dict, "transcript")
    spec = obj.get("spec")
    if type(spec) is not dict or spec.keys() != set(_SPEC_KEYS):
        raise ValueError(f"transcript spec: expected an object with keys "
                         f"{', '.join(_SPEC_KEYS)}, got {spec!r}")
    spec = JobSpec(**spec)
    keys = _META_KEYS.get(expect_json(obj.get("scheme"), str, "transcript scheme"), ())
    broadcasts = []
    for i, b in enumerate(expect_json(obj.get("broadcasts"), list, "transcript broadcasts")):
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
        try:
            payloads = tuple([_payload_from_json(p) for p in b["payloads"]])
        except ValueError as exc:
            raise ValueError(f"broadcast {i}: {exc}") from None
        broadcasts.append(Broadcast(sender=b["sender"], kind=b["kind"], meta=meta,
                                    payloads=payloads))
    return ShuffleTranscript(obj["scheme"], spec, broadcasts)


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
