"""Map -> shuffle -> reduce orchestration over an error-free broadcast bus.

The network model is a zero-latency lossless broadcast: every payload a node
sends is visible to all others and the only cost tracked is its exact bit
length.  A run produces a transcript of every broadcast, per-node bit
counters, and (for single-copy reduce) decoded values, reduce outputs, and a
pass/fail comparison against a single-machine reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import comb, inf as _INF
from typing import Mapping

from .codec import (
    IncompleteShuffleError,
    decode_cdc_s1,
    encode_cdc,
    full_message,
    groups_containing,
    ld_compress,
    ld_decompress,
    multicast_coverage,
)
from .gf2 import BasisDecomposition, BitVec
from .placement import JobSpec, Placement, group_sizes, ksubsets, make_placement, needed_values
from .workloads import IntermediateStore

SCHEMES = ("uncoded", "cdc", "cdc-ld")

# the fields every serialised broadcast carries, and the meta fields of each scheme
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
    recovered: dict[int, dict[tuple[int, int], BitVec]] | None
    verification: str  # "pass" | "fail" | "not-applicable"


def run_uncoded_shuffle(spec: JobSpec, placement: Placement,
                        store: IntermediateStore) -> ShuffleTranscript:
    """Ship every needed value plainly; the smallest node holding the file sends."""
    if spec.s != 1:
        raise UnsupportedCombinationError("uncoded shuffle is defined only for s=1")
    broadcasts = []
    for k in range(1, spec.K + 1):
        for (q, n) in sorted(needed_values(placement, k)):
            sender = placement.batch_of_file[n][0]
            broadcasts.append(Broadcast(
                sender=sender,
                kind="uncoded",
                meta={"q": q, "n": n},
                payloads=(store.get(q, n),),
            ))
    return ShuffleTranscript("uncoded", spec, broadcasts)


def run_cdc_shuffle(spec: JobSpec, placement: Placement,
                    store: IntermediateStore) -> ShuffleTranscript:
    broadcasts = []
    for ell in group_sizes(spec.K, spec.r, spec.s):
        for group in ksubsets(spec.K, ell):
            for k in group:
                for index, payload in enumerate(encode_cdc(k, group, placement, store.values), 1):
                    broadcasts.append(Broadcast(
                        sender=k,
                        kind="cdc",
                        meta={"group": list(group), "component": index},
                        payloads=(payload,),
                    ))
    return ShuffleTranscript("cdc", spec, broadcasts)


def run_cdc_ld_shuffle(spec: JobSpec, placement: Placement,
                       store: IntermediateStore) -> tuple[ShuffleTranscript, dict]:
    """Per node and group size, broadcast a subspace basis plus coefficients."""
    broadcasts = []
    rho: dict[tuple[int, int], int] = {}
    for k in range(1, spec.K + 1):
        for ell in group_sizes(spec.K, spec.r, spec.s):
            messages = [full_message(k, g, placement, store.values)
                        for g in groups_containing(spec, k, ell)]
            d = ld_compress(ell, messages, spec)
            rho[(k, ell)] = d.rho
            bc = Broadcast(
                sender=k,
                kind="cdc-ld",
                meta={"ell": ell, "rho": d.rho, "msg_len": d.ncols},
                payloads=d.basis + d.coeffs,
            )
            assert bc.bits == d.rho * (d.ncols + len(d.coeffs))
            broadcasts.append(bc)
    return ShuffleTranscript("cdc-ld", spec, broadcasts), rho


def _received_messages(transcript: ShuffleTranscript, spec: JobSpec,
                       placement: Placement) -> dict[tuple[int, tuple[int, ...]], BitVec]:
    """Reassemble the (sender, group) -> payload map a decoder consumes."""
    received: dict[tuple[int, tuple[int, ...]], BitVec] = {}
    if transcript.scheme == "cdc":
        groups = {g for ell in group_sizes(spec.K, spec.r, spec.s) for g in ksubsets(spec.K, ell)}
        for b in transcript.broadcasts:
            group = b.meta["group"]
            if not (type(group) is list and all(type(j) is int for j in group)
                    and tuple(group) in groups):
                raise ValueError(f"group {group!r} from node {b.sender} is not a multicast "
                                 f"group of nodes 1..{spec.K} in ascending order")
            group = tuple(group)
            if b.sender not in group:
                raise ValueError(f"node {b.sender} sent to group {group}, which it is not in")
            if not 1 <= b.meta["component"] <= comb(len(group) - 2, spec.r - 1):
                raise ValueError(f"component {b.meta['component']} from node {b.sender} "
                                 f"to group {group} is outside 1..C(ell-2, r-1)")
            key = (b.sender, group)
            if key in received:
                raise ValueError(f"second broadcast for (sender, group) {key}")
            received[key] = b.payloads[0]
    elif transcript.scheme == "cdc-ld":
        seen = set()
        for b in transcript.broadcasts:
            ell = b.meta["ell"]
            if ell not in group_sizes(spec.K, spec.r, spec.s):
                raise ValueError(f"ell {ell} from node {b.sender} is not a group size of the job")
            if (b.sender, ell) in seen:
                raise ValueError(f"second broadcast for (sender, ell) {(b.sender, ell)}")
            seen.add((b.sender, ell))
            rho_b = b.meta["rho"]
            messages = ld_decompress(BasisDecomposition(
                basis=b.payloads[:rho_b], coeffs=b.payloads[rho_b:],
                rho=rho_b, ncols=b.meta["msg_len"]))
            groups = groups_containing(spec, b.sender, ell)
            if len(messages) != len(groups):
                raise ValueError(f"{len(messages)} messages from node {b.sender} for "
                                 f"{len(groups)} groups of size {ell}")
            for group, msg in zip(groups, messages):
                received[(b.sender, group)] = msg
    else:
        raise ValueError(f"no message view for scheme {transcript.scheme}")
    return received


def reduce_phase(spec: JobSpec, placement: Placement, store: IntermediateStore,
                 recovered: Mapping[int, Mapping[tuple[int, int], BitVec]],
                 workload) -> dict[int, dict[int, object]]:
    """Evaluate each node's reduce functions: the values of the files a node
    mapped come from the store, the rest from what it recovered."""
    values = store.values
    files = range(1, spec.N + 1)
    outputs: dict[int, dict[int, object]] = {}
    for k in range(1, spec.K + 1):
        own = set(placement.node_files[k])
        got = recovered[k]
        node_out: dict[int, object] = {}
        for q in placement.node_funcs[k]:
            try:
                held = [values[(q, n)] if n in own else got[(q, n)] for n in files]
            except KeyError:
                raise IncompleteShuffleError(
                    [(q, n) for n in files if n not in own and (q, n) not in got]) from None
            node_out[q] = workload.reduce(q, held)
        outputs[k] = node_out
    return outputs


def decode_and_verify(spec: JobSpec, placement: Placement, store: IntermediateStore,
                      transcript: ShuffleTranscript, workload):
    """Decode a transcript at every node, reduce, and compare to the reference.

    Returns (outputs, reference, recovered, verification).  A broadcast of
    another kind than the transcript's scheme, one from a node that cannot
    have sent it, or an uncoded payload whose length is not T raises
    ``ValueError``.
    """
    for i, b in enumerate(transcript.broadcasts):
        if b.kind != transcript.scheme:
            raise ValueError(f"broadcast {i}: kind {b.kind!r}, expected {transcript.scheme!r}")
        if b.sender not in placement.node_files:
            raise ValueError(f"broadcast {i}: sender {b.sender!r} is not a node 1..{spec.K}")
        if b.kind != "cdc-ld" and len(b.payloads) != 1:
            raise ValueError(f"broadcast {i}: {len(b.payloads)} payloads, expected 1")
    recovered: dict[int, dict[tuple[int, int], BitVec]] = {}
    if transcript.scheme == "uncoded":
        by_pair = {}
        for b in transcript.broadcasts:
            qn = (b.meta["q"], b.meta["n"])
            if b.sender not in placement.batch_of_file.get(qn[1], ()):
                raise ValueError(f"node {b.sender} sent {qn} but did not map file {qn[1]}")
            if qn in by_pair:
                raise ValueError(f"second broadcast for (q, n) {qn}")
            if b.payloads[0].nbits != spec.T:
                raise ValueError(f"node {b.sender} sent {qn} as {b.payloads[0].nbits} bits, "
                                 f"expected T = {spec.T}")
            by_pair[qn] = b.payloads[0]
        for k in range(1, spec.K + 1):
            want = needed_values(placement, k)
            got = {qn: by_pair[qn] for qn in want if qn in by_pair}
            if len(got) != len(want):
                raise IncompleteShuffleError(sorted(want - set(got)))
            recovered[k] = got
    else:
        # a node decodes from the store in place: the decoder reads only the
        # value sets of holder subsets containing the node, i.e. files it mapped
        received = _received_messages(transcript, spec, placement)
        for k in range(1, spec.K + 1):
            recovered[k] = decode_cdc_s1(k, received, store.values, placement)
    outputs = reduce_phase(spec, placement, store, recovered, workload)

    values = store.values
    reference = {
        q: workload.reduce(q, [values[(q, n)] for n in range(1, spec.N + 1)])
        for q in range(1, spec.Q + 1)
    }
    ok = all(
        outputs[k][q] == reference[q]
        for k in range(1, spec.K + 1)
        for q in placement.node_funcs[k]
    )
    return outputs, reference, recovered, "pass" if ok else "fail"


def run(spec: JobSpec, workload, scheme: str) -> RunResult:
    """Execute one full job under the given shuffle scheme.

    With s=1 the run decodes, reduces, and verifies against a single-machine
    reference.  With s>=2 only encoding and bit accounting happen; the
    multicast structure is still checked to cover every node's demand set.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if scheme == "uncoded" and spec.s != 1:
        raise UnsupportedCombinationError(f"uncoded scheme requires s=1, got s={spec.s}")

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

    outputs = reference = recovered = None
    if spec.s == 1:
        outputs, reference, recovered, verification = decode_and_verify(
            spec, placement, store, transcript, workload)
    else:
        covered = multicast_coverage(placement)
        for k in range(1, spec.K + 1):
            demand = needed_values(placement, k)
            if not demand <= covered[k]:
                raise AssertionError(
                    f"multicast structure misses {sorted(demand - covered[k])} for node {k}"
                )
        verification = "not-applicable"

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
    spec = JobSpec(**obj["spec"])
    keys = _META_KEYS.get(obj["scheme"], ())
    broadcasts = []
    for i, b in enumerate(obj["broadcasts"]):
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
