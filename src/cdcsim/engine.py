"""Map -> shuffle -> reduce orchestration over an error-free broadcast bus.

The network model is a zero-latency lossless broadcast: every payload a node
sends is visible to all others and the only cost tracked is its exact bit
length.  A run produces a transcript of every broadcast, per-node bit
counters, and (for single-copy reduce) decoded values, reduce outputs, and a
pass/fail comparison against a single-machine reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .codec import (
    IncompleteShuffleError,
    LdPayload,
    decode_cdc_s1,
    encode_cdc,
    full_message,
    groups_containing,
    ld_compress,
    ld_decompress,
    multicast_coverage,
)
from .gf2 import BitVec
from .placement import JobSpec, Placement, group_sizes, ksubsets, make_placement, needed_values
from .workloads import IntermediateStore

SCHEMES = ("uncoded", "cdc", "cdc-ld")


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

    def total_bits(self) -> int:
        return sum(b.bits for b in self.broadcasts)


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
                for msg in encode_cdc(k, group, placement, store.values):
                    broadcasts.append(Broadcast(
                        sender=k,
                        kind="cdc",
                        meta={"group": list(group), "component": msg.index},
                        payloads=(msg.payload,),
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
            payload = ld_compress(k, ell, messages, spec)
            rho[(k, ell)] = payload.rho
            bc = Broadcast(
                sender=k,
                kind="cdc-ld",
                meta={"ell": ell, "rho": payload.rho, "msg_len": payload.msg_len},
                payloads=payload.basis + payload.coeffs,
            )
            assert bc.bits == payload.bit_cost
            broadcasts.append(bc)
    return ShuffleTranscript("cdc-ld", spec, broadcasts), rho


def _received_messages(transcript: ShuffleTranscript, spec: JobSpec,
                       placement: Placement) -> dict[tuple[int, tuple[int, ...]], BitVec]:
    """Reassemble the (sender, group) -> payload map a decoder consumes."""
    received: dict[tuple[int, tuple[int, ...]], BitVec] = {}
    if transcript.scheme == "cdc":
        for b in transcript.broadcasts:
            key = (b.sender, tuple(b.meta["group"]))
            if key in received:
                raise ValueError(f"second broadcast for (sender, group) {key}")
            received[key] = b.payloads[0]
    elif transcript.scheme == "cdc-ld":
        seen = set()
        for b in transcript.broadcasts:
            ell = b.meta["ell"]
            if (b.sender, ell) in seen:
                raise ValueError(f"second broadcast for (sender, ell) {(b.sender, ell)}")
            seen.add((b.sender, ell))
            rho_b = b.meta["rho"]
            payload = LdPayload(b.sender, ell, b.meta["msg_len"],
                                b.payloads[:rho_b], b.payloads[rho_b:])
            messages = ld_decompress(payload)
            for group, msg in zip(groups_containing(spec, b.sender, ell), messages):
                received[(b.sender, group)] = msg
    else:
        raise ValueError(f"no message view for scheme {transcript.scheme}")
    return received


def _local_values(placement: Placement, store: IntermediateStore,
                  k: int) -> dict[tuple[int, int], BitVec]:
    return {
        (q, n): store.get(q, n)
        for n in placement.node_files[k]
        for q in range(1, placement.spec.Q + 1)
    }


def reduce_phase(spec: JobSpec, placement: Placement,
                 values_by_node: Mapping[int, Mapping[tuple[int, int], BitVec]],
                 workload) -> dict[int, dict[int, object]]:
    """Evaluate each node's reduce functions from the values it holds."""
    outputs: dict[int, dict[int, object]] = {}
    for k in range(1, spec.K + 1):
        held = values_by_node[k]
        node_out: dict[int, object] = {}
        for q in placement.node_funcs[k]:
            missing = [(q, n) for n in range(1, spec.N + 1) if (q, n) not in held]
            if missing:
                raise IncompleteShuffleError(missing)
            node_out[q] = workload.reduce(q, [held[(q, n)] for n in range(1, spec.N + 1)])
        outputs[k] = node_out
    return outputs


def decode_and_verify(spec: JobSpec, placement: Placement, store: IntermediateStore,
                      transcript: ShuffleTranscript, workload):
    """Decode a transcript at every node, reduce, and compare to the reference.

    Returns (outputs, reference, recovered, verification).
    """
    recovered: dict[int, dict[tuple[int, int], BitVec]] = {}
    if transcript.scheme == "uncoded":
        by_pair = {}
        for b in transcript.broadcasts:
            qn = (b.meta["q"], b.meta["n"])
            if qn in by_pair:
                raise ValueError(f"second broadcast for (q, n) {qn}")
            by_pair[qn] = b.payloads[0]
        for k in range(1, spec.K + 1):
            want = needed_values(placement, k)
            got = {qn: by_pair[qn] for qn in want if qn in by_pair}
            if len(got) != len(want):
                raise IncompleteShuffleError(sorted(want - set(got)))
            recovered[k] = got
    else:
        received = _received_messages(transcript, spec, placement)
        for k in range(1, spec.K + 1):
            recovered[k] = decode_cdc_s1(k, received, _local_values(placement, store, k),
                                         placement)

    values_by_node = {}
    for k in range(1, spec.K + 1):
        merged = _local_values(placement, store, k)
        merged.update(recovered[k])
        values_by_node[k] = merged
    outputs = reduce_phase(spec, placement, values_by_node, workload)

    reference = {
        q: workload.reduce(q, [store.get(q, n) for n in range(1, spec.N + 1)])
        for q in range(1, spec.Q + 1)
    }
    ok = all(
        outputs[k][q] == reference[q]
        for k in range(1, spec.K + 1)
        for q in placement.node_funcs[k]
    )
    return outputs, reference, recovered, "pass" if ok else "fail"


def run(spec: JobSpec, workload, scheme: str, verify: bool = True) -> RunResult:
    """Execute one full job under the given shuffle scheme.

    With s=1 the run decodes, reduces, and verifies against a single-machine
    reference (unless ``verify`` is off).  With s>=2 only encoding and bit
    accounting happen; the multicast structure is still checked to cover
    every node's demand set.
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
    if spec.s == 1 and verify:
        outputs, reference, recovered, verification = decode_and_verify(
            spec, placement, store, transcript, workload)
    elif spec.s == 1:
        verification = "not-applicable"
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
    return BitVec.from_hex(obj["hex"], obj["bits"])


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
    broadcasts = [
        Broadcast(
            sender=b["sender"],
            kind=b["kind"],
            meta=b["meta"],
            payloads=tuple(_payload_from_json(p) for p in b["payloads"]),
        )
        for b in obj["broadcasts"]
    ]
    return ShuffleTranscript(obj["scheme"], spec, broadcasts)


def dump_json(obj: dict) -> str:
    """Canonical JSON rendering used for every artifact this package writes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
