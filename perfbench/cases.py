"""The benchmark's workloads: job specs per scheme, seeded inputs, and the
exact bit counts every job must reproduce.

Each workload maps a scheme name to the job it runs under that scheme.  Every
workload runs all three schemes so that every end-to-end metric exists on
every workload; uncoded is undefined at s >= 2, so ``general-s`` runs the
uncoded shuffle of the same K, N, Q, r at s = 1.  Why each workload exists
and which layers it exercises is written down in NOTES.md.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

SCHEMES = ("uncoded", "cdc", "cdc-ld")
SIZES = ("full", "small")

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
WORK_DIR = HERE / "work"


def _spec(K, N, Q, r, s, T):
    return {"K": K, "N": N, "Q": Q, "r": r, "s": s, "T": T}


# Per workload and size: the job spec of each scheme and how to build inputs.
# ``corpus`` gives (tokens, vocabulary) of the seeded Zipf-like text.
WORKLOADS = {
    "paper-fig4": {
        # Fig. 4 with N cut from 2520 to 120; K, Q, r, s, T and every
        # structural count (groups, value sets, build_vset calls) are Fig. 4's.
        "full": {"spec": _spec(10, 120, 360, 3, 1, 64)},
        "small": {"spec": _spec(10, 120, 30, 3, 1, 64)},
        "input": "synthetic",
        "duplicate_prob": 0.5,
    },
    "general-s": {
        "full": {"spec": _spec(8, 224, 56, 3, 3, 64)},
        "small": {"spec": _spec(8, 56, 56, 3, 3, 64)},
        "input": "synthetic",
        "duplicate_prob": 0.0,
    },
    "wordcount-replay": {
        "full": {"spec": _spec(6, 300, 120, 2, 1, 16), "corpus": (300_000, 5000)},
        "small": {"spec": _spec(6, 60, 12, 2, 1, 16), "corpus": (20_000, 500)},
        "input": "wordcount",
    },
}


def job_spec(workload: str, size: str, scheme: str) -> dict:
    spec = dict(WORKLOADS[workload][size]["spec"])
    if scheme == "uncoded":
        spec["s"] = 1
    return spec


def write_corpus(path: Path, seed: int, tokens: int, vocab: int) -> None:
    """Zipf-like text: word i drawn with weight 1/(i+1), twelve words a line."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocab)]
    draws = rng.choices(words, weights=[1 / (i + 1) for i in range(vocab)], k=tokens)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(0, tokens, 12):
            fh.write(" ".join(draws[i:i + 12]) + "\n")


def prepare_inputs(workload: str, size: str, seed: int) -> tuple[dict, Path | None]:
    """Build the workload description every job of this run uses.

    Returns the description and the file it points to, if any; the caller
    deletes that file when the run ends.
    """
    case = WORKLOADS[workload]
    if case["input"] == "synthetic":
        return {"kind": "synthetic", "seed": seed,
                "duplicate_prob": case["duplicate_prob"]}, None
    tokens, vocab = case[size]["corpus"]
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"corpus-{os.getpid()}-{seed}.txt"
    write_corpus(path, seed, tokens, vocab)
    return {"kind": "wordcount", "input": str(path), "tokenizer": "word"}, path


def reference(workload: str, size: str, scheme: str) -> dict:
    """Per-node bits and exact load recorded for this job.

    They depend only on the job's structure (and, for cdc-ld, on every
    message set having full rank, which holds for every seed at these sizes),
    so one record serves every seed.
    """
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)[workload][size][scheme]
