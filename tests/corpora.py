"""Seeded text corpora for the word-count tests."""

from __future__ import annotations

import random


def zipf_text(seed: int, tokens: int, vocab: int) -> str:
    """Zipf-like text: word i drawn with weight 1/(i+1), twelve words a line."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocab)]
    draws = rng.choices(words, weights=[1 / (i + 1) for i in range(vocab)], k=tokens)
    return "".join(" ".join(draws[i:i + 12]) + "\n" for i in range(0, tokens, 12))


def write_corpus(path, seed: int, tokens: int, vocab: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(zipf_text(seed, tokens, vocab))
