"""Job parameters and the deterministic file/function batch placement.

Files are dealt to r-subsets of nodes, reduce functions to s-subsets, in
lexicographic subset order with contiguous index blocks.  Node and file
indices are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import combinations
from math import comb


class InvalidSpecError(ValueError):
    """Job parameters violate a divisibility or range constraint."""


@dataclass(frozen=True)
class JobSpec:
    """System parameters: K nodes, N files, Q reduce functions, map
    replication r, reduce replication s, T-bit intermediate values."""

    K: int
    N: int
    Q: int
    r: int
    s: int
    T: int

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if type(value) is not int:
                raise InvalidSpecError(f"{name}={value!r} must be an int")
        if self.K < 2:
            raise InvalidSpecError(f"K={self.K} must be at least 2")
        if not 1 <= self.r <= self.K:
            raise InvalidSpecError(f"r={self.r} must lie in 1..K={self.K}")
        if not 1 <= self.s <= self.K:
            raise InvalidSpecError(f"s={self.s} must lie in 1..K={self.K}")
        if self.T < 1:
            raise InvalidSpecError(f"T={self.T} must be positive")
        if self.N < 1 or self.Q < 1:
            raise InvalidSpecError(f"N={self.N} and Q={self.Q} must be positive")
        ckr = comb(self.K, self.r)
        if self.N % ckr:
            raise InvalidSpecError(f"N={self.N} must be divisible by C(K,r)=C({self.K},{self.r})={ckr}")
        cks = comb(self.K, self.s)
        if self.Q % cks:
            raise InvalidSpecError(f"Q={self.Q} must be divisible by C(K,s)=C({self.K},{self.s})={cks}")

    @property
    def eta1(self) -> int:
        """Files per batch."""
        return self.N // comb(self.K, self.r)

    @property
    def eta2(self) -> int:
        """Reduce functions per batch."""
        return self.Q // comb(self.K, self.s)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in SPEC_KEYS}


# the fields of a spec, in order: its keys in a config file and a transcript
SPEC_KEYS = tuple(f.name for f in fields(JobSpec))


def ksubsets(K: int, t: int) -> list[tuple[int, ...]]:
    """All size-t subsets of {1..K} in lexicographic order."""
    if not 0 <= t <= K:
        raise ValueError(f"subset size {t} out of range 0..{K}")
    return list(combinations(range(1, K + 1), t))


def group_sizes(K: int, r: int, s: int) -> range:
    """Valid multicast group sizes: max(r+1, s) through min(r+s, K)."""
    return range(max(r + 1, s), min(r + s, K) + 1)


@dataclass(frozen=True)
class Placement:
    """Batch maps and the per-node file / function sets they induce.

    ``vsets`` holds every multicast value set of this placement by sorted
    (group, holders), filled whole by ``codec`` on first use, and
    ``combiners`` the s >= 2 encoder's ``codec.combiner`` per group size,
    each on first use.
    """

    spec: JobSpec
    file_batches: dict[tuple[int, ...], tuple[int, ...]]
    reduce_batches: dict[tuple[int, ...], tuple[int, ...]]
    node_files: dict[int, tuple[int, ...]]
    node_funcs: dict[int, tuple[int, ...]]
    batch_of_file: dict[int, tuple[int, ...]]
    vsets: dict = field(default_factory=dict, compare=False, repr=False)
    combiners: dict = field(default_factory=dict, compare=False, repr=False)


def make_placement(spec: JobSpec) -> Placement:
    """Deal files and reduce functions to node subsets in contiguous blocks."""
    file_batches: dict[tuple[int, ...], tuple[int, ...]] = {}
    batch_of_file: dict[int, tuple[int, ...]] = {}
    for i, subset in enumerate(ksubsets(spec.K, spec.r)):
        files = tuple(range(i * spec.eta1 + 1, (i + 1) * spec.eta1 + 1))
        file_batches[subset] = files
        for n in files:
            batch_of_file[n] = subset

    reduce_batches = {
        subset: tuple(range(j * spec.eta2 + 1, (j + 1) * spec.eta2 + 1))
        for j, subset in enumerate(ksubsets(spec.K, spec.s))
    }

    node_files = {
        k: tuple(sorted(n for subset, files in file_batches.items() if k in subset for n in files))
        for k in range(1, spec.K + 1)
    }
    node_funcs = {
        k: tuple(sorted(q for subset, funcs in reduce_batches.items() if k in subset for q in funcs))
        for k in range(1, spec.K + 1)
    }
    return Placement(spec, file_batches, reduce_batches, node_files, node_funcs, batch_of_file)


def unmapped_files(placement: Placement, k: int) -> tuple[int, ...]:
    """The files node k did not map, in order."""
    if k not in placement.node_files:
        raise KeyError(f"unknown node id {k}")
    own = set(placement.node_files[k])
    return tuple(n for n in range(1, placement.spec.N + 1) if n not in own)


def needed_values(placement: Placement, k: int) -> set[tuple[int, int]]:
    """(q, n) pairs node k must receive: its reduce inputs from files it did not map."""
    return {(q, n) for n in unmapped_files(placement, k) for q in placement.node_funcs[k]}


def placement_to_json(placement: Placement) -> dict:
    """JSON-friendly view of a placement, for debugging and golden fixtures.

    Schema::

        {"spec": {"K","N","Q","r","s","T"},
         "file_batches":   [{"nodes": [..], "files": [..]}, ..],
         "reduce_batches": [{"nodes": [..], "functions": [..]}, ..],
         "node_files":     {"<k>": [..]},
         "node_functions": {"<k>": [..]}}
    """
    return {
        "spec": placement.spec.as_dict(),
        "file_batches": [
            {"nodes": list(subset), "files": list(files)}
            for subset, files in sorted(placement.file_batches.items())
        ],
        "reduce_batches": [
            {"nodes": list(subset), "functions": list(funcs)}
            for subset, funcs in sorted(placement.reduce_batches.items())
        ],
        "node_files": {str(k): list(v) for k, v in sorted(placement.node_files.items())},
        "node_functions": {str(k): list(v) for k, v in sorted(placement.node_funcs.items())},
    }
