"""Batch placement: subset enumeration, batch assignment, demand sets."""

from __future__ import annotations

import json
from math import comb

import pytest

from cdcsim.engine import dump_json
from cdcsim.placement import (
    InvalidSpecError,
    JobSpec,
    ksubsets,
    make_placement,
    needed_values,
    placement_to_json,
)


def test_ksubsets_lexicographic():
    assert ksubsets(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_ksubsets_full_set():
    assert ksubsets(4, 4) == [(1, 2, 3, 4)]


def test_ksubsets_count():
    assert len(ksubsets(10, 3)) == 120


def test_ksubsets_bad_size():
    with pytest.raises(ValueError):
        ksubsets(4, 5)


def test_paper_example_batches():
    spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
    p = make_placement(spec)
    assert p.file_batches[(1, 2)] == (1,)
    assert p.reduce_batches[(1,)] == (1,)
    assert p.node_files[1] == (1, 2, 3)
    assert p.node_funcs[1] == (1,)


def test_full_replication():
    spec = JobSpec(K=3, N=3, Q=3, r=3, s=1, T=4)
    p = make_placement(spec)
    for k in (1, 2, 3):
        assert p.node_files[k] == (1, 2, 3)


def test_divisibility_error_names_constraint():
    with pytest.raises(InvalidSpecError, match=r"C\(K,r\)"):
        JobSpec(K=4, N=7, Q=4, r=2, s=1, T=6)
    with pytest.raises(InvalidSpecError, match=r"C\(K,s\)"):
        JobSpec(K=4, N=6, Q=5, r=2, s=1, T=6)


def test_range_errors():
    with pytest.raises(InvalidSpecError):
        JobSpec(K=1, N=1, Q=1, r=1, s=1, T=1)
    with pytest.raises(InvalidSpecError):
        JobSpec(K=4, N=6, Q=4, r=5, s=1, T=6)
    with pytest.raises(InvalidSpecError):
        JobSpec(K=4, N=6, Q=4, r=2, s=1, T=0)


@pytest.mark.parametrize("field, bad", [
    *[(field, "4") for field in ("K", "N", "Q", "r", "s", "T")],
    ("K", 4.0), ("T", True), ("N", None),
])
def test_non_integer_field_rejected(field, bad):
    kw = dict(K=4, N=6, Q=4, r=2, s=1, T=6) | {field: bad}
    with pytest.raises(InvalidSpecError, match=f"{field}=.* must be an int"):
        JobSpec(**kw)


def test_needed_values_paper_example():
    spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
    p = make_placement(spec)
    assert needed_values(p, 1) == {(1, 4), (1, 5), (1, 6)}


def test_needed_values_empty_when_fully_replicated():
    spec = JobSpec(K=4, N=6, Q=4, r=4, s=1, T=6)
    p = make_placement(spec)
    for k in range(1, 5):
        assert needed_values(p, k) == set()


def test_needed_values_unknown_node():
    spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
    with pytest.raises(KeyError):
        needed_values(make_placement(spec), 9)


def test_needed_values_count_identity():
    # s=1 demand totals QN(1 - r/K); oracle is plain enumeration
    for K in (3, 4, 5):
        for r in range(1, K + 1):
            spec = JobSpec(K=K, N=comb(K, r) * 2, Q=K, r=r, s=1, T=4)
            p = make_placement(spec)
            total = sum(len(needed_values(p, k)) for k in range(1, K + 1))
            enumerated = sum(
                1
                for k in range(1, K + 1)
                for q in p.node_funcs[k]
                for n in range(1, spec.N + 1)
                if n not in p.node_files[k]
            )
            assert total == enumerated == spec.Q * spec.N * (K - r) // K


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_partition_invariants(K):
    for r in range(1, K + 1):
        for s in range(1, K + 1):
            spec = JobSpec(K=K, N=comb(K, r), Q=comb(K, s), r=r, s=s, T=4)
            p = make_placement(spec)

            all_files = [n for files in p.file_batches.values() for n in files]
            assert sorted(all_files) == list(range(1, spec.N + 1))
            all_funcs = [q for funcs in p.reduce_batches.values() for q in funcs]
            assert sorted(all_funcs) == list(range(1, spec.Q + 1))

            assert sum(len(p.node_files[k]) for k in range(1, K + 1)) == r * spec.N
            assert sum(len(p.node_funcs[k]) for k in range(1, K + 1)) == s * spec.Q

            # membership is exactly subset membership of the owning batch
            for n in range(1, spec.N + 1):
                holders = {k for k in range(1, K + 1) if n in p.node_files[k]}
                assert holders == set(p.batch_of_file[n])


def test_needed_disjoint_from_local():
    spec = JobSpec(K=5, N=10, Q=5, r=2, s=1, T=8)
    p = make_placement(spec)
    for k in range(1, 6):
        local = {(q, n) for q in range(1, 6) for n in p.node_files[k]}
        assert needed_values(p, k).isdisjoint(local)


def test_placement_deterministic():
    spec = JobSpec(K=5, N=20, Q=10, r=3, s=2, T=8)
    a = dump_json(placement_to_json(make_placement(spec)))
    b = dump_json(placement_to_json(make_placement(spec)))
    assert a == b


def test_placement_json_schema():
    spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=6)
    doc = placement_to_json(make_placement(spec))
    parsed = json.loads(dump_json(doc))
    assert parsed["spec"] == {"K": 4, "N": 6, "Q": 4, "r": 2, "s": 1, "T": 6}
    assert {"nodes": [1, 2], "files": [1]} in parsed["file_batches"]
    assert parsed["node_files"]["1"] == [1, 2, 3]
