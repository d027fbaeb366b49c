"""Closed-form shuffle load formulas and sweep tables.

All loads are exact rationals; floats only appear when rows are rendered to
CSV.  The rank-compressed scheme's load depends on the measured or assumed
per-group-size average rank, so each sweep takes an explicit rank model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isfinite
from typing import Mapping

from .placement import InvalidSpecError, JobSpec, group_sizes


def l_uncoded(r: int, K: int) -> Fraction:
    """Load of the plain shuffle: 1 - r/K."""
    if not 1 <= r <= K:
        raise ValueError(f"r={r} outside 1..K={K}")
    return 1 - Fraction(r, K)


def l_cdc(r: int, s: int, K: int) -> Fraction:
    """Load of the coded shuffle, exact over all multicast group sizes."""
    if not 1 <= r <= K or not 1 <= s <= K:
        raise ValueError(f"invalid (r={r}, s={s}) for K={K}")
    total = Fraction(0)
    for ell in group_sizes(K, r, s):
        total += Fraction(
            ell * comb(K, ell) * comb(ell - 2, r - 1) * comb(r, ell - s),
            r * comb(K, r) * comb(K, s),
        )
    return total


def _l_cdc_ld(r: int, s: int, K: int, Q: int, N: int, T: int,
              rho_by_ell: Mapping[int, Fraction | int], msg_factor: Fraction) -> Fraction:
    """Rank-compressed load with the message term scaled by ``msg_factor``."""
    total = Fraction(0)
    for ell in group_sizes(K, r, s):
        rho = Fraction(rho_by_ell.get(ell, 0))
        if rho < 0:
            raise ValueError(f"negative rank {rho} for group size {ell}")
        msg = Fraction(comb(ell - 2, r - 1) * comb(r, ell - s), r * comb(K, r)) * msg_factor
        total += (msg + Fraction(K * comb(K - 1, ell - 1), Q * N * T)) * rho
    return total


def l_cdc_ld(r: int, s: int, K: int, Q: int, N: int, T: int,
             rho_by_ell: Mapping[int, Fraction | int]) -> Fraction:
    """Load of the rank-compressed scheme under the published closed form.

    The first (message) term is per multicast group size; the second charges
    one coefficient bit per basis dimension per message.  ``rho_by_ell`` maps
    group size to the average rank across nodes for that size.
    """
    return _l_cdc_ld(r, s, K, Q, N, T, rho_by_ell, Fraction(1))


def l_cdc_ld_accounting(r: int, s: int, K: int, Q: int, N: int, T: int,
                        rho_by_ell: Mapping[int, Fraction | int]) -> Fraction:
    """Rank-compressed load derived from per-node bit accounting.

    Differs from the published closed form by a factor K/C(K,s) on the
    message term, which is 1 exactly when s=1.  Transcript bit counting
    matches this reading by construction.
    """
    return _l_cdc_ld(r, s, K, Q, N, T, rho_by_ell, Fraction(K, comb(K, s)))


def average_rank(rho: Mapping[tuple[int, int], int], K: int) -> dict[int, Fraction]:
    """Per group size, the node-averaged rank from a measured table."""
    sizes = sorted({ell for (_, ell) in rho})
    return {
        ell: Fraction(sum(v for (k, e), v in rho.items() if e == ell), K)
        for ell in sizes
    }


@dataclass(frozen=True)
class LoadReport:
    """A run's closed-form load, and its measured load's deviation from it."""

    load_analytic: Fraction | None
    deviation: Fraction | None
    rho_by_ell: dict[int, Fraction] | None = None
    load_analytic_alt: Fraction | None = None
    deviation_alt: Fraction | None = None
    notes: str = ""


GENERAL_S_FLAG = (
    "message-term scaling for s>=2 is ambiguous: per-node bit accounting "
    "introduces a factor K/C(K,s) (equal to 1 when s=1) relative to the "
    "published closed form; both readings are reported, neither is asserted "
    "for s>=2"
)


def build_load_report(result) -> LoadReport:
    """Compare a run's measured load against its scheme's closed form."""
    spec, scheme = result.transcript.spec, result.transcript.scheme
    emp = result.load_empirical
    rho_avg = None
    alt = None
    notes = ""
    if scheme == "uncoded":
        analytic = l_uncoded(spec.r, spec.K)
    elif scheme == "cdc":
        analytic = l_cdc(spec.r, spec.s, spec.K)
    else:
        rho_avg = average_rank(result.transcript.ranks(), spec.K)
        analytic = l_cdc_ld(spec.r, spec.s, spec.K, spec.Q, spec.N, spec.T, rho_avg)
        if spec.s >= 2:
            alt = l_cdc_ld_accounting(spec.r, spec.s, spec.K, spec.Q, spec.N, spec.T, rho_avg)
            notes = GENERAL_S_FLAG
    return LoadReport(
        load_analytic=analytic,
        deviation=emp - analytic,
        rho_by_ell=rho_avg,
        load_analytic_alt=alt,
        deviation_alt=None if alt is None else emp - alt,
        notes=notes,
    )


# --- sweep tables -------------------------------------------------------------

@dataclass(frozen=True)
class Fig2Row:
    r: int
    msg_len_bits: Fraction
    count_paper: int
    count_alt: int


def fig2_table(K: int, Q: int, N: int, m: int, q: int) -> list[Fig2Row]:
    """Message length vs. message count for the linear-transform workload.

    ``count_paper`` is the total number of multicast groups, C(K, r+1);
    ``count_alt`` is the number of groups containing a fixed node, C(K-1, r).
    Both are emitted because they differ and either may be the quantity of
    interest.
    """
    if min(K, Q, N, m) < 1:
        raise ValueError("parameters must be positive")
    log2q = (q - 1).bit_length()
    if q < 2 or (1 << log2q) != q:
        raise ValueError(f"q={q} must be a power of two")
    rows = []
    for r in range(1, K):
        msg_len = Fraction(m * N * log2q, r * K * comb(K, r))
        rows.append(Fig2Row(r, msg_len, comb(K, r + 1), comb(K - 1, r)))
    return rows


def rank_label(model) -> str:
    """The label of a rank model (see ``resolve_rho``), which its sweep's meta
    file carries; a model of any other form raises ``ValueError``."""
    if model == "full-rank":
        return model
    is_map = isinstance(model, Mapping)
    for ell in model if is_map else ():
        if not (type(ell) is int or type(ell) is str and ell.isascii()
                and ell.removeprefix("-").isdecimal()):
            raise ValueError(f"rank model {model!r}: key {ell!r} is not a group size")
    for v in model.values() if is_map else (model,):
        if not (type(v) in (int, Fraction) or type(v) is float and isfinite(v)):
            raise ValueError(f"rank model {model!r}: {v!r} is not a number; a model is a "
                             "number, 'full-rank' or a map from group size to a number")
    return "measured" if is_map else f"constant:{Fraction(model)}"


def resolve_rho(model, K: int, r: int, s: int) -> dict[int, Fraction]:
    """Expand a rank model into per-group-size values.

    Models: an int, Fraction or finite float (constant across group sizes),
    the string "full-rank" (rank equals the message count C(K-1, ell-1)), or
    a mapping from group size to such a number, whose keys may be strings, as
    JSON object keys are, and which must cover every group size.
    """
    rank_label(model)  # refuses a model of any other form
    ells = list(group_sizes(K, r, s))
    if model == "full-rank":
        return {ell: Fraction(comb(K - 1, ell - 1)) for ell in ells}
    if isinstance(model, Mapping):
        by_ell = {int(ell): Fraction(v) for ell, v in model.items()}
        if missing := [ell for ell in ells if ell not in by_ell]:
            raise ValueError(f"rank map has no value for group sizes {missing} (r={r}, s={s})")
        return {ell: by_ell[ell] for ell in ells}
    return dict.fromkeys(ells, Fraction(model))


def _sorted_ints(name: str, values) -> list[int]:
    """Sweep values in ascending order; every entry must be an int."""
    for v in values:
        if type(v) is not int:
            raise InvalidSpecError(f"{name} entry {v!r} must be an int")
    return sorted(values)


@dataclass(frozen=True)
class TradeoffRow:
    r: int
    l_uncoded: Fraction
    l_cdc: Fraction
    l_cdc_ld: Fraction


def tradeoff_sweep(K: int, Q: int, N: int, T: int, r_values,
                   s: int = 1, *, rho_model) -> list[TradeoffRow]:
    """Load of all three schemes across computation loads r.

    A row is skipped, with a warning, only when C(K, r) does not divide N;
    any other spec error, or a rank model of no known form, raises
    ``ValueError`` even when ``r_values`` is empty.
    """
    r_values = _sorted_ints("r_values", r_values)
    JobSpec(K=K, N=N, Q=Q, r=K, s=s, T=T)  # every field a row shares: C(K, K) divides N
    rank_label(rho_model)
    rows = []
    for r in r_values:
        try:
            JobSpec(K=K, N=N, Q=Q, r=r, s=s, T=T)
        except InvalidSpecError as exc:
            # with the shared fields valid, an r in 1..K fails only when
            # C(K, r) does not divide N, which skips the row
            if not 1 <= r <= K:
                raise
            warnings.warn(f"skipping r={r}: {exc}")
            continue
        rho = resolve_rho(rho_model, K, r, s)
        rows.append(TradeoffRow(
            r=r,
            l_uncoded=l_uncoded(r, K),
            l_cdc=l_cdc(r, s, K),
            l_cdc_ld=l_cdc_ld(r, s, K, Q, N, T, rho),
        ))
    return rows


@dataclass(frozen=True)
class LoadVsTRow:
    T: int
    l_cdc: Fraction
    l_cdc_ld: Fraction


def load_vs_t_sweep(K: int, Q: int, N: int, r: int, t_values,
                    s: int = 1, *, rho_model) -> list[LoadVsTRow]:
    """Load of the coded schemes as the value length T grows; every row must
    be a valid job, or ``InvalidSpecError`` is raised, and the fields the rows
    share and the rank model are checked even when ``t_values`` is empty."""
    t_values = _sorted_ints("T_values", t_values)
    JobSpec(K=K, N=N, Q=Q, r=r, s=s, T=1)  # every field a row shares
    rho = resolve_rho(rho_model, K, r, s)
    rows = []
    for T in t_values:
        JobSpec(K=K, N=N, Q=Q, r=r, s=s, T=T)
        rows.append(LoadVsTRow(
            T=T,
            l_cdc=l_cdc(r, s, K),
            l_cdc_ld=l_cdc_ld(r, s, K, Q, N, T, rho),
        ))
    return rows


def fmt12(x) -> str:
    """CSV float rendering: 12 significant digits."""
    return f"{float(x):.12g}"
