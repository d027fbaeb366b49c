"""Closed-form load formulas and sweep tables, all in exact rationals."""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import comb

import pytest

from cdcsim.analytics import (
    GENERAL_S_FLAG,
    build_load_report,
    fig2_table,
    l_cdc,
    l_cdc_ld,
    l_cdc_ld_accounting,
    l_uncoded,
    load_vs_t_sweep,
    rank_label,
    resolve_rho,
    tradeoff_sweep,
)
from cdcsim.engine import run
from cdcsim.placement import JobSpec
from cdcsim.workloads import SyntheticRankWorkload, WordCountWorkload

PAPER_BLOCKS = (
    (1, 2, 1, 2, 2, 3, 1),
    (2, 1, 1, 1, 1, 2, 1),
    (2, 3, 1, 2, 1, 3, 1),
    (3, 1, 1, 2, 1, 3, 2),
    (1, 1, 3, 1, 4, 1, 4),
    (1, 1, 4, 1, 2, 3, 1),
)


class TestUncoded:
    def test_examples(self):
        assert l_uncoded(2, 4) == Fraction(1, 2)
        assert l_uncoded(5, 5) == 0
        assert l_uncoded(1, 10) == Fraction(9, 10)

    def test_range_check(self):
        with pytest.raises(ValueError):
            l_uncoded(0, 4)


class TestCdc:
    @pytest.mark.parametrize("r, s", [(0, 1), (5, 1), (2, 0), (2, 5)])
    def test_range_check(self, r, s):
        with pytest.raises(ValueError, match=rf"^invalid \(r={r}, s={s}\) for K=4$"):
            l_cdc(r, s, 4)

    def test_single_copy_example(self):
        assert l_cdc(2, 1, 4) == Fraction(1, 4)

    def test_r1_matches_uncoded(self):
        for K in range(2, 10):
            assert l_cdc(1, 1, K) == Fraction(K - 1, K) == l_uncoded(1, K)

    def test_s2_value_frozen_from_bit_count(self):
        # oracle: transcript bit count / (QNT) on a divisible parameter set
        spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
        result = run(spec, SyntheticRankWorkload(seed=0), "cdc")
        assert result.load_empirical == Fraction(4, 9)
        assert l_cdc(2, 2, 4) == Fraction(4, 9)

    def test_single_copy_closed_form_all_k(self):
        for K in range(2, 13):
            for r in range(1, K):
                assert l_cdc(r, 1, K) == Fraction(1, r) * (1 - Fraction(r, K))

    def test_r_equals_k_is_zero(self):
        assert l_cdc(4, 1, 4) == 0
        assert l_cdc(4, 2, 4) == 0


class TestCdcLd:
    def test_crossover_at_t12(self):
        load = l_cdc_ld(2, 1, 4, 4, 6, 12, {3: 2})
        assert load == Fraction(1, 4) == l_cdc(2, 1, 4)

    def test_zero_rank_zero_load(self):
        assert l_cdc_ld(2, 1, 4, 4, 6, 30, {3: 0}) == 0

    def test_matches_engine_bit_count(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        result = run(spec, WordCountWorkload(PAPER_BLOCKS), "cdc-ld")
        rho_avg = Fraction(sum(result.transcript.ranks().values()), 4)
        assert l_cdc_ld(2, 1, 4, 4, 6, 30, {3: rho_avg}) == result.load_empirical

    def test_accounting_reading_equals_published_at_s1(self):
        for K in (3, 4, 5, 6):
            for r in range(1, K):
                rho = {ell: Fraction(1, 3) for ell in range(r + 1, K + 1)}
                a = l_cdc_ld(r, 1, K, K, comb(K, r), 12, rho)
                b = l_cdc_ld_accounting(r, 1, K, K, comb(K, r), 12, rho)
                assert a == b

    def test_readings_differ_for_s2(self):
        rho = {3: 2, 4: 2}
        a = l_cdc_ld(2, 2, 4, 6, 6, 8, rho)
        b = l_cdc_ld_accounting(2, 2, 4, 6, 6, 8, rho)
        assert a != b

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            l_cdc_ld(2, 1, 4, 4, 6, 12, {3: -1})


class TestLoadReport:
    def test_s1_deviation_is_zero_for_all_schemes(self):
        spec = JobSpec(K=4, N=6, Q=4, r=2, s=1, T=30)
        for scheme in ("uncoded", "cdc", "cdc-ld"):
            report = build_load_report(run(spec, WordCountWorkload(PAPER_BLOCKS), scheme))
            assert report.deviation == 0

    def test_s2_report_flags_ambiguity(self):
        spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
        report = build_load_report(run(spec, SyntheticRankWorkload(seed=1), "cdc-ld"))
        assert report.notes == GENERAL_S_FLAG
        assert report.deviation_alt == 0          # bit accounting matches the derived reading
        assert report.deviation != 0              # and differs from the published reading

    def test_s2_cdc_exact(self):
        spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=8)
        report = build_load_report(run(spec, SyntheticRankWorkload(seed=1), "cdc"))
        assert report.deviation == 0

    def test_s3_single_segment_exact(self):
        # r=1: one holder subset per sender, degree-1 field, always aligned
        spec = JobSpec(K=5, N=5, Q=10, r=1, s=3, T=4)
        report = build_load_report(run(spec, SyntheticRankWorkload(seed=2), "cdc"))
        assert report.load_analytic == l_cdc(1, 3, 5)
        assert report.deviation == 0

    def test_s2_block_padding_reported_not_hidden(self):
        # T=2 makes the size-4 group's segment 1 bit; the 2-bit field blocks
        # pad it, so the measured load sits above the closed form
        spec = JobSpec(K=4, N=6, Q=6, r=2, s=2, T=2)
        report = build_load_report(run(spec, SyntheticRankWorkload(seed=3), "cdc"))
        assert report.deviation > 0

    def test_s2_degree3_field_exact(self):
        # the full group of K=5 at r=3 combines six segments, which needs
        # GF(8); T=36 keeps every segment field-block aligned
        spec = JobSpec(K=5, N=10, Q=10, r=3, s=2, T=36)
        result = run(spec, SyntheticRankWorkload(seed=6), "cdc")
        report = build_load_report(result)
        assert result.load_empirical == l_cdc(3, 2, 5) == Fraction(1, 4)
        assert report.deviation == 0


class TestFig2:
    def test_row_values(self):
        rows = {row.r: row for row in fig2_table(16, 16, 128, 2048, 2)}
        assert len(rows) == 15
        assert rows[2].msg_len_bits == Fraction(2048 * 128, 2 * 16 * comb(16, 2))
        assert rows[2].count_paper == comb(16, 3) == 560
        assert rows[2].count_alt == comb(15, 2) == 105
        assert rows[1].msg_len_bits == 1024
        assert rows[15].count_paper == 1

    def test_caption_range(self):
        rows = fig2_table(16, 16, 128, 2048, 2)
        for row in rows:
            holds = row.msg_len_bits < row.count_paper
            assert holds == (2 <= row.r <= 14), row

    def test_q_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            fig2_table(16, 16, 128, 2048, 3)


class TestSweeps:
    def test_fig4_cdc_column(self):
        rows = tradeoff_sweep(10, 360, 2520, 64, range(1, 10), rho_model="full-rank")
        assert [row.r for row in rows] == list(range(1, 10))
        for row in rows:
            assert row.l_uncoded == 1 - Fraction(row.r, 10)
            assert row.l_cdc == Fraction(1, row.r) * (1 - Fraction(row.r, 10))
        assert rows[4].l_cdc == Fraction(1, 10)

    def test_fig3_crossover(self):
        rows = {row.T: row for row in load_vs_t_sweep(4, 4, 6, 2, range(2, 41, 2), rho_model=2)}
        assert rows[12].l_cdc_ld == Fraction(1, 4)
        for T, row in rows.items():
            assert row.l_cdc == Fraction(1, 4)
            if T > 12:
                assert row.l_cdc_ld < Fraction(1, 4)
            elif T < 12:
                assert row.l_cdc_ld > Fraction(1, 4)

    def test_divisibility_skips_row_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = tradeoff_sweep(4, 4, 6, 12, [1, 2, 3], rho_model="full-rank")
        # C(4,1)=4 and C(4,3)=4 do not divide 6
        assert [row.r for row in rows] == [2]
        assert len(caught) == 2

    def test_full_rank_model(self):
        assert rank_label("full-rank") == "full-rank"
        assert resolve_rho("full-rank", 10, 3, 1) == {4: comb(9, 3)}

    def test_constant_model(self):
        assert rank_label(2) == "constant:2"
        assert resolve_rho(2, 4, 2, 1) == {3: 2}

    def test_measured_model(self):
        assert rank_label({3: Fraction(7, 4)}) == "measured"
        assert resolve_rho({3: Fraction(7, 4)}, 4, 2, 1) == {3: Fraction(7, 4)}

    def test_measured_model_string_keys_and_gaps(self):
        # JSON object keys are strings
        assert rank_label({"3": 2}) == "measured"
        assert resolve_rho({"3": 2}, 4, 2, 1) == {3: Fraction(2)}
        with pytest.raises(ValueError, match=r"group sizes \[4\]"):
            resolve_rho({3: 2}, 4, 2, 2)  # s=2: group sizes 3 and 4
