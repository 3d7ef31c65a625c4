import numpy as np
import pytest

from modpforms.arith import squarefree_mask
from modpforms.basis import GradedForm, dim_level_one
from modpforms.counting import (
    coefficient_table,
    compare_report,
    count_pi,
    count_pi_sf,
    decomposition_oracle,
    oracle_check,
    oracle_components,
    table_of_series,
)
from modpforms.densities import leading_constants_sf
from modpforms.series import delta_power

from oracles import integer_delta_power


def _delta_form(p, k, sample_bound=2000):
    prec = sample_bound * max(dim_level_one(12 * k) - 1, 1) + 9
    return GradedForm(delta_power(p, k, prec), 12 * k)


class TestCoefficientTable:
    def test_delta_positions(self):
        t = coefficient_table("delta", 3, 14)
        assert list(np.flatnonzero(t.coeffs)) == [1, 4, 7, 13]

    def test_delta_square_prefix(self):
        t = coefficient_table("delta^2", 3, 5)
        ref = integer_delta_power(2, 5)
        assert [int(c) for c in t.coeffs] == [c % 3 for c in ref]
        assert t.coeffs[2] == 1 and t.coeffs[3] == 0 and t.coeffs[4] == 0

    def test_zero_expression(self):
        t = coefficient_table("0", 5, 9)
        assert not t.coeffs.any()

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            coefficient_table("delta", 3, 2 * 10**6, cap=10**6)


class TestCounts:
    def test_pi_delta_small(self):
        t = coefficient_table("delta", 3, 14)
        rep = count_pi(t, [14])
        assert rep.pi == [4]

    def test_zero_table(self):
        t = coefficient_table("0", 3, 100)
        rep = count_pi(t, [10, 100])
        assert rep.pi == [0, 0]

    @pytest.mark.parametrize("count", [count_pi, count_pi_sf])
    def test_negative_checkpoint_rejected(self, count):
        # a negative bound would slice from the end of the table
        t = coefficient_table("delta", 3, 1000)
        with pytest.raises(ValueError, match="negative"):
            count(t, [-5, 100])

    def test_by_value_sums_to_total(self):
        t = coefficient_table("delta", 3, 10**4)
        rep = count_pi(t, [10**3, 10**4], by_value=True)
        for i in range(2):
            assert sum(rep.per_value[a][i] for a in (1, 2)) == rep.pi[i]

    def test_pi_sf_drops_squares(self):
        t = coefficient_table("delta", 3, 14)
        rep = count_pi_sf(t, [14])
        assert rep.pi_sf == [3]  # drops n = 4

    def test_x_equals_two(self):
        t = coefficient_table("delta", 3, 4)
        rep = count_pi_sf(t, [2])
        assert rep.pi_sf == [1 if t.coeffs[1] else 0]

    def test_sf_below_plain(self):
        t = coefficient_table("delta^2", 3, 10**4)
        plain = count_pi(t, [10**2, 10**4])
        sf = count_pi_sf(t, [10**2, 10**4])
        assert all(s <= p for s, p in zip(sf.pi_sf, plain.pi))

    def test_counts_nondecreasing(self):
        t = coefficient_table("delta", 7, 10**4)
        rep = count_pi(t, [10, 100, 1000, 10**4])
        assert rep.pi == sorted(rep.pi)

    def test_threads_agree(self):
        t = coefficient_table("delta^2-delta", 7, 10**5)
        a = count_pi(t, [10**4, 10**5], by_value=True)
        b = count_pi(t, [10**4, 10**5], by_value=True, threads=4)
        assert a.pi == b.pi and a.per_value == b.per_value
        sa = count_pi_sf(t, [10**5])
        sb = count_pi_sf(t, [10**5], threads=3)
        assert sa.pi_sf == sb.pi_sf

    def test_thread_count_is_clamped(self, monkeypatch):
        # record the requested pool size and run the blocks inline: no thread starts
        import concurrent.futures
        import os

        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        t = coefficient_table("delta", 7, 10**4)
        serial = count_pi(t, [10**3, 10**4], by_value=True)
        wide = count_pi(t, [10**3, 10**4], by_value=True, threads=100000)
        assert requested == [4]
        assert wide.pi == serial.pi and wide.per_value == serial.per_value
        short = table_of_series(delta_power(7, 1, 3))
        count_pi_sf(short, [3], threads=100000)
        assert requested == [4, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert count_pi(t, [10**4], threads=100000).pi == serial.pi[-1:]
        assert requested == [4, 3]

    def test_checkpoint_beyond_table(self):
        t = coefficient_table("delta", 3, 100)
        with pytest.raises(ValueError):
            count_pi(t, [1000])


class TestSquarefreeMask:
    def test_against_bruteforce(self):
        mask = squarefree_mask(1000)
        for n in range(1000):
            expect = n > 0 and all(n % (q * q) for q in range(2, int(n**0.5) + 1))
            assert bool(mask[n]) == expect


class TestOracle:
    def test_spot_predictions_delta_square_mod3(self):
        comps = oracle_components(_delta_form(3, 2))
        records = {r.n: r for r in decomposition_oracle(comps, 5, 3)}
        ref = integer_delta_power(2, 5)
        # n = 2: unit part empty, nilpotent part 2, square-full part 1
        assert records[2].parts[0] == (1, 2, 1)
        assert records[2].predicted == ref[2] % 3 == 1
        # n = 4: square-full part 4, operator acts as identity, a_1 of the square is 0
        assert records[4].parts[0] == (1, 1, 4)
        assert records[4].predicted == ref[4] % 3 == 0
        # n = 1: trivial split
        assert records[1].parts[0] == (1, 1, 1)
        assert records[1].predicted == ref[1] % 3 == 0

    @pytest.mark.parametrize("expr,p", [("delta", 3), ("delta^2", 7)])
    def test_exact_match_small(self, expr, p):
        k = 2 if "2" in expr else 1
        f = _delta_form(p, k)
        comps = oracle_components(f)
        table = coefficient_table(expr, p, 2000)
        matches, total, mismatches = oracle_check(table, comps, 2000)
        assert mismatches == []
        assert matches == total

    def test_nonpure_sum_of_components(self):
        # the square mod 7 splits into two components whose predictions add up
        f = _delta_form(7, 2)
        comps = oracle_components(f)
        assert len(comps) == 2
        table = coefficient_table("delta^2", 7, 3000)
        matches, total, _ = oracle_check(table, comps, 3000)
        assert matches == total


class TestLacunarity:
    def test_density_decreases(self, delta3_table_1e6):
        rep = count_pi(delta3_table_1e6, [10**3, 10**4, 10**5, 10**6])
        densities = [pi / x for pi, x in zip(rep.pi, rep.checkpoints)]
        assert densities == sorted(densities, reverse=True)


class TestCompare:
    def test_ratio_columns(self):
        t = coefficient_table("delta", 3, 10**4)
        rep = count_pi_sf(t, [10**3, 10**4])
        prof = leading_constants_sf(_delta_form(3, 1), prime_bound=10**5)
        merged = compare_report(rep, prof, squarefree=True)
        assert len(merged.predicted) == 2
        for ratio in merged.ratios:
            assert 0.3 < ratio < 3.0
