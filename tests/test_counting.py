import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from modpforms import counting
from modpforms.arith import squarefree_mask
from modpforms.basis import GradedForm, dim_level_one
from modpforms.counting import (
    ORACLE_BLOCK,
    CountReport,
    coefficient_table,
    compare_report,
    count_pi,
    count_pi_sf,
    decomposition_oracle,
    oracle_check,
    oracle_components,
)
from modpforms.densities import leading_constants_sf
from modpforms.errors import BudgetExceededError
from modpforms.expr import evaluate, parse_form_expression
from modpforms.module import work_precision
from modpforms.series import MAX_PREC, QSeries, delta_power

from oracles import counts_per_index, decomposition_oracle_per_index, integer_delta_power

# the forms of acceptance criterion 7
CRITERION_7_FORMS = [
    ("delta", 3), ("delta^2", 3), ("delta^5", 3), ("delta", 7), ("delta^2", 7), ("delta^2-delta", 7),
]


def _delta_form(p, k, sample_bound=2000):
    prec = sample_bound * max(dim_level_one(12 * k) - 1, 1) + 9
    return GradedForm(delta_power(p, k, prec), 12 * k)


@lru_cache(maxsize=None)
def _components(expr, p):
    """Oracle components of a criterion-7 form, from a 600-prime sample as the CLI tests use."""
    f = evaluate(parse_form_expression(expr, p), p, work_precision(60, 600))
    head = GradedForm(f.series.truncate(work_precision(f.weight, 600)), f.weight)
    return oracle_components(head, sample_bound=600)


@lru_cache(maxsize=None)
def _per_index(expr, p, X):
    """Per-index predictions keyed by n, for every n < X coprime to p."""
    return {r.n: r.predicted for r in decomposition_oracle_per_index(_components(expr, p), X, p)}


def _expected(expr, p, X, upto):
    per_index = _per_index(expr, p, upto)
    return [per_index[n] for n in range(1, X) if n % p]


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
        # the series cap is the only one: 10^6 + 1 coefficients are a series like any other
        assert coefficient_table("delta", 3, 10**6 + 1).prec == 10**6 + 1
        with pytest.raises(BudgetExceededError):
            coefficient_table("delta", 3, MAX_PREC + 1)


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
        rep = count_pi(t, [10**3, 10**4])
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

    def test_checkpoint_beyond_table(self):
        t = coefficient_table("delta", 3, 100)
        with pytest.raises(ValueError):
            count_pi(t, [1000])

    def test_table_beyond_series_rejected(self):
        # 10 coefficients cannot stand for counts or an oracle range to 20
        qs = delta_power(3, 1, 10)
        with pytest.raises(ValueError, match="precision"):
            count_pi(qs, [20])
        with pytest.raises(ValueError, match="precision"):
            oracle_check(qs, [], 20)
        assert count_pi(qs, [10]).pi == [3]

    def test_peak_memory_is_the_mask_and_a_block(self, delta3_table_1e6):
        # the 1 MB square-free mask and one key block; a copy of the series would add 1 MB
        tracemalloc.start()
        count_pi(delta3_table_1e6, [10**3, 10**6])
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 2 * 10**6


class TestOnePassCounts:
    def test_squarefree_counts_ride_along(self):
        t = coefficient_table("delta^2", 3, 10**4)
        marks = [0, 5, 5, 10**3, 10**4]
        both = count_pi(t, marks)
        assert both.checkpoints == marks
        assert both.pi == [np.count_nonzero(t.coeffs[:x]) for x in marks]
        assert both.pi_sf == count_pi_sf(t, marks).pi_sf

    @pytest.mark.parametrize("form,p", [("E4*delta", 7), ("E6", 131), ("E6", 251)])
    def test_against_per_index_tally(self, form, p):
        size = 3000
        t = coefficient_table(form, p, size)
        marks = [0, 5, 5, 6, 1000, size]
        mask = [
            n > 0 and all(n % (q * q) for q in range(2, math.isqrt(n) + 1)) for n in range(size)
        ]
        expect = counts_per_index(t.coeffs, mask, marks, p)
        both = count_pi(t, marks)
        sf = count_pi_sf(t, marks)
        assert both.pi == [sum(row[1:]) for row in expect["all"]]
        assert both.pi_sf == sf.pi_sf == [sum(row[1:]) for row in expect["kept"]]
        assert both.per_value == {a: [row[a] for row in expect["all"]] for a in range(1, p)}
        assert sf.per_value == {a: [row[a] for row in expect["kept"]] for a in range(1, p)}


class TestSquarefreeMask:
    def test_against_bruteforce(self):
        mask = squarefree_mask(1000)
        for n in range(1000):
            expect = n > 0 and all(n % (q * q) for q in range(2, int(n**0.5) + 1))
            assert bool(mask[n]) == expect


class TestOracle:
    def test_spot_predictions_delta_square_mod3(self):
        comps = oracle_components(_delta_form(3, 2))
        records = {r.n: r for r in decomposition_oracle_per_index(comps, 5, 3)}
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

    # tiny ranges, X = q^2 and q^2 + 1 across the small/large prime split,
    # and, at a block of 16, one below and one above each of two block edges
    @pytest.mark.parametrize("expr,p", CRITERION_7_FORMS)
    def test_batched_matches_per_index(self, monkeypatch, expr, p):
        comps = _components(expr, p)
        xs = [1, 2, 3, 4, 5] + [x for q in (5, 7, 11) for x in (q * q, q * q + 1)]
        for X in xs:
            got = decomposition_oracle(comps, X, p)
            assert got.tolist() == _expected(expr, p, X, 200), X
        monkeypatch.setattr(counting, "ORACLE_BLOCK", 16)
        for X in (16, 18, 32, 34, 200):
            got = decomposition_oracle(comps, X, p)
            assert got.tolist() == _expected(expr, p, X, 200), X

    def test_batched_matches_per_index_at_the_block_edge(self):
        expr, p = "delta^5", 3
        comps = _components(expr, p)
        for X in (ORACLE_BLOCK, ORACLE_BLOCK + 2):
            got = decomposition_oracle(comps, X, p)
            assert len(got) == X - 1 - (X - 1) // p
            assert got.tolist() == _expected(expr, p, X, ORACLE_BLOCK + 2), X

    def test_mismatches_are_the_first_twenty_in_increasing_n(self):
        expr, p, X = "delta^2-delta", 7, 2000
        comps = _components(expr, p)
        table = coefficient_table(expr, p, X)
        coeffs = table.coeffs.copy()
        # multiples of 7 are not checked, so flipping them changes nothing
        flipped = [n for n in range(1, X, 37) if n % p] + [7, 14, 700]
        for n in flipped:
            coeffs[n] = (coeffs[n] + 1) % p
        bad = QSeries(p, coeffs)
        per_index = [(r.n, r.predicted) for r in decomposition_oracle_per_index(comps, X, p)]
        expect = [(n, pred, int(coeffs[n])) for n, pred in per_index if pred != coeffs[n]]
        matches, total, mismatches = oracle_check(bad, comps, X)
        assert len(expect) == len(flipped) - 3 > 20
        assert (matches, total) == (len(per_index) - len(expect), len(per_index))
        assert mismatches == expect[:20]
        assert all(type(x) is int for m in mismatches for x in m)

    # the table against the oracle at the paper's range
    @pytest.mark.parametrize("expr,p", CRITERION_7_FORMS)
    def test_table_sweep_1e6(self, expr, p):
        X = 10**6
        table = coefficient_table(expr, p, X)
        matches, total, mismatches = oracle_check(table, _components(expr, p), X)
        assert mismatches == []
        assert matches == total == X - 1 - (X - 1) // p


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

    def test_squarefree_needs_squarefree_counts(self):
        rep = CountReport([10**3, 10**4], [100, 1000])
        prof = leading_constants_sf(_delta_form(3, 1), prime_bound=10**5)
        with pytest.raises(ValueError, match="square-free"):
            compare_report(rep, prof, squarefree=True)

    def test_all_index_comparison_needs_all_index_counts(self):
        rep = count_pi_sf(coefficient_table("delta", 3, 10**4), [10**3, 10**4])
        prof = leading_constants_sf(_delta_form(3, 1), prime_bound=10**5)
        with pytest.raises(ValueError, match="all-index"):
            compare_report(rep, prof, squarefree=False)
        assert rep.predicted is None and rep.ratios is None
