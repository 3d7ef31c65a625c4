import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpforms import kernels, series
from modpforms.errors import BudgetExceededError
from modpforms.series import (
    QSeries,
    delta_power,
    delta_powers,
    eisenstein,
    eta_cubed,
    linear_combine,
    mul,
    one,
    power,
    powers,
    zero,
)

from oracles import (
    delta_power_by_eta_products,
    dense_euler_product_modp,
    integer_delta_power,
    integer_eisenstein,
    mul_full_length,
    poly_mul_modp,
    power_by_squaring,
    sigma,
    tau,
)


class TestEtaCubed:
    def test_small_p3(self):
        s = eta_cubed(3, 7)
        assert list(np.flatnonzero(s.coeffs)) == [0, 3, 6]
        assert list(s.coeffs[np.flatnonzero(s.coeffs)]) == [1, 2, 2]

    def test_small_p7(self):
        s = eta_cubed(7, 2)
        assert list(np.flatnonzero(s.coeffs)) == [0, 1]
        assert list(s.coeffs[np.flatnonzero(s.coeffs)]) == [1, 4]

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_cube_of_euler_product(self, p):
        # dense term-by-term product oracle, cubed, against the sparse identity
        prec = 10**4
        euler = dense_euler_product_modp(p, prec)
        cubed = poly_mul_modp(poly_mul_modp(euler, euler, p, prec), euler, p, prec)
        assert np.array_equal(eta_cubed(p, prec).coeffs.astype(np.int64), cubed)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_eighth_power_is_24fold_product(self, p):
        prec = 10**4
        euler = dense_euler_product_modp(p, prec)
        prod24 = np.zeros(prec, dtype=np.int64)
        prod24[0] = 1
        for _ in range(24):
            prod24 = poly_mul_modp(prod24, euler, p, prec)
        eta8 = power(eta_cubed(p, prec), 8)
        assert np.array_equal(eta8.coeffs.astype(np.int64), prod24)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            eta_cubed(4, 10)
        with pytest.raises(ValueError):
            eta_cubed(3, 0)


class TestDeltaPower:
    def test_power_zero_is_one(self):
        assert delta_power(3, 0, 5) == one(3, 5)

    def test_mod3_support_positions(self):
        d = delta_power(3, 1, 14)
        assert list(np.flatnonzero(d.coeffs)) == [1, 4, 7, 13]

    def test_mod3_values_from_integer_convolution(self):
        d = delta_power(3, 1, 20)
        assert d[4] == tau(4) % 3 == 1
        assert d[7] == tau(7) % 3 == 2

    def test_square_from_integer_convolution(self):
        d2 = delta_power(3, 2, 5)
        ref = integer_delta_power(2, 5)
        assert d2[2] == ref[2] % 3 == 1
        assert d2[4] == ref[4] % 3 == 0

    @pytest.mark.parametrize("p,k,prec", [(3, 1, 40), (5, 3, 64), (7, 2, 50), (11, 4, 80)])
    def test_matches_integer_power(self, p, k, prec):
        ref = integer_delta_power(k, prec)
        got = delta_power(p, k, prec)
        assert [c % p for c in ref] == [int(c) for c in got.coeffs]

    @pytest.mark.parametrize("p,k,prec", [(3, 1, 10), (5, 2, 30), (7, 5, 100), (3, 9, 40)])
    def test_leading_coefficient(self, p, k, prec):
        d = delta_power(p, k, prec)
        nz = np.flatnonzero(d.coeffs)
        assert nz[0] == k and d[k] == 1

    def test_pow_route_agrees(self):
        assert power(delta_power(3, 1, 2000), 2) == delta_power(3, 2, 2000)
        assert power(delta_power(7, 1, 500), 3) == delta_power(7, 3, 500)


class TestFrobeniusPowersAgainstOldRoutes:
    """Frobenius-digit powers against repeated products, bit for bit."""

    # k = 0..24 puts 8k on both sides of a power of p for p <= 13 (27 and 81;
    # 25 and 125; 49; 121; 169) and keeps it one digit for p = 251
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 251])
    def test_delta_power(self, p):
        for k in range(25):
            for prec in sorted({1, max(1, k), k + 1, k + 2, 8 * k + 1, 240}):
                assert delta_power(p, k, prec) == delta_power_by_eta_products(p, k, prec), (k, prec)

    @pytest.mark.parametrize("prec", [10**5, 10**5 + 1, 10**5 + 2])
    def test_delta_power_mod3_long(self, prec):
        # mod 3 the products run on 3Z; these bodies have every length mod 3
        for k in range(1, 5):
            assert delta_power(3, k, prec) == delta_power_by_eta_products(3, k, prec), k

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 251])
    def test_power_of_dense_series(self, p):
        rng = np.random.default_rng(p)
        a = _random_series(rng, p, 150)
        for e in (0, 1, 2, p - 1, p, p * p - 1, p * p, p * p + p - 1):
            assert power(a, e) == power_by_squaring(a, e), e

    def test_exponent_beyond_precision(self):
        # digits past the precision act on the constant term only
        a = QSeries(7, [3, 1, 4, 1, 5])
        for e in (7**5, 7**5 + 2, 3 * 7**9 + 7**6 + 1):
            assert power(a, e) == power_by_squaring(a, e), e

    def test_sparse_input(self):
        rng = np.random.default_rng(6)
        sparse = _sparse_series(rng, 5, 400, 6)
        assert power(sparse, 16) == power_by_squaring(sparse, 16)


def _no_kernel_products(monkeypatch):
    """Make the product kernels fail, for code that must take no product."""

    def refuse(*args):
        raise AssertionError("a product kernel ran")

    monkeypatch.setattr(kernels, "mul_sparse", refuse)
    monkeypatch.setattr(kernels, "mul_dense", refuse)


class TestSharedDigitPowers:
    """powers and delta_powers, one digit walk for a set of exponents, against the old routes."""

    PRIMES = [3, 5, 7, 11, 13, 23, 251]

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("prec", [1, 2, 3, 40])
    def test_powers_match_squaring(self, p, prec):
        rng = np.random.default_rng(p * prec)
        # zero, repeats, one and several digits, exponents whose steps reach prec
        exponents = [0, 5, 1, 0, 5, p - 1, p, p + 1, 2 * p + 3, p * p, p * p + 1, 5, 41]
        for a in (_random_series(rng, p, prec), _sparse_series(rng, p, prec, 1)):
            got = powers(a, exponents)
            assert len(got) == len(exponents)
            for e, g in zip(exponents, got):
                assert g == power_by_squaring(a, e), e
                assert g == power(a, e), e

    @pytest.mark.parametrize("p", PRIMES)
    def test_digits_past_the_precision(self, p):
        a = QSeries(p, [2, 1, 0, 3 % p, 1])
        exponents = [p**5, p**5 + 2, 3 * p**9 + p**6 + 1, p**4 - 1, p**5 + 2]
        for e, g in zip(exponents, powers(a, exponents)):
            assert g == power_by_squaring(a, e), e

    @pytest.mark.parametrize("p", PRIMES)
    def test_constant_base_takes_no_product(self, p, monkeypatch):
        exponents = [0, 1, 2, p, 7 * p + 3]
        for c in (0, 1, p - 1):
            base = QSeries(p, np.eye(1, 30, dtype=np.uint8)[0] * c)
            expect = [power_by_squaring(base, e) for e in exponents]
            with monkeypatch.context() as m:
                _no_kernel_products(m)
                assert powers(base, exponents) == expect

    def test_powers_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            powers(one(3, 5), [1, -1])

    @pytest.mark.parametrize("p", PRIMES)
    def test_delta_powers_match_eta_products(self, p):
        ks = [0, 3, 1, 5, 3, 2, 12, 0, 40]
        for prec in (1, 2, 3, 4, 13, 120):
            got = delta_powers(p, ks, prec)
            for k, g in zip(ks, got):
                assert g == delta_power_by_eta_products(p, k, prec), (k, prec)
                assert g == delta_power(p, k, prec), (k, prec)

    def test_delta_powers_checks(self):
        with pytest.raises(ValueError):
            delta_powers(3, [1, -1], 10)
        with pytest.raises(ValueError):
            delta_powers(4, [1], 10)

    def test_shared_walk_takes_fewer_products(self, monkeypatch):
        # 8c for c < 20 share their low base-3 digits and one running product per
        # level: fewer products than the exponents' digit sums
        calls = []
        sparse_kernel = kernels.mul_sparse
        monkeypatch.setattr(
            kernels, "mul_sparse", lambda *args: calls.append(1) or sparse_kernel(*args)
        )
        delta_powers(3, range(20), 2000)
        shared = len(calls)
        calls.clear()
        for k in range(20):
            delta_power(3, k, 2000)
        assert 0 < shared < len(calls)

    def test_eta_cubed_matches_the_term_loop(self):
        for p in (3, 7, 251):
            for prec in (1, 2, 3, 6, 7, 1000, 1035, 1036):
                expect = np.zeros(prec, dtype=np.int64)
                m = 0
                while m * (m + 1) // 2 < prec:
                    expect[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1) % p
                    m += 1
                assert eta_cubed(p, prec) == QSeries(p, expect), (p, prec)


class TestConstantOperand:
    """A product with a constant operand is a scaling, equal to the full-length product."""

    @pytest.mark.parametrize("p", [3, 5, 7, 251])
    def test_against_full_length_product(self, p, monkeypatch):
        rng = np.random.default_rng(p)
        for prec_a, prec_b in ((50, 50), (50, 31), (1, 20), (20, 1)):
            for c in (0, 1, 2 % p, p - 1):
                const = QSeries(p, np.eye(1, prec_a, dtype=np.uint8)[0] * c)
                for other in (
                    _random_series(rng, p, prec_b),
                    _sparse_series(rng, p, prec_b, 1),
                    zero(p, prec_b),
                ):
                    expect = [mul_full_length(const, other), mul_full_length(other, const)]
                    with monkeypatch.context() as m:
                        _no_kernel_products(m)
                        assert [mul(const, other), mul(other, const)] == expect


class TestEisenstein:
    def test_degenerate_constants(self):
        assert eisenstein(3, 4, 8) == one(3, 8)  # 3 | 240
        assert eisenstein(7, 6, 8) == one(7, 8)  # 7 | 504

    def test_e4_mod7_prefix(self):
        e = eisenstein(7, 4, 3)
        assert list(e.coeffs) == [1, 2, 4]
        assert 240 * sigma(2, 3) % 7 == 4

    @pytest.mark.parametrize("p,k", [(5, 4), (7, 4), (11, 6), (13, 6), (251, 4), (251, 6)])
    def test_against_integer_sigma(self, p, k):
        prec = 60
        ref = integer_eisenstein(k, prec)
        got = eisenstein(p, k, prec)
        assert [c % p for c in ref] == [int(c) for c in got.coeffs]

    def test_rejects_unsupported_weight(self):
        with pytest.raises(ValueError):
            eisenstein(5, 8, 10)

    # the sieve and the degenerate-constant path alike
    @pytest.mark.parametrize("p,k,prec", [(7, 4, 0), (3, 4, 0), (5, 6, -1)])
    def test_rejects_nonpositive_precision(self, p, k, prec):
        with pytest.raises(ValueError, match="prec must be positive"):
            eisenstein(p, k, prec)


def _random_series(rng, p, prec):
    return QSeries(p, rng.integers(0, p, size=prec))


def _sparse_series(rng, p, prec, terms):
    """A series with exactly `terms` nonzero coefficients at random positions."""
    coeffs = np.zeros(prec, dtype=np.uint8)
    coeffs[rng.choice(prec, size=terms, replace=False)] = rng.integers(1, p, size=terms)
    return QSeries(p, coeffs)


class TestRingOps:
    def test_mul_identity(self):
        rng = np.random.default_rng(1)
        f = _random_series(rng, 7, 50)
        assert mul(f, one(7, 50)) == f

    def test_pow_zero(self):
        rng = np.random.default_rng(2)
        f = _random_series(rng, 5, 30)
        assert power(f, 0) == one(5, 30)

    @pytest.mark.parametrize("p", [3, 7, 251])
    def test_commutative_associative(self, p):
        rng = np.random.default_rng(p)
        for _ in range(5):
            a, b, c = (_random_series(rng, p, 40) for _ in range(3))
            assert mul(a, b) == mul(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_linear_combine_is_linear(self):
        rng = np.random.default_rng(3)
        p = 5
        a, b = _random_series(rng, p, 30), _random_series(rng, p, 30)
        s = linear_combine([(2, a), (3, b)])
        expect = (2 * a.coeffs.astype(np.int64) + 3 * b.coeffs.astype(np.int64)) % p
        assert list(s.coeffs) == list(expect)

    def test_linear_combine_accepts_field_elements(self):
        a = one(5, 4)
        s = linear_combine([(7, a)])
        assert s[0] == 2
        assert (7 * a)[0] == 2

    def test_delta_power_cap(self, monkeypatch):
        monkeypatch.setattr(series, "MAX_PREC", 50)
        with pytest.raises(BudgetExceededError, match="cap"):
            delta_power(3, 1, 100)
        monkeypatch.setattr(series, "MAX_PREC", 100)
        assert delta_power(3, 1, 100).prec == 100

    def test_eisenstein_cap(self, monkeypatch):
        monkeypatch.setattr(series, "MAX_PREC", 50)
        with pytest.raises(BudgetExceededError, match="cap"):
            eisenstein(7, 4, 100)
        monkeypatch.setattr(series, "MAX_PREC", 100)
        assert eisenstein(7, 4, 100).prec == 100

    def test_mul_rejects_mismatched_moduli(self):
        with pytest.raises(ValueError):
            mul(one(3, 4), one(5, 4))

    def test_truncates_to_min_precision(self):
        rng = np.random.default_rng(4)
        a = _random_series(rng, 7, 100)
        b = _random_series(rng, 7, 60)
        assert mul(a, b).prec == 60

    def test_dense_and_sparse_paths_agree(self):
        rng = np.random.default_rng(5)
        p, prec = 7, 300
        dense = _random_series(rng, p, prec)
        sparse = _sparse_series(rng, p, prec, 6)
        via_auto = mul(dense, sparse)
        via_dense = QSeries(p, poly_mul_modp(dense.coeffs, sparse.coeffs, p, prec))
        assert via_auto == via_dense

    @pytest.mark.parametrize("n", [100, 1000])
    def test_sparse_budget_boundary(self, n, monkeypatch):
        # at the budget the sparse kernel runs, one term past it the FFT does
        calls = []
        sparse_kernel = kernels.mul_sparse
        monkeypatch.setattr(
            kernels, "mul_sparse", lambda *args: calls.append(len(args[1])) or sparse_kernel(*args)
        )
        rng = np.random.default_rng(n)
        p = 7
        budget = max(8, int(0.05 * n))
        dense = _random_series(rng, p, n)
        for terms in (budget, budget + 1):
            sparse = _sparse_series(rng, p, n, terms)
            expect = QSeries(p, poly_mul_modp(dense.coeffs, sparse.coeffs, p, n))
            assert mul(dense, sparse) == expect
            assert mul(sparse, dense) == expect
        assert calls == [budget, budget]

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3 ** 12 - 1),
        st.integers(min_value=0, max_value=3 ** 12 - 1),
    )
    def test_distributivity_property(self, seed_a, seed_b):
        p = 3
        a = QSeries(p, [int(d) for d in np.base_repr(seed_a, 3).zfill(12)])
        b = QSeries(p, [int(d) for d in np.base_repr(seed_b, 3).zfill(12)])
        c = QSeries(p, list(range(12)))
        lhs = mul(a + b, c)
        rhs = mul(a, c) + mul(b, c)
        assert lhs == rhs


def _on_lattice(rng, p, prec, step, terms=None):
    """A random series vanishing off the multiples of step, with a nonzero constant term.

    All multiples of step carry random residues, or, given ``terms``, that
    many of them carry nonzero ones.
    """
    coeffs = np.zeros(prec, dtype=np.uint8)
    slots = np.arange(0, prec, step)
    if terms is None:
        coeffs[slots] = rng.integers(0, p, size=len(slots))
    else:
        chosen = rng.choice(slots[1:], size=min(terms, len(slots) - 1), replace=False)
        coeffs[chosen] = rng.integers(1, p, size=len(chosen))
    coeffs[0] = rng.integers(1, p)
    return QSeries(p, coeffs)


def _assert_product(a, b):
    """mul(a, b) and mul(b, a) against the integer convolution and the full-length product."""
    out_len = min(a.prec, b.prec)
    expect = QSeries(a.p, poly_mul_modp(a.coeffs, b.coeffs, a.p, out_len))
    assert mul_full_length(a, b) == expect
    assert mul(a, b) == expect
    assert mul(b, a) == expect


class TestSupportLattice:
    """Products of operands that vanish off the multiples of a step, bit for bit."""

    @pytest.mark.parametrize("p", [3, 5, 7, 251])
    @pytest.mark.parametrize("step", [2, 3, 4, 6, 9])
    def test_both_dilated(self, p, step):
        rng = np.random.default_rng(100 * p + step)
        # out_len = 0, 1 and 2 mod step; dense and sparse operands
        for prec in (step * 60, step * 60 + 1, step * 60 + 2):
            for terms_a, terms_b in ((None, None), (None, 4), (5, 3)):
                a = _on_lattice(rng, p, prec, step, terms_a)
                b = _on_lattice(rng, p, prec, step, terms_b)
                _assert_product(a, b)

    @pytest.mark.parametrize("p", [3, 5, 7, 251])
    @pytest.mark.parametrize("step_a,step_b", [(2, 3), (4, 9), (4, 6), (6, 9), (2, 4), (3, 9)])
    def test_different_steps(self, p, step_a, step_b):
        # gcd 1, 1, 2, 3, 2 and 3
        rng = np.random.default_rng(p * step_a * step_b)
        for prec in (301, 302, 324):
            for terms in (None, 4):
                a = _on_lattice(rng, p, prec, step_a, terms)
                b = _on_lattice(rng, p, prec, step_b)
                _assert_product(a, b)

    @pytest.mark.parametrize("p", [3, 5, 7, 251])
    @pytest.mark.parametrize("step", [2, 3, 9])
    def test_one_dilated(self, p, step):
        rng = np.random.default_rng(p + step)
        for prec in (step * 40 + 1, step * 40 + 2):
            _assert_product(_on_lattice(rng, p, prec, step), _random_series(rng, p, prec))
            _assert_product(_on_lattice(rng, p, prec, step, 3), _sparse_series(rng, p, prec, 5))

    @pytest.mark.parametrize("p", [3, 5, 7, 251])
    @pytest.mark.parametrize("step", [2, 3, 6])
    def test_constant_and_zero_operands(self, p, step):
        rng = np.random.default_rng(p * step)
        prec = step * 50 + 1
        lattice = _on_lattice(rng, p, prec, step)
        constant = QSeries(p, np.eye(1, prec, dtype=np.uint8)[0] * (p - 1))
        for other in (constant, zero(p, prec), one(p, prec), lattice):
            _assert_product(lattice, other)
            _assert_product(constant, other)
            _assert_product(zero(p, prec), other)

    @pytest.mark.parametrize("p", [3, 5, 7, 251])
    def test_unequal_precisions(self, p):
        rng = np.random.default_rng(p)
        for step in (2, 3, 4, 6, 9):
            for long_prec, short_prec in ((step * 70, step * 50 + 1), (step * 50 + 2, step * 30)):
                a = _on_lattice(rng, p, long_prec, step)
                b = _on_lattice(rng, p, short_prec, step, 5)
                _assert_product(a, b)
                # an entry off the lattice past the shorter precision
                off = a.coeffs.copy()
                off[short_prec + 1] = 1
                _assert_product(QSeries(p, off), b)

    @pytest.mark.parametrize("p", [3, 5, 7, 251])
    def test_prefix_on_a_lattice_the_rest_off_it(self, p):
        # the first exponents share a step that later ones break
        rng = np.random.default_rng(p + 1)
        prec = 3000
        for step, stray in ((4, 6), (4, 2999), (3, 1000), (9, 2998)):
            a = _on_lattice(rng, p, prec, step)
            a_off = a.coeffs.copy()
            a_off[stray] = 1
            b = _on_lattice(rng, p, prec, step, 6)
            _assert_product(QSeries(p, a_off), b)
            _assert_product(a, b)
            b_off = b.coeffs.copy()
            b_off[stray] = p - 1
            _assert_product(a, QSeries(p, b_off))

    def test_mod3_products_run_at_a_third(self, monkeypatch):
        lengths = []
        sparse_kernel = kernels.mul_sparse
        monkeypatch.setattr(
            kernels, "mul_sparse", lambda *args: lengths.append(args[4]) or sparse_kernel(*args)
        )
        delta_power(3, 1, 30001)
        assert lengths and max(lengths) <= 10001
        lengths.clear()
        delta_power(7, 1, 30001)
        assert lengths and set(lengths) == {30000}


class TestValidation:
    def test_rejects_bad_modulus(self):
        for p in (2, 4, 9, 1, 256, 257):
            with pytest.raises(ValueError):
                QSeries(p, [1])

    def test_qseries_reduces_input(self):
        s = QSeries(5, [7, -1, 12])
        assert list(s.coeffs) == [2, 4, 2]

    def test_zero_helper(self):
        assert zero(3, 3).is_zero()
