import numpy as np
import pytest

from modpforms import basis, kernels
from modpforms.basis import (
    GradedForm,
    _mod_monomials,
    dim_level_one,
    from_coordinates,
    miller_basis,
    to_coordinates,
)
from modpforms.errors import NotInSpanError
from modpforms.series import QSeries, delta_power, eisenstein, mul, one

from oracles import (
    fraction_echelon,
    int_poly_mul,
    integer_delta_power,
    integer_eisenstein,
    miller_basis_per_monomial,
)


class TestDimension:
    def test_classical_values(self):
        expect = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1, 16: 2, 24: 3, 26: 2}
        for k, d in expect.items():
            assert dim_level_one(k) == d
        assert dim_level_one(7) == 0
        assert dim_level_one(-4) == 0


class TestMillerBasis:
    def test_weight_zero(self):
        b = miller_basis(3, 0, 6)
        assert b.dim == 1
        assert np.array_equal(b.matrix()[0], one(3, 6).coeffs)

    def test_weight_twelve_mod3(self):
        b = miller_basis(3, 12, 10)
        assert b.dim == 2
        assert b.matrix()[0, 0] == 1 and b.matrix()[0, 1] == 0
        assert np.array_equal(b.matrix()[1], delta_power(3, 1, 10).coeffs)

    def test_weight_24_mod7_echelon(self):
        b = miller_basis(7, 24, 12)
        assert b.dim == 3
        for i, row in enumerate(b.matrix()):
            head = [int(row[j]) for j in range(3)]
            assert head == [1 if j == i else 0 for j in range(3)]

    @pytest.mark.parametrize("k,p", [(24, 7), (60, 3), (60, 251), (120, 5)])
    def test_against_fraction_echelon(self, k, p):
        # independent oracle: echelonize the integer expansions of
        # E4^a * E6^b * Delta^c (c < dim) over Q, then reduce mod p
        dim = dim_level_one(k)
        prec = dim + 6
        e4 = list(integer_eisenstein(4, prec))
        e6 = list(integer_eisenstein(6, prec))
        rows = []
        for c in range(dim):
            r = k - 12 * c
            b = 0 if r % 4 == 0 else 1
            row = list(integer_delta_power(c, prec))
            for factor in [e4] * ((r - 6 * b) // 4) + [e6] * b:
                row = int_poly_mul(row, factor, prec)
            rows.append(row)
        ech = fraction_echelon(rows)
        expect = [[int(x) % p for x in row] for row in ech]
        for x in sum(([f.denominator for f in row] for row in ech), []):
            assert x == 1  # pivots are 1, so the echelon basis stays integral
        got = miller_basis(p, k, prec)
        assert got.matrix().tolist() == expect

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_echelon_survives_reduction(self, p):
        for k in range(0, 289, 36):
            if dim_level_one(k) == 0:
                continue
            b = miller_basis(p, k, dim_level_one(k) + 4)
            for i, row in enumerate(b.matrix()):
                head = row[: b.dim]
                assert head[i] == 1 and np.count_nonzero(head) == 1

    def test_rejects_odd_weight_and_small_prec(self):
        with pytest.raises(ValueError):
            miller_basis(3, 13, 10)
        with pytest.raises(ValueError):
            miller_basis(3, 24, 2)


class TestSharedMonomials:
    """The weight basis from shared digit walks against the per-monomial route."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_bytes_match_per_monomial_route(self, p, monkeypatch):
        monkeypatch.setattr(basis, "_basis_cache", {})
        for k in range(12, 229, 2):
            dim = dim_level_one(k)
            if dim == 0:
                continue
            prec = 3 * dim + 40
            got = miller_basis(p, k, prec).matrix()
            assert got.tobytes() == miller_basis_per_monomial(p, k, prec).tobytes(), k

    def test_weight_228_mod3_at_work_precision(self, monkeypatch):
        monkeypatch.setattr(basis, "_basis_cache", {})
        got = miller_basis(3, 228, 38009).matrix()
        assert got.tobytes() == miller_basis_per_monomial(3, 228, 38009).tobytes()

    def test_no_product_kernel_takes_a_constant(self, monkeypatch):
        # mod 3, E4 = E6 = 1: mul scales by them instead of calling a kernel
        seen = []
        sparse, dense = kernels.mul_sparse, kernels.mul_dense

        def sparse_spy(d, exps, coefs, p, out_len):
            seen.append(not d[1:out_len].any() or not (np.asarray(exps) > 0).any())
            return sparse(d, exps, coefs, p, out_len)

        def dense_spy(a, b, p, out_len):
            seen.append(not a[1:out_len].any() or not b[1:out_len].any())
            return dense(a, b, p, out_len)

        monkeypatch.setattr(kernels, "mul_sparse", sparse_spy)
        monkeypatch.setattr(kernels, "mul_dense", dense_spy)
        _mod_monomials(3, 228, 38009)
        assert seen and not any(seen)

    def test_one_read_only_matrix(self, monkeypatch):
        monkeypatch.setattr(basis, "_basis_cache", {})
        full = miller_basis(7, 48, 500)
        assert full.matrix() is full.rows and not full.matrix().flags.writeable
        short = miller_basis(7, 48, 100)
        assert np.shares_memory(short.matrix(), full.matrix())
        assert short.matrix().shape == (5, 100)


class TestCoordinates:
    def test_delta_coords(self):
        f = GradedForm(delta_power(3, 1, 10), 12)
        assert list(to_coordinates(f, miller_basis(3, 12, 10))) == [0, 1]

    def test_constant_coords(self):
        f = GradedForm(one(3, 10), 12)
        assert list(to_coordinates(f, miller_basis(3, 12, 10))) == [1, 0]

    def test_delta_square_roundtrip_1000(self):
        prec = 1000
        f = GradedForm(delta_power(3, 2, prec), 24)
        basis = miller_basis(3, 24, prec)
        coords = to_coordinates(f, basis)
        recon = from_coordinates(coords, basis, prec)
        assert recon == f.series

    def test_zero_and_unit_vectors(self):
        basis = miller_basis(7, 24, 10)
        assert from_coordinates([0, 0, 0], basis, 10).is_zero()
        for i in range(3):
            e = [1 if j == i else 0 for j in range(3)]
            assert np.array_equal(from_coordinates(e, basis, 10).coeffs, basis.matrix()[i])

    def test_extension_regenerates_basis(self):
        basis = miller_basis(3, 24, 10)
        long = from_coordinates([0, 0, 1], basis, 300)
        assert long.prec == 300
        assert long == delta_power(3, 2, 300)

    @pytest.mark.parametrize("p,k", [(3, 36), (5, 120), (7, 288)])
    def test_random_roundtrip(self, p, k):
        rng = np.random.default_rng(k + p)
        dim = dim_level_one(k)
        prec = dim + 25
        basis = miller_basis(p, k, prec)
        for _ in range(5):
            coords = rng.integers(0, p, size=dim)
            f = from_coordinates(coords, basis, prec)
            assert list(to_coordinates(GradedForm(f, k), basis)) == list(coords)

    def test_wrong_weight_lift_detected(self):
        # the cusp form is not in the weight-14 space
        f = GradedForm(delta_power(3, 1, 10), 14)
        with pytest.raises(NotInSpanError):
            to_coordinates(f, miller_basis(3, 14, 10))

    def test_non_form_detected(self):
        junk = GradedForm(QSeries(3, [1, 1, 1, 1, 1, 1, 2, 1, 1, 1]), 12)
        with pytest.raises(NotInSpanError):
            to_coordinates(junk, miller_basis(3, 12, 10))

    def test_valid_higher_lift_accepted(self):
        # multiplying by E4 (which is 1 mod 3) realizes the cusp form in weight 16
        f = GradedForm(delta_power(3, 1, 12), 16)
        coords = to_coordinates(f, miller_basis(3, 16, 12))
        recon = from_coordinates(coords, miller_basis(3, 16, 12), 12)
        assert recon == f.series

    def test_weight_mismatch_rejected(self):
        f = GradedForm(delta_power(3, 1, 10), 12)
        with pytest.raises(ValueError):
            to_coordinates(f, miller_basis(3, 24, 10))


class TestGradedForm:
    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            GradedForm(one(3, 4), 13)

    def test_combination_membership(self):
        # E4 * delta lies in the weight-16 space mod 7
        prec = 40
        f = mul(eisenstein(7, 4, prec), delta_power(7, 1, prec))
        coords = to_coordinates(GradedForm(f, 16), miller_basis(7, 16, prec))
        assert from_coordinates(coords, miller_basis(7, 16, prec), prec) == f
