import numpy as np
import pytest

from modpforms import series
from modpforms.basis import GradedForm, dim_level_one, from_coordinates, miller_basis
from modpforms.hecke import (
    HeckeOpSpec,
    apply_S_m,
    apply_T_ell,
    apply_T_m,
    apply_U_m,
    apply_V_m,
    apply_W,
    apply_operator,
    ell_s_ell,
)
from modpforms.series import QSeries, delta_power, one


def _random_form(rng, p, k, prec):
    dim = dim_level_one(k)
    basis = miller_basis(p, k, prec)
    coords = rng.integers(0, p, size=dim)
    if not coords.any():
        coords[0] = 1
    return GradedForm(from_coordinates(coords, basis, prec), k)


class TestTEll:
    def test_kills_delta_mod3(self):
        f = GradedForm(delta_power(3, 1, 40), 12)
        assert apply_T_ell(f, 2).series.is_zero()

    def test_lowers_delta_square_mod3(self):
        f = GradedForm(delta_power(3, 2, 60), 24)
        out = apply_T_ell(f, 2)
        assert out.series == delta_power(3, 1, 30)

    def test_constant_series_direct_formula(self):
        # direct evaluation of a_n -> a_{2n} + 2^{k-1} a_{n/2} on the constant 1
        f = GradedForm(one(3, 8), 2)
        out = apply_T_ell(f, 2)
        s = ell_s_ell(2, 2, 3)
        expect = [(1 + s) % 3] + [0] * 3
        assert list(out.series.coeffs) == expect

    def test_output_precision(self):
        f = GradedForm(delta_power(3, 1, 100), 12)
        assert apply_T_ell(f, 7).prec == 100 // 7

    def test_rejects_p_and_composites(self):
        f = GradedForm(delta_power(3, 1, 40), 12)
        with pytest.raises(ValueError):
            apply_T_ell(f, 3)
        with pytest.raises(ValueError):
            apply_T_ell(f, 6)


class TestTComposite:
    def test_identity(self):
        f = GradedForm(delta_power(5, 1, 30), 12)
        assert apply_T_m(f, 1) is f

    def test_first_coefficient_functional(self):
        # a_1(T_m f) = a_m(f) on 100 random (form, index) pairs
        rng = np.random.default_rng(11)
        checks = 0
        while checks < 100:
            p = int(rng.choice([3, 5, 7]))
            k = int(rng.choice([12, 24, 36]))
            m = int(rng.integers(2, 40))
            if m % p == 0:
                continue
            f = _random_form(rng, p, k, m * 2 + 8)
            out = apply_T_m(f, m)
            assert out.series[1] == f.series[m]
            checks += 1

    def test_t4_is_identity_on_delta_square_mod3(self):
        f = GradedForm(delta_power(3, 2, 500), 24)
        out = apply_T_m(f, 4)
        assert out.series == f.series.truncate(out.prec)

    def test_multiplicative(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = _random_form(rng, 5, 24, 700)
            a = apply_T_m(f, 6)
            b = apply_T_m(apply_T_m(f, 2), 3)
            assert a.series == b.series.truncate(a.prec)

    def test_prime_power_recurrence(self):
        # T_{l^3} = T_{l^2} T_l - l S_l T_{l^1} applied coefficientwise
        rng = np.random.default_rng(13)
        f = _random_form(rng, 7, 24, 9 * 30)
        ell = 3
        s = ell_s_ell(ell, 24, 7)
        lhs = apply_T_m(f, ell**3)
        t2 = apply_T_m(f, ell**2)
        rhs_series = (
            apply_T_ell(t2, ell).series.coeffs.astype(np.int64)
            - s * apply_T_ell(f, ell).series.coeffs[: lhs.prec].astype(np.int64)
        ) % 7
        assert list(lhs.series.coeffs) == list(rhs_series[: lhs.prec])

    def test_commutativity(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            f = _random_form(rng, 3, 36, 600)
            ab = apply_T_ell(apply_T_ell(f, 2), 5)
            ba = apply_T_ell(apply_T_ell(f, 5), 2)
            assert ab.series == ba.series

    def test_insufficient_precision(self):
        f = GradedForm(delta_power(3, 1, 10), 12)
        with pytest.raises(ValueError):
            apply_T_m(f, 11)

    def test_rejects_index_sharing_p(self):
        f = GradedForm(delta_power(3, 1, 40), 12)
        with pytest.raises(ValueError):
            apply_T_m(f, 6)


class TestWeightLiftIndependence:
    def test_mod3_lifts(self):
        for k, bump in [(12, 4), (24, 4)]:
            f1 = GradedForm(delta_power(3, k // 12, 60), k)
            f2 = GradedForm(delta_power(3, k // 12, 60), k + bump)
            assert apply_T_ell(f1, 2).series == apply_T_ell(f2, 2).series

    def test_mod7_lifts(self):
        f1 = GradedForm(delta_power(7, 1, 60), 12)
        f2 = GradedForm(delta_power(7, 1, 60), 18)
        assert apply_T_ell(f1, 2).series == apply_T_ell(f2, 2).series


class TestUVW:
    def test_u_identity(self):
        f = delta_power(3, 1, 30)
        assert apply_U_m(f, 1) is f

    def test_u3_slices(self):
        f = delta_power(3, 1, 90)
        out = apply_U_m(f, 3)
        assert list(out.coeffs) == [int(f.coeffs[3 * n]) for n in range(30)]

    def test_u_after_v_roundtrip(self):
        f = delta_power(5, 1, 40)
        assert apply_U_m(apply_V_m(f, 5), 5) == f

    def test_u_rejects_wrong_factor(self):
        with pytest.raises(ValueError):
            apply_U_m(delta_power(3, 1, 30), 2)

    def test_v_identity_and_shift(self):
        q = QSeries(3, [0, 1])
        out = apply_V_m(q, 3)
        assert list(out.coeffs) == [0, 0, 0, 1, 0, 0]
        assert apply_V_m(q, 1) is q

    def test_v_respects_cap(self, monkeypatch):
        f = delta_power(3, 1, 100)
        monkeypatch.setattr(series, "MAX_PREC", 120)
        assert apply_V_m(f, 3).prec == 120

    def test_w_definition(self):
        s = QSeries(3, [0, 1, 0, 1, 0, 1])
        out = apply_W(s)
        assert list(out.coeffs) == [0, 1, 0, 0, 0, 1]

    def test_w_kills_v_image(self):
        f = delta_power(3, 2, 50)
        assert apply_W(apply_V_m(f, 3)).is_zero()

    def test_w_on_delta_mod3(self):
        f = delta_power(3, 1, 30)
        out = apply_W(f)
        assert out[9] == 0
        # the cusp form is already supported away from multiples of 3
        assert out == f

    def test_w_idempotent_random(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            s = QSeries(7, rng.integers(0, 7, size=40))
            w = apply_W(s)
            assert apply_W(w) == w


class TestSAndSpec:
    def test_scalar_operator(self):
        f = GradedForm(delta_power(3, 1, 20), 12)
        out = apply_S_m(f, 2)
        expect = (pow(2, 10, 3) * f.series.coeffs.astype(np.int64)) % 3
        assert list(out.series.coeffs) == list(expect)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HeckeOpSpec("X", 2)
        with pytest.raises(ValueError):
            HeckeOpSpec("T", 0)

    @pytest.mark.parametrize("kind, index", [("T", 2), ("S", 2), ("U", 3), ("V", 3), ("W", 1)])
    def test_apply_operator_returns_a_series(self, kind, index):
        f = GradedForm(delta_power(3, 2, 60), 24)
        out = apply_operator(HeckeOpSpec(kind, index), f)
        assert isinstance(out, QSeries)
        direct = {
            "T": lambda: apply_T_m(f, index).series,
            "S": lambda: apply_S_m(f, index).series,
            "U": lambda: apply_U_m(f.series, index),
            "V": lambda: apply_V_m(f.series, index),
            "W": lambda: apply_W(f.series),
        }[kind]()
        assert out == direct
