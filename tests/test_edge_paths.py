"""Error paths and non-equidistributed constants that the main suites skim."""

from fractions import Fraction

import numpy as np
import pytest

from modpforms.densities import (
    class_density,
    euler_constant_C,
    multi_frobenian_density,
    profile,
    squarefull_buckets,
)
from modpforms.errors import ConductorNotFoundError, SplittingFieldNeededError
from modpforms.module import (
    HeckeModule,
    build_module,
    decompose,
    gamma_group,
    strict_nilpotence_order,
)
from oracles import delta_form


@pytest.fixture(scope="module")
def classless_module():
    # the weight-84 module's sampled action is not class-determined
    return build_module(delta_form(3, 7))


class TestClasslessModule:
    def test_alpha_and_h_still_work(self, classless_module):
        m = classless_module
        assert m.conductor is None
        assert m.status_modulus == 3
        assert strict_nilpotence_order(m) == 4

    def test_class_based_data_raises(self, classless_module):
        m = classless_module
        with pytest.raises(ConductorNotFoundError):
            gamma_group(m)
        with pytest.raises(ConductorNotFoundError):
            m.class_of(2)
        with pytest.raises(ConductorNotFoundError):
            m.class_of(np.array([2, 5], dtype=np.int64))
        with pytest.raises(ConductorNotFoundError):
            m.prime_power_matrix(2, 2)
        with pytest.raises(ConductorNotFoundError):
            multi_frobenian_density(m, m.f_coords, m.f_coords, 1)
        alpha = class_density(m.report.nilpotent_classes, m.report.modulus)
        cu = euler_constant_C(m.report.invertible_classes, m.report.modulus, 1 - alpha, 10**4)
        with pytest.raises(ConductorNotFoundError):
            squarefull_buckets(m, m.f_coords, cu, 10**4)

    def test_constants_raise_but_pure_decomposition_succeeds(self, classless_module):
        f = delta_form(3, 7)
        with pytest.raises(ConductorNotFoundError):
            profile(f, prime_bound=10**4, sfull_bound=10**4)
        parts = decompose(classless_module)
        assert len(parts) == 1
        assert classless_module.vector_to_series(parts[0].coords_in_parent) == f.series


def _synthetic_module(action, p, dim, f_coords=None):
    # enough structure for decompose/classify on handcrafted matrices;
    # action maps a prime's class mod p to its matrix
    primes = [2, 5, 7, 11, 13, 17, 19, 23]
    per_prime = {ell: action(ell % p) % p for ell in primes}
    if f_coords is None:
        f_coords = np.zeros(dim, dtype=np.int64)
        f_coords[0] = 1
        f_coords[-1] = 1
    return HeckeModule(
        p=p,
        weight=12,
        vector_series=np.eye(dim, dtype=np.uint8),
        per_prime=per_prime,
        conductor=None,
        class_matrix=None,
        conductor_failure="a synthetic module has no class table",
        status_modulus=p,
        status_by_class={u: "mixed" for u in range(1, p)},
        f_coords=f_coords,
    )


class TestSplittingField:
    def test_irrational_eigensystem_reported(self):
        # block of the companion matrix of x^2 + x + 1 (irreducible mod 5)
        # next to a nilpotent block: mixed status, so decompose must split,
        # and the eigenvalues live in F_25
        p = 5
        mat = np.zeros((3, 3), dtype=np.int64)
        mat[0, 1] = 1
        mat[1, 0] = -1 % p
        mat[1, 1] = -1 % p
        module = _synthetic_module(lambda u: mat, p, 3)
        with pytest.raises(
            SplittingFieldNeededError,
            match="irreducible factors of total degree 2 in its characteristic polynomial over F_5",
        ):
            decompose(module)


class TestDeterministicDecompose:
    def test_more_eigen_systems_than_field_elements(self):
        # four rational joint eigen-systems mod 3: any one algebra element
        # has at most three eigenvalues, so only a matrix-by-matrix
        # refinement separates them
        p = 3
        by_class = {
            1: np.diag([0, 0, 1, 1]),
            2: np.diag([0, 1, 0, 1]),
        }
        module = _synthetic_module(by_class.get, p, 4, np.ones(4, dtype=np.int64))
        parts = decompose(module)
        assert [sorted(part.nil_classes) for part in parts] == [[], [1], [1, 2], [2]]
        assert all(part.module.dim == 1 for part in parts)
        assert np.array_equal(sum(part.coords_in_parent for part in parts) % p, np.ones(4))


class TestNonEquidistributedConstants:
    def test_mod7_eigenform_per_value(self):
        # values of the mod-7 cusp form: the group generated by the invertible
        # classes is {1,2,4}, but square-full twists (e.g. T_4 = 5) reach the
        # other coset, so every value has a positive constant, with the
        # {1,2,4} side strictly dominating
        prof = profile(delta_form(7, 1), prime_bound=10**5, sfull_bound=10**7)
        assert prof.alpha == Fraction(1, 2) and prof.h == 0
        for a in range(1, 7):
            assert prof.per_value[a] is not None and prof.per_value[a].c > 0
        heavy = sum(prof.per_value[a].c for a in (1, 2, 4))
        light = sum(prof.per_value[a].c for a in (3, 5, 6))
        assert heavy > 2 * light
        # within each coset the group action equalizes the constants
        assert prof.per_value[1].c == pytest.approx(prof.per_value[2].c)
        assert prof.per_value[1].c == pytest.approx(prof.per_value[4].c)
        assert prof.per_value[3].c == pytest.approx(prof.per_value[5].c)
        assert prof.per_value[3].c == pytest.approx(prof.per_value[6].c)

    def test_t4_scalar_escapes_gamma(self):
        m = build_module(delta_form(7, 1))
        t4 = m.prime_power_matrix(2, 2)
        assert int(t4[0, 0]) == 5  # 4^2 - 2^11 = 16 - 4 = 12 = 5 mod 7
