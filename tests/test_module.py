import math

import numpy as np
import pytest

from modpforms import linalg, module
from modpforms.arith import primes_upto
from modpforms.basis import GradedForm, dim_level_one, miller_basis
from modpforms.densities import _lift_weight
from modpforms.errors import ConductorNotFoundError, SpanNotClosedError
from modpforms.expr import evaluate, parse_form_expression
from modpforms.hecke import apply_T_ell, apply_W, ell_s_ell
from modpforms.module import (
    HeckeModule,
    _tl_coords,
    build_module,
    classify_classes,
    decompose,
    equidistribution_report,
    gamma_group,
    pure_decomposition,
    strict_nilpotence_order,
    submodule,
    work_precision,
)
from modpforms.series import delta_power, linear_combine

from oracles import restrict_per_row, tau


def _delta_form(p, k, sample_bound=2000):
    prec = sample_bound * max(dim_level_one(12 * k) - 1, 1) + 9
    return GradedForm(delta_power(p, k, prec), 12 * k)


class TestBuildModule:
    def test_delta_mod3(self, delta_mod3_module):
        m = delta_mod3_module
        assert m.dim == 1
        assert m.conductor == 3
        # the action scalar in class u is 1 + u, the trace of 1 + cyclotomic
        assert int(m.class_matrices[1][0, 0]) == 2
        assert int(m.class_matrices[2][0, 0]) == 0
        # cross-check against sampled cusp form coefficients
        for ell in primes_upto(200).tolist():
            if ell == 3:
                continue
            assert tau(ell) % 3 == (1 + ell) % 3

    def test_delta_square_mod3_table(self, delta2_mod3_module):
        m = delta2_mod3_module
        assert m.dim == 2
        assert m.conductor == 9
        eps = np.array([[0, 1], [0, 0]])
        table = {1: 2 * np.eye(2), 4: 2 * np.eye(2), 7: 2 * np.eye(2),
                 2: eps, 5: 2 * eps, 8: 0 * eps}
        for u, expect in table.items():
            assert np.array_equal(m.class_matrices[u] % 3, expect.astype(np.int64) % 3)
        assert m.scalar_map == {1: 1, 4: 1, 7: 1, 2: 2, 5: 2, 8: 2}

    def test_delta_square_mod7(self, delta2_mod7_module):
        m = delta2_mod7_module
        assert m.dim == 2
        assert m.conductor == 7

    def test_zero_form_rejected(self):
        f = GradedForm(linear_combine([(0, delta_power(3, 1, 3000))]), 12)
        with pytest.raises(ValueError):
            build_module(f)

    def test_p_support_rejected(self):
        f = GradedForm(delta_power(3, 3, 9000), 36)
        with pytest.raises(ValueError, match="W projector"):
            build_module(f)

    def test_span_cap(self, monkeypatch):
        f = _delta_form(3, 2)
        monkeypatch.setattr(module, "DIMENSION_CAP", 1)
        with pytest.raises(SpanNotClosedError):
            build_module(f)

    def test_conductor_failure_reported(self):
        # the weight-84 module's action is not class-determined
        f = _delta_form(3, 7)
        with pytest.raises(ConductorNotFoundError):
            build_module(f)
        m = build_module(f, require_conductor=False)
        assert m.conductor is None
        assert m.status_modulus == 3

    def test_class_matrix_consistency_random_primes(self, delta2_mod3_module):
        # stored class matrices must reproduce directly computed operators
        # for primes beyond the sample bound
        m = delta2_mod3_module
        rng = np.random.default_rng(0)
        pool = [q for q in primes_upto(10**4).tolist() if q > 2000]
        picks = rng.choice(len(pool), size=100, replace=False)
        prec = 10**4 * 2 + 9
        basis = miller_basis(3, 24, prec)
        B = basis.matrix()
        S = (m.ambient_coords @ B.astype(np.int64)) % 3
        _, pivots = linalg.rref(m.ambient_coords, 3)
        J = np.array(pivots)
        for i in picks:
            ell = int(pool[i])
            amb = _tl_coords(S.astype(np.uint8), ell, ell_s_ell(ell, 24, 3), 3, 3)
            direct = np.stack(
                [linalg.solve_in_rowspan(m.ambient_coords, row, 3) for row in amb]
            )
            assert np.array_equal(direct % 3, m.class_matrices[ell % 9] % 3)

    def test_class_matrices_commute(self, delta2_mod3_module):
        m = delta2_mod3_module
        mats = list(m.class_matrices.values())
        for a in mats:
            for b in mats:
                assert np.array_equal((a @ b) % 3, (b @ a) % 3)

    def test_recurrence_square_consistency(self, delta2_mod3_module):
        # T_{l^2} built from class data is itself constant on classes mod c
        m = delta2_mod3_module
        for u in m.classes:
            sq = m.prime_power_matrix(u, 2)
            direct = (m.class_matrices[u] @ m.class_matrices[u] - m.scalar_map[u] *
                      linalg.identity(2, 3)) % 3
            assert np.array_equal(sq, direct)


class TestHeckeAction:
    @pytest.mark.parametrize("p, k", [(3, 2), (7, 1)])
    def test_prime_power_matrices_follow_the_recurrence(self, p, k):
        m = build_module(_delta_form(p, k))
        for u in m.classes:
            a = m.class_matrices[u]
            prev, cur = np.eye(m.dim, dtype=np.int64), a % p
            for e in range(7):
                assert np.array_equal(m.prime_power_matrix(u, e), prev)
                prev, cur = cur, (cur @ a - m.scalar_map[u] * prev) % p
        # memoized: the same object on every call
        assert m.prime_power_matrix(m.classes[0], 6) is m.prime_power_matrix(m.classes[0], 6)

    def test_prime_power_matrices_are_read_only(self, delta2_mod3_module):
        for e in (0, 1, 2):
            mat = delta2_mod3_module.prime_power_matrix(1, e)
            with pytest.raises(ValueError):
                mat[0, 0] = 1

    def test_class_report_is_memoized(self, delta2_mod3_module):
        assert classify_classes(delta2_mod3_module) is classify_classes(delta2_mod3_module)

    def test_class_of_array_matches_scalars(self, delta2_mod3_module):
        m = delta2_mod3_module
        primes = primes_upto(2000)
        primes = primes[primes != 3]
        got = m.class_of(primes)
        assert got.dtype == np.int64
        assert got.tolist() == [m.class_of(q) for q in primes.tolist()]
        with pytest.raises(ConductorNotFoundError):
            m.class_of(np.array([2, 3], dtype=np.int64))


class TestClassify:
    def test_delta_square_mod3(self, delta2_mod3_module):
        rep = classify_classes(delta2_mod3_module)
        assert rep.pure
        assert rep.nilpotent_classes == (2, 5, 8)
        assert rep.invertible_classes == (1, 4, 7)

    def test_delta_square_mod7_mixed(self, delta2_mod7_module):
        rep = classify_classes(delta2_mod7_module)
        assert not rep.pure
        assert 3 in rep.mixed_classes and 5 in rep.mixed_classes
        assert rep.nilpotent_classes == (6,)
        # eigenvalues at class 3 are (3^2+3^3, 3+3^4) = (1, 0) mod 7
        mat = delta2_mod7_module.class_matrices[3]
        mp = linalg.min_poly(mat, 7)
        roots, left = linalg.strip_linear_factors(mp, 7)
        assert left == [1] and sorted(set(roots)) == [0, 1]

    def test_one_dim_zero_scalar_nilpotent(self, delta_mod3_module):
        rep = classify_classes(delta_mod3_module)
        assert rep.statuses[2] == "nilpotent"
        assert rep.statuses[1] == "invertible"


class TestNilpotenceOrder:
    @pytest.mark.parametrize("k,h", [(1, 0), (2, 1), (5, 3)])
    def test_small_table(self, k, h):
        m = build_module(_delta_form(3, k), require_conductor=False)
        assert strict_nilpotence_order(m) == h

    def test_eigenform_is_zero(self, delta_mod3_module):
        assert strict_nilpotence_order(delta_mod3_module) == 0

    def test_non_pure_rejected(self, delta2_mod7_module):
        with pytest.raises(ValueError, match="not pure"):
            strict_nilpotence_order(delta2_mod7_module)

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 7, 8, 10, 20])
    def test_matches_t2_chain(self, k):
        # for p=3 and level one, h(f) equals the largest h with T_2^h f nonzero
        m = build_module(_delta_form(3, k), require_conductor=False)
        h = strict_nilpotence_order(m)
        f = GradedForm(delta_power(3, k, 2 ** (h + 2) * (k + 2) * 4), 12 * k)
        chain = 0
        g = f
        while True:
            g = apply_T_ell(g, 2)
            if g.series.is_zero():
                break
            chain += 1
        assert chain == h

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 7, 8, 10, 11, 13])
    def test_growth_bound(self, k):
        m = build_module(_delta_form(3, k), require_conductor=False)
        assert strict_nilpotence_order(m) < 4 * k ** (math.log(2) / math.log(3))

    @pytest.mark.parametrize("k", [2, 4, 5])
    def test_distinct_primes_realize_h(self, k):
        # constructive version: h distinct primes with nonzero product action
        m = build_module(_delta_form(3, k))
        rep = classify_classes(m)
        h = strict_nilpotence_order(m)
        if h == 0:
            return
        from itertools import combinations_with_replacement

        found = None
        for classes in combinations_with_replacement(rep.nilpotent_classes, h):
            v = m.f_coords
            for u in classes:
                v = m.apply_class(v, u)
            if v.any():
                found = classes
                break
        assert found is not None
        # assign distinct primes within the chosen classes
        primes = []
        for u in found:
            ell = next(
                q for q in primes_upto(10**4).tolist() if q % m.conductor == u and q not in primes
            )
            primes.append(ell)
        assert len(set(primes)) == h
        if h <= 2:
            prec = math.prod(primes) * (m.ambient.dim + 2)
            f = GradedForm(delta_power(3, k, prec), 12 * k)
            g = f
            for ell in primes:
                g = apply_T_ell(g, ell)
            assert not g.series.is_zero()


class TestGammaGroup:
    def test_delta_square_mod3(self, delta2_mod3_module):
        g = gamma_group(delta2_mod3_module)
        assert g.order == 2
        assert g.contains_scalars

    def test_delta_mod7_proper_subgroup(self):
        m = build_module(_delta_form(7, 1))
        g = gamma_group(m)
        assert g.order == 3
        assert not g.contains_scalars
        values = sorted(int(x[0, 0]) for x in g.elements)
        assert values == [1, 2, 4]

    def test_identity_only_module(self, delta_mod3_module):
        # synthetic: keep only the invertible class but replace it by the identity
        m = delta_mod3_module
        synthetic = HeckeModule(
            m.p,
            m.weight,
            m.ambient,
            m.ambient_coords,
            m.vector_series,
            m.per_prime,
            m.conductor,
            {1: linalg.identity(1, 3), 2: 0 * linalg.identity(1, 3)},
            m.status_modulus,
            m.status_by_class,
            m.f_coords,
        )
        g = gamma_group(synthetic)
        assert g.order == 1
        assert not g.contains_scalars


class TestDecompose:
    def test_pure_module_single_component(self, delta2_mod3_module):
        parts = decompose(delta2_mod3_module)
        assert len(parts) == 1
        assert parts[0].nil_classes == frozenset({2})  # status classes mod 3

    def test_delta_square_mod7_components(self, delta2_mod7_module):
        parts = decompose(delta2_mod7_module)
        assert len(parts) == 2
        by_nil = {part.nil_classes: part for part in parts}
        assert set(by_nil) == {frozenset({6}), frozenset({3, 5, 6})}
        # components sum back to the seed
        total = sum(p.coords_in_parent for p in parts) % 7
        assert np.array_equal(total, delta2_mod7_module.f_coords % 7)
        # the {6}-component is the eigenform with system l^2 + l^3
        comp = by_nil[frozenset({6})].module
        series = comp.vector_to_series(comp.f_coords, 60)
        a1 = series[1]
        for ell in (2, 3, 5, 11, 13):
            expect = (ell**2 + ell**3) % 7 * a1 % 7
            assert series[ell] == expect
        # the other component is a multiple of the cusp form
        other = by_nil[frozenset({3, 5, 6})].module
        oseries = other.vector_to_series(other.f_coords, 60)
        scale = oseries[1]
        ref = delta_power(7, 1, 60)
        assert list(oseries.coeffs) == [scale * int(c) % 7 for c in ref.coeffs]

    def test_pure_decomposition_forms(self):
        f = GradedForm(delta_power(7, 2, 4009), 24)
        parts = pure_decomposition(f)
        assert len(parts) == 2
        total = linear_combine([(1, parts[0].series), (1, parts[1].series)])
        assert total == f.series

    def test_eigenform_decomposes_to_itself(self):
        f = _delta_form(7, 1)
        parts = pure_decomposition(f)
        assert len(parts) == 1
        assert parts[0].series == f.series


class TestSubmodule:
    def test_conductor_shrinks_for_embedded_eigenline(self, delta2_mod3_module):
        # the line spanned by the weight-12 cusp form inside the square's module
        m = delta2_mod3_module
        eps = m.class_matrices[2]
        line = linalg.matvec(m.f_coords, eps, 3)  # image = the cusp form
        sub = submodule(m, line)
        assert sub.dim == 1
        assert sub.conductor == 3
        rep = classify_classes(sub)
        assert rep.nilpotent_classes == (2,)


class TestRestrictAgainstPerRow:
    """Every matrix decompose restricts equals the per-row solve of the reference."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        batched = module._restrict

        def spy(rows, mats, p):
            mats = list(mats)
            out = batched(rows, mats, p)
            calls.append((rows, mats, p, out))
            return out

        monkeypatch.setattr(module, "_restrict", spy)
        return calls

    @staticmethod
    def _check(calls):
        assert calls
        for rows, mats, p, out in calls:
            assert len(out) == len(mats)
            for mat, restricted in zip(mats, out):
                assert np.array_equal(restricted, restrict_per_row(rows, mat, p))

    def test_delta_square_minus_delta_mod7(self, calls):
        f = evaluate(parse_form_expression("delta^2-delta"), 7, work_precision(24, 600))
        parent = build_module(f, sample_bound=600)
        assert parent.conductor == 7
        assert len(decompose(parent)) == 2
        self._check(calls)

    def test_w_delta_cubed_mod7_has_no_conductor(self, calls):
        # lifted as densities.profile lifts it; submodule closes under per_prime
        series = apply_W(delta_power(7, 3, work_precision(36, 600)))
        lifted = _lift_weight(series, 7, 36)
        parent = build_module(lifted, sample_bound=600, require_conductor=False)
        assert parent.conductor is None
        parts = decompose(parent)
        assert sorted(part.module.dim for part in parts) == [1, 2]
        assert [part.module.conductor for part in parts if part.module.dim == 2] == [None]
        self._check(calls)


class TestEquidistribution:
    def test_delta_square_mod3_holds(self):
        rep = equidistribution_report(build_module(_delta_form(3, 2)))
        assert rep.criterion_holds
        assert rep.primitive_root_shortcut  # 2 generates F_3*

    def test_delta_mod7_not_equidistributed(self):
        rep = equidistribution_report(build_module(_delta_form(7, 1)))
        assert rep.eigenform_converse_applies
        assert not rep.criterion_holds
        assert rep.scalar_values == (1, 2, 4)

    def test_mod5_shortcut(self):
        rep = equidistribution_report(build_module(_delta_form(5, 1)))
        assert rep.primitive_root_shortcut  # 2 is a primitive root mod 5
        assert rep.criterion_holds


class TestSquarefreeSupport:
    @pytest.mark.parametrize("p", [3, 7])
    def test_random_kernel_forms_have_squarefree_support(self, p):
        # nonzero projected forms have a nonzero coefficient at a
        # square-free index below 10^4
        rng = np.random.default_rng(p)
        count = 0
        while count < 20:
            ks = rng.choice(range(1, 7), size=3, replace=False)
            coeffs = rng.integers(0, p, size=3)
            prec = 10**4
            series = linear_combine(
                [(int(c), delta_power(p, int(k), prec)) for c, k in zip(coeffs, ks)]
            )
            g = apply_W(series)
            if g.is_zero():
                continue
            idx = np.flatnonzero(g.coeffs)
            squarefree = [
                int(n) for n in idx if all(n % (q * q) for q in range(2, int(n**0.5) + 1))
            ]
            assert squarefree, f"no square-free support for combination {coeffs} {ks}"
            count += 1
