import math
import tracemalloc

import numpy as np
import pytest

from modpforms import arith, basis, kernels, linalg, module
from modpforms.arith import primes_upto
from modpforms.basis import GradedForm, dim_level_one, miller_basis
from modpforms.densities import _lift_weight
from modpforms.errors import (
    BudgetExceededError,
    ConductorNotFoundError,
    SpanNotClosedError,
    SplittingFieldNeededError,
)
from modpforms.expr import evaluate, parse_form_expression
from modpforms.hecke import apply_T_ell, apply_W, ell_s_ell
from modpforms.module import (
    NILPOTENT,
    HeckeModule,
    _detect_status,
    _distinct,
    _eigenspaces,
    _group_blocks,
    build_module,
    decompose,
    equidistribution_report,
    gamma_group,
    strict_nilpotence_order,
    submodule,
    work_precision,
)
from modpforms.series import delta_power, linear_combine

from oracles import (
    delta_form,
    eigenspaces_by_min_poly,
    min_poly,
    restrict_per_row,
    solve_in_rowspan,
    strip_linear_factors,
    t_ell_coefficients,
    tau,
)


class TestBuildModule:
    def test_delta_mod3(self, delta_mod3_module):
        m = delta_mod3_module
        assert m.dim == 1
        assert m.conductor == 3
        # the action scalar in class u is 1 + u, the trace of 1 + cyclotomic
        assert int(m.prime_power_matrix(1, 1)[0, 0]) == 2
        assert int(m.prime_power_matrix(2, 1)[0, 0]) == 0
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
            assert np.array_equal(m.prime_power_matrix(u, 1) % 3, expect.astype(np.int64) % 3)
        scalars = {u: ell_s_ell(u, m.weight, m.p) for u in m.report.statuses}
        assert scalars == {1: 1, 4: 1, 7: 1, 2: 2, 5: 2, 8: 2}

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
        f = delta_form(3, 2)
        monkeypatch.setattr(module, "DIMENSION_CAP", 1)
        with pytest.raises(SpanNotClosedError):
            build_module(f)

    def test_ambient_cap_checked_before_the_basis(self, monkeypatch):
        # Delta^2 mod 3 at the default sample bound expands 3 x 4009 entries
        def no_basis(*args):
            raise AssertionError("miller_basis ran past the ambient cap")

        monkeypatch.setattr(module, "miller_basis", no_basis)
        monkeypatch.setattr(module, "AMBIENT_CAP", 3 * 4009 - 1)
        with pytest.raises(BudgetExceededError, match="has 12027 entries, above the cap 12026"):
            build_module(delta_form(3, 2))

    def test_ambient_cap_admits_its_bound(self, monkeypatch):
        monkeypatch.setattr(module, "AMBIENT_CAP", 3 * 4009)
        assert build_module(delta_form(3, 2)).dim == 2

    def test_peak_memory_delta19_mod3(self, monkeypatch):
        # weight 228: 20 basis rows of 38,009 coefficients, 760 kB as uint8.
        # The basis is rebuilt inside the measurement; the rows must not be
        # widened to int64 (8 bytes an entry) on the way to the module.
        f = delta_form(3, 19)
        monkeypatch.setattr(basis, "_basis_cache", {})
        tracemalloc.start()
        try:
            build_module(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 10**6

    def test_peak_memory_miller_basis_weight228_mod3(self, monkeypatch):
        # the monomials and the echelon rows are one 760 kB matrix each; the
        # kernels' temporaries bring the peak to about 2.0 MB (NumPy 2.4).
        # Keeping the rows once more as series took it to 2.3 MB, and a list
        # of all the Delta^c beside the monomials would add 760 kB.
        monkeypatch.setattr(basis, "_basis_cache", {})
        miller_basis(3, 12, 100)  # residue tables and other one-time allocations
        tracemalloc.start()
        try:
            miller_basis(3, 228, work_precision(228))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * 10**6

    def test_conductor_failure_reported(self):
        # the weight-84 module's action is not class-determined: the build
        # succeeds and keeps the detection's reason for require_conductor
        m = build_module(delta_form(3, 7))
        assert m.conductor is None
        assert m.status_modulus == 3
        assert m.conductor_failure.startswith("no conductor candidate passed (modulus 81: ")
        with pytest.raises(ConductorNotFoundError) as err:
            m.require_conductor()
        assert str(err.value) == m.conductor_failure

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
        # the Miller basis is echelon: the first dim coefficients are the ambient coordinates
        coords = m.vector_series[:, : dim_level_one(24)].astype(np.int64)
        S = (coords @ B.astype(np.int64)) % 3
        _, pivots = linalg.rref(coords, 3)
        J = np.array(pivots)
        for i in picks:
            ell = int(pool[i])
            amb = t_ell_coefficients(S.astype(np.uint8), ell, 24, 3, 3)
            direct = np.stack(
                [solve_in_rowspan(coords, row, 3) for row in amb]
            )
            assert np.array_equal(direct % 3, m.prime_power_matrix(ell % 9, 1) % 3)

    def test_class_matrices_commute(self, delta2_mod3_module):
        m = delta2_mod3_module
        mats = [m.prime_power_matrix(u, 1) for u in m.report.statuses]
        for a in mats:
            for b in mats:
                assert np.array_equal((a @ b) % 3, (b @ a) % 3)

    def test_recurrence_square_consistency(self, delta2_mod3_module):
        # T_{l^2} built from class data is itself constant on classes mod c
        m = delta2_mod3_module
        for u in m.report.statuses:
            sq = m.prime_power_matrix(u, 2)
            a = m.prime_power_matrix(u, 1)
            direct = (a @ a - ell_s_ell(u, m.weight, m.p) * linalg.identity(2, 3)) % 3
            assert np.array_equal(sq, direct)


class TestStatusModulus:
    def test_missing_classes_take_no_list_of_units(self):
        # the status changes inside classes mod 29, so the search runs on to
        # 29^4, where 302 sampled primes leave most of the 682,892 unit
        # classes empty; a list of the unit classes would take 33 MB
        p = 29
        per_prime = {
            ell: np.array([[0 if ell < 1000 else 1]], dtype=np.int64)
            for ell in primes_upto(2000).tolist()
            if ell != p
        }
        tracemalloc.start()
        try:
            with pytest.raises(ConductorNotFoundError) as err:
                _detect_status(per_prime, p, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            "no modulus explains the nilpotent/invertible pattern "
            "(modulus 707281: classes [1, 4, 6, 8] have no sampled prime)"
        )
        assert peak < 10**6


class TestConductorDetection:
    def test_p251_reaches_the_fourth_power_in_log_phi_products(self, monkeypatch):
        # T_l = l^3 + l^8 depends on l mod 251 only, so every candidate passes
        # its closure check and is refused at the one perturbed prime, 1999;
        # a walk through the classes would take 251^3 * 250 steps at 251^4
        p = 251
        per_prime = {
            ell: np.array([[(ell**3 + ell**8 + (ell == 1999)) % p]], dtype=np.int64)
            for ell in primes_upto(2000).tolist()
            if ell != p
        }
        # every product: those inside matpow, and one more per power applied
        products = []
        matmul, matpow = linalg.matmul, linalg.matpow
        monkeypatch.setattr(linalg, "matmul", lambda *a: products.append(1) or matmul(*a))
        monkeypatch.setattr(linalg, "matpow", lambda *a: products.append(1) or matpow(*a))
        # the order of each generator is factored once, not once per log
        factorizations = []
        factorize = arith.factorize
        monkeypatch.setattr(arith, "factorize", lambda n: factorizations.append(n) or factorize(n))
        tracemalloc.start()
        try:
            conductor, lookup, failure = module._detect_conductor(per_prime, p, 12, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (conductor, lookup) == (None, None)
        assert failure == (
            "no conductor candidate passed "
            "(modulus 3969126001: primes 11 and 1999 give inconsistent class actions)"
        )
        phi = p**4 - p**3
        assert len(products) <= 8 * len(per_prime) * math.log2(phi)
        assert len(factorizations) <= 16 * module.MAX_CONDUCTOR_EXPONENT
        assert peak < 10**6

    def test_report_looks_up_only_sampled_classes(self, monkeypatch):
        # Delta^5 mod 3 at sample bound 50: conductor 27, status modulus 3,
        # and 5 of the 18 classes mod 27 have no sampled prime below 50
        logs, powers = [], []
        discrete_log, matpow = module.discrete_log, linalg.matpow
        monkeypatch.setattr(
            module, "discrete_log", lambda u, g, m: logs.append((u, m)) or discrete_log(u, g, m)
        )
        monkeypatch.setattr(linalg, "matpow", lambda *a: powers.append(1) or matpow(*a))
        m = build_module(delta_form(3, 5, 50), sample_bound=50)
        report = m.report
        assert (m.conductor, m.status_modulus, len(report.statuses)) == (27, 3, 18)
        sampled = {q % 27 for q in m.per_prime}
        assert len(sampled) == 13
        assert {u for u, mod in logs if mod == 27} == sampled
        # one power per class looked up, and one closing check per candidate 3, 9, 27
        assert len(powers) == len(set(logs)) + 3
        assert report.statuses == {u: m.status_by_class[u % 3] for u in range(1, 27) if u % 3}


class TestHeckeAction:
    @pytest.mark.parametrize("p, k", [(3, 2), (7, 1)])
    def test_prime_power_matrices_follow_the_recurrence(self, p, k):
        m = build_module(delta_form(p, k))
        for u in m.report.statuses:
            a = m.prime_power_matrix(u, 1)
            prev, cur = np.eye(m.dim, dtype=np.int64), a % p
            for e in range(7):
                assert np.array_equal(m.prime_power_matrix(u, e), prev)
                prev, cur = cur, (cur @ a - ell_s_ell(u, m.weight, p) * prev) % p
        # memoized: the same object on every call
        u = next(iter(m.report.statuses))
        assert m.prime_power_matrix(u, 6) is m.prime_power_matrix(u, 6)

    def test_prime_power_matrices_are_read_only(self, delta2_mod3_module):
        for e in (0, 1, 2):
            mat = delta2_mod3_module.prime_power_matrix(1, e)
            with pytest.raises(ValueError):
                mat[0, 0] = 1

    def test_class_report_is_memoized(self, monkeypatch):
        # exactly one ClassReport per module: built with it, and none on a read
        reports, modules = [], []
        report_cls, assemble = module.ClassReport, module._assemble
        monkeypatch.setattr(
            module, "ClassReport", lambda *a, **kw: reports.append(1) or report_cls(*a, **kw)
        )
        monkeypatch.setattr(module, "_assemble", lambda *a: modules.append(1) or assemble(*a))
        m = build_module(delta_form(7, 2))
        assert (len(modules), len(reports)) == (1, 1)
        report = m.report
        parts = decompose(m)
        assert len(parts) == 2
        for part in parts:
            assert part.module.report is part.module.report
            strict_nilpotence_order(part.module)
        assert m.report is report
        assert len(modules) > 1 and len(reports) == len(modules)

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
        rep = delta2_mod3_module.report
        assert rep.pure
        assert rep.nilpotent_classes == (2, 5, 8)
        assert rep.invertible_classes == (1, 4, 7)

    def test_delta_square_mod7_mixed(self, delta2_mod7_module):
        rep = delta2_mod7_module.report
        assert not rep.pure
        assert 3 in rep.mixed_classes and 5 in rep.mixed_classes
        assert rep.nilpotent_classes == (6,)
        # eigenvalues at class 3 are (3^2+3^3, 3+3^4) = (1, 0) mod 7
        mat = delta2_mod7_module.prime_power_matrix(3, 1)
        mp = min_poly(mat, 7)
        roots, left = strip_linear_factors(mp, 7)
        assert left == [1] and sorted(set(roots)) == [0, 1]

    def test_one_dim_zero_scalar_nilpotent(self, delta_mod3_module):
        rep = delta_mod3_module.report
        assert rep.statuses[2] == "nilpotent"
        assert rep.statuses[1] == "invertible"


class TestNilpotenceOrder:
    @pytest.mark.parametrize("k,h", [(1, 0), (2, 1), (5, 3)])
    def test_small_table(self, k, h):
        m = build_module(delta_form(3, k))
        assert strict_nilpotence_order(m) == h

    def test_eigenform_is_zero(self, delta_mod3_module):
        assert strict_nilpotence_order(delta_mod3_module) == 0

    def test_non_pure_rejected(self, delta2_mod7_module):
        with pytest.raises(ValueError, match="not pure"):
            strict_nilpotence_order(delta2_mod7_module)

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 7, 8, 10, 20])
    def test_matches_t2_chain(self, k):
        # for p=3 and level one, h(f) equals the largest h with T_2^h f nonzero
        m = build_module(delta_form(3, k))
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
        m = build_module(delta_form(3, k))
        assert strict_nilpotence_order(m) < 4 * k ** (math.log(2) / math.log(3))

    def test_chain_takes_the_unsampled_classes(self, monkeypatch):
        # Delta^5 mod 3 at sample bound 50: conductor 27, and 5 of its 18 classes
        # have no sampled prime; the sampled matrices span the same space here
        m = build_module(delta_form(3, 5, 50), sample_bound=50)
        nil = set(m.report.nilpotent_classes)
        sampled = _distinct([mat for q, mat in m.per_prime.items() if q % 27 in nil])
        by_class = m.nilpotent_matrices()
        assert (len(sampled), len(by_class)) == (7, 9)
        assert {mat.tobytes() for mat in sampled} < {mat.tobytes() for mat in by_class}
        assert strict_nilpotence_order(m) == 3
        monkeypatch.setattr(HeckeModule, "nilpotent_matrices", lambda self: sampled)
        assert strict_nilpotence_order(m) == 3

    def test_unsampled_class_lengthens_the_chain(self, monkeypatch):
        # a stub mod 9 with status modulus 3: the classes 2, 5, 8 are nilpotent; the
        # sampled primes reach 2 and 5, which act by N^2 for the shift N, and no
        # sampled prime reaches 8, which acts by N itself
        p, shift, eye = 3, np.eye(3, k=1, dtype=np.int64), np.eye(3, dtype=np.int64)
        action = {1: eye, 2: shift @ shift, 4: eye, 5: shift @ shift, 7: eye, 8: shift}
        per_prime = {ell: action[ell % 9] for ell in (2, 5, 7, 13, 19, 23)}
        m = HeckeModule(
            p,
            12,
            eye.astype(np.uint8),
            per_prime,
            9,
            action.__getitem__,
            None,
            3,
            {1: "invertible", 2: NILPOTENT},
            np.array([1, 0, 0], dtype=np.int64),
        )
        assert m.report.nilpotent_classes == (2, 5, 8)
        assert {q % 9 for q in per_prime} == {1, 2, 4, 5, 7}
        # f = e_0: N^2 alone reaches e_2 and stops; with N the chain is e_0, e_1, e_2
        assert strict_nilpotence_order(m) == 2
        sampled = _distinct([mat for q, mat in per_prime.items() if q % 9 in (2, 5)])
        monkeypatch.setattr(HeckeModule, "nilpotent_matrices", lambda self: sampled)
        assert strict_nilpotence_order(m) == 1

    @pytest.mark.parametrize("k", [2, 4, 5])
    def test_distinct_primes_realize_h(self, k):
        # constructive version: h distinct primes with nonzero product action
        m = build_module(delta_form(3, k))
        rep = m.report
        h = strict_nilpotence_order(m)
        if h == 0:
            return
        from itertools import combinations_with_replacement

        found = None
        for classes in combinations_with_replacement(rep.nilpotent_classes, h):
            v = m.f_coords
            for u in classes:
                v = linalg.matvec(v, m.prime_power_matrix(u, 1), m.p)
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
            prec = math.prod(primes) * (dim_level_one(12 * k) + 2)
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
        m = build_module(delta_form(7, 1))
        g = gamma_group(m)
        assert g.order == 3
        assert not g.contains_scalars
        values = sorted(int(x[0, 0]) for x in g.elements)
        assert values == [1, 2, 4]

    def test_each_distinct_generator_multiplies_once(self, monkeypatch):
        # Delta^5 mod 3: the 9 invertible classes mod 27 act by 2 distinct matrices
        m = build_module(delta_form(3, 5))
        p, r = m.p, m.dim
        mats = [m.prime_power_matrix(u, 1) for u in m.report.invertible_classes]
        assert (m.conductor, len(mats), len(_distinct(mats))) == (27, 9, 2)
        # the closure over every class matrix, repeats included, in class order
        elements = {linalg.identity(r, p).tobytes(): None}
        frontier = [linalg.identity(r, p)]
        while frontier:
            images = [x @ g % p for x in frontier for g in mats]
            frontier = [y for y in images if y.tobytes() not in elements]
            frontier = list({y.tobytes(): y for y in frontier}.values())
            elements.update(dict.fromkeys(y.tobytes() for y in frontier))
        products = []
        matmul = linalg.matmul
        monkeypatch.setattr(linalg, "matmul", lambda *a: products.append(1) or matmul(*a))
        g = gamma_group(m)
        assert [x.tobytes() for x in g.elements] == list(elements)
        assert len(products) == 2 * g.order

    def test_identity_only_module(self, delta_mod3_module):
        # synthetic: keep only the invertible class but replace it by the identity
        m = delta_mod3_module
        synthetic = HeckeModule(
            m.p,
            m.weight,
            m.vector_series,
            m.per_prime,
            m.conductor,
            {1: linalg.identity(1, 3), 2: 0 * linalg.identity(1, 3)}.__getitem__,
            None,
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

    def test_pure_decomposition_forms(self, delta2_mod7_module):
        m = delta2_mod7_module
        parts = decompose(m)
        assert len(parts) == 2
        series = [m.vector_to_series(part.coords_in_parent) for part in parts]
        total = linear_combine([(1, series[0]), (1, series[1])])
        assert total == delta_power(7, 2, m.vector_series.shape[1])

    def test_eigenform_decomposes_to_itself(self):
        f = delta_form(7, 1)
        m = build_module(f)
        parts = decompose(m)
        assert len(parts) == 1
        assert m.vector_to_series(parts[0].coords_in_parent) == f.series.truncate(
            m.vector_series.shape[1]
        )


class TestVectorToSeries:
    def test_reads_no_further_than_the_stored_precision(self, delta2_mod7_module):
        m = delta2_mod7_module
        prec = m.vector_series.shape[1]
        vec = np.arange(1, m.dim + 1, dtype=np.int64)
        series = m.vector_to_series(vec, prec)
        assert np.array_equal(series.coeffs, kernels.combine(vec, m.vector_series, m.p))
        assert m.vector_to_series(vec) == series
        for bad in (prec + 1, 0, -1):
            with pytest.raises(ValueError, match="outside the stored precision"):
                m.vector_to_series(vec, bad)


class TestGroupBlocks:
    """One block holding all of Delta^10 mod 3: classes 1 and 2 mod 3 carry several matrices."""

    @pytest.fixture(scope="class")
    def mod(self):
        return build_module(delta_form(3, 10))

    def _block(self, m, flip=()):
        """The whole module as one block; one matrix of each class in flip has its flag flipped."""
        nil_by_mat = {}
        for ell, mat in sorted(m.per_prime.items()):
            nil_by_mat.setdefault(mat.tobytes(), m.status_by_class[ell % 3] == NILPOTENT)
        for u in flip:
            last = max(ell for ell in m.per_prime if ell % 3 == u)
            nil_by_mat[m.per_prime[last].tobytes()] ^= True
        return [(linalg.identity(m.dim, 3), nil_by_mat)]

    def test_consistent_flags_give_the_status_classes(self, mod):
        assert mod.status_modulus == 3
        assert all(
            len({mat.tobytes() for ell, mat in mod.per_prime.items() if ell % 3 == u}) > 1
            for u in (1, 2)
        )
        (part,) = _group_blocks(mod, self._block(mod))
        assert part.nil_classes == frozenset({2})
        assert np.array_equal(part.coords_in_parent, mod.f_coords)

    @pytest.mark.parametrize("flip,named", [((2,), 2), ((1,), 1), ((2, 1), 1)])
    def test_first_inconsistent_class_is_named(self, mod, flip, named):
        with pytest.raises(ConductorNotFoundError, match=f"status class {named} is not"):
            _group_blocks(mod, self._block(mod, flip))

    def test_seed_coordinates_match_one_vector_solve(self, mod, delta2_mod7_module, monkeypatch):
        # Delta^10 mod 3 cut into three blocks of a random basis, and the
        # blocks of Delta^2 mod 7 refined by the minimal-polynomial oracle
        ((_, nil_by_mat),) = self._block(mod)
        rows = _random_invertible(np.random.default_rng(10), mod.dim, 3)
        m7 = delta2_mod7_module
        blocks7 = [(linalg.identity(m7.dim, 7), {})]
        for mat in _distinct(m7.per_prime.values()):
            blocks7 = [
                sub for b, nil in blocks7 for sub in eigenspaces_by_min_poly(b, nil, mat, 7)
            ]
        assert len(blocks7) == 2
        solved = []
        solve_rows = linalg.solve_rows
        monkeypatch.setattr(
            linalg, "solve_rows", lambda *args: solved.append(solve_rows(*args)) or solved[-1]
        )

        def group(m, blocks):
            solved.clear()
            parts = _group_blocks(m, blocks)
            # the first solve is the seed's, before the components' submodules
            stacked = np.concatenate([b for b, _ in blocks])
            assert np.array_equal(solved[0], solve_in_rowspan(stacked, m.f_coords, m.p)[None])
            total = sum(part.coords_in_parent for part in parts) % m.p
            assert np.array_equal(total, m.f_coords)
            return parts

        group(mod, [(part, nil_by_mat) for part in np.array_split(rows, 3)])
        assert [(c.nil_classes, c.coords_in_parent.tolist()) for c in group(m7, blocks7)] == [
            (c.nil_classes, c.coords_in_parent.tolist()) for c in decompose(m7)
        ]


def _random_invertible(rng, d, p):
    while True:
        mat = rng.integers(0, p, size=(d, d))
        if len(linalg.rref(mat, p)[1]) == d:
            return mat


def _irreducible_quadratic(p):
    """Companion matrix of the first x^2 - t*x - n with no root in F_p."""
    t, n = next(
        (t, n)
        for t in range(p)
        for n in range(1, p)
        if all((x * x - t * x - n) % p for x in range(p))
    )
    return np.array([[0, 1], [n, t]])


def _action(rng, d, p, quadratics=0):
    """Irreducible quadratic blocks, then an upper triangular block.

    The triangular block's diagonal is drawn from 0 and two other
    eigenvalues, so eigenvalues repeat and carry Jordan blocks.
    """
    out = np.zeros((d, d), dtype=np.int64)
    for i in range(quadratics):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = _irreducible_quadratic(p)
    s = 2 * quadratics
    out[s:, s:] = np.triu(rng.integers(0, p, size=(d - s, d - s)), 1)
    roots = [0, *rng.choice(np.arange(1, p), size=min(2, p - 1), replace=False)]
    out[range(s, d), range(s, d)] = rng.choice(roots, size=d - s)
    return out


def _invariant_block(rng, action, p, extra=2):
    """Rows spanning a subspace of F_p^(d + extra), and a matrix acting on it as action.

    The action is conjugated by a random basis of the subspace, and the
    whole space by a random change of coordinates.
    """
    d = len(action)
    full = np.zeros((d + extra, d + extra), dtype=np.int64)
    full[:d, :d] = action
    full[d:] = rng.integers(0, p, size=(extra, d + extra))
    q = _random_invertible(rng, d + extra, p)
    mat = (linalg.inverse(q, p) @ full @ q) % p
    rows = (_random_invertible(rng, d, p) @ q[:d]) % p
    return rows, mat


class TestEigenspacesAgainstMinPoly:
    """_eigenspaces against the minimal-polynomial oracle: rows, order and nil flags."""

    @staticmethod
    def _compare(rows, mat, p):
        nil_by_mat = {b"earlier": True}
        try:
            want = eigenspaces_by_min_poly(rows, nil_by_mat, mat, p)
        except SplittingFieldNeededError:
            with pytest.raises(SplittingFieldNeededError) as err:
                _eigenspaces(rows, nil_by_mat, mat, p)
            return str(err.value)
        got = _eigenspaces(rows, nil_by_mat, mat, p)
        assert len(got) == len(want)
        for (got_rows, got_nil), (want_rows, want_nil) in zip(got, want):
            assert got_rows.dtype == want_rows.dtype
            assert np.array_equal(got_rows, want_rows)
            assert got_nil == want_nil
        assert sum(len(sub) for sub, _ in got) == len(rows)
        return got

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 251])
    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_split_and_irreducible(self, p, d):
        rng = np.random.default_rng(1000 * p + d)
        for _ in range(2):
            got = self._compare(*_invariant_block(rng, _action(rng, d, p), p), p)
            assert isinstance(got, list)
        for quadratics in range(1, d // 2 + 1) if d < 16 else (1, 3):
            message = self._compare(*_invariant_block(rng, _action(rng, d, p, quadratics), p), p)
            assert message == (
                f"a sampled action has irreducible factors of total degree {2 * quadratics} "
                f"in its characteristic polynomial over F_{p}"
            )

    def test_split_64_dim_mod7(self):
        rng = np.random.default_rng(64)
        got = self._compare(*_invariant_block(rng, _action(rng, 64, 7), 7), 7)
        assert len(got) == 3 and any(len(sub) > 1 for sub, _ in got)


class TestSubmodule:
    def test_conductor_shrinks_for_embedded_eigenline(self, delta2_mod3_module):
        # the line spanned by the weight-12 cusp form inside the square's module
        m = delta2_mod3_module
        eps = m.prime_power_matrix(2, 1)
        line = linalg.matvec(m.f_coords, eps, 3)  # image = the cusp form
        sub = submodule(m, line)
        assert sub.dim == 1
        assert sub.conductor == 3
        rep = sub.report
        assert rep.nilpotent_classes == (2,)


class TestReadOnlyMatrices:
    def test_per_prime_matrices_are_read_only_views(self, delta2_mod3_module):
        m = delta2_mod3_module
        mats = list(m.per_prime.values())
        assert all(mat.base is mats[0].base for mat in mats)
        for mat in (mats[0], submodule(m, m.f_coords).per_prime[2]):
            assert mat.ndim == 2 and not mat.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = 1


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
        parent = build_module(lifted, sample_bound=600)
        assert parent.conductor is None
        parts = decompose(parent)
        assert sorted(part.module.dim for part in parts) == [1, 2]
        assert [part.module.conductor for part in parts if part.module.dim == 2] == [None]
        self._check(calls)


class TestEquidistribution:
    def test_delta_square_mod3_holds(self):
        rep = equidistribution_report(build_module(delta_form(3, 2)))
        assert rep.criterion_holds
        assert rep.primitive_root_shortcut  # 2 generates F_3*

    def test_delta_mod7_not_equidistributed(self):
        rep = equidistribution_report(build_module(delta_form(7, 1)))
        assert rep.eigenform_converse_applies
        assert not rep.criterion_holds
        assert rep.scalar_values == (1, 2, 4)

    def test_mod5_shortcut(self):
        rep = equidistribution_report(build_module(delta_form(5, 1)))
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
