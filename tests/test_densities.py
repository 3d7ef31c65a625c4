import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from oracles import nilpotent_images_by_multisets, squarefull_buckets_walk

from modpforms import arith, cli, densities, linalg
from modpforms.arith import primes_upto
from modpforms.basis import GradedForm, dim_level_one
from modpforms.densities import (
    GROUP_PARAMETER_CAP,
    PRIME_BOUND_CAP,
    AsymptoticProfile,
    GroupDescriptor,
    alpha_of_form,
    alpha_of_group,
    class_density,
    euler_constant_C,
    leading_constants,
    leading_constants_sf,
    multi_frobenian_class_density,
    multi_frobenian_density,
    predict,
    squarefull_buckets,
    squarefull_sum,
)
from modpforms.errors import BudgetExceededError, InternalInvariantError, ModpFormsError
from modpforms.module import HeckeModule, build_module, strict_nilpotence_order
from modpforms.series import delta_power


def _refuse(n):
    raise AssertionError(f"called with {n}: the budget check must come first")


def _delta_form(p, k, sample_bound=2000):
    prec = sample_bound * max(dim_level_one(12 * k) - 1, 1) + 9
    return GradedForm(delta_power(p, k, prec), 12 * k)


def _invertible_only(m):
    """A copy of the dimension-1 module m mod 3 whose two classes act invertibly."""
    return HeckeModule(
        m.p,
        m.weight,
        m.ambient,
        m.ambient_coords,
        m.vector_series,
        {ell: linalg.identity(1, 3) for ell in m.per_prime},
        3,
        {1: 2 * linalg.identity(1, 3) % 3, 2: linalg.identity(1, 3)}.__getitem__,
        None,
        3,
        {1: "invertible", 2: "invertible"},
        m.f_coords,
    )


@lru_cache(maxsize=None)
def _profiled_components(p, k):
    """The pure component modules whose constants densities.profile computes for Delta^k mod p."""
    with mock.patch.object(densities, "_pure_profile", wraps=densities._pure_profile) as spy:
        densities.profile(_delta_form(p, k), prime_bound=10**4)
    return [call.args[0] for call in spy.call_args_list]


class TestClassDensity:
    def test_examples(self):
        assert class_density({2, 5, 8}, 9) == Fraction(1, 2)
        assert class_density({6}, 7) == Fraction(1, 6)
        assert class_density({1, 2, 4, 5, 7, 8}, 9) == 1

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            class_density({3}, 9)

    def test_checks_only_the_given_classes(self, monkeypatch):
        # one gcd per given class, and phi from the factorization: no walk
        # through the 3^12 residues below the modulus
        gcds = []
        gcd = math.gcd
        monkeypatch.setattr(math, "gcd", lambda *a: gcds.append(a) or gcd(*a))
        assert class_density({2, 5, 3**12 + 8}, 3**12) == Fraction(3, 2 * 3**11)
        assert len([args for args in gcds if 3**12 in args]) <= 3


class TestAlphaOfGroup:
    def test_case_table(self):
        cases = [
            (GroupDescriptor("dihedral", 2), Fraction(3, 4)),
            (GroupDescriptor("dihedral", 3), Fraction(1, 2)),
            (GroupDescriptor("dihedral", 4), Fraction(5, 8)),
            (GroupDescriptor("A4"), Fraction(1, 4)),
            (GroupDescriptor("S4"), Fraction(3, 8)),
            (GroupDescriptor("A5"), Fraction(1, 4)),
            (GroupDescriptor("PGL2", 3), Fraction(3, 8)),
            (GroupDescriptor("PSL2", 3), Fraction(1, 4)),
            (GroupDescriptor("PSL2", 5), Fraction(1, 4)),
            (GroupDescriptor("PSL2", 9), Fraction(1, 8)),
            (GroupDescriptor("PGL2", 5), Fraction(5, 24)),
            (GroupDescriptor("reducible", 2), Fraction(1, 2)),
            (GroupDescriptor("reducible", 6), Fraction(1, 6)),
        ]
        for descriptor, expect in cases:
            assert alpha_of_group(descriptor) == expect

    def test_range(self):
        for d, _ in [
            (GroupDescriptor("dihedral", n), None) for n in range(2, 30)
        ] + [(GroupDescriptor("PGL2", q), None) for q in (3, 5, 7, 9, 27)]:
            a = alpha_of_group(d)
            assert 0 < a <= Fraction(3, 4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GroupDescriptor("PGL2", 4)  # even
        with pytest.raises(ValueError):
            GroupDescriptor("PSL2", 15)  # not a prime power
        with pytest.raises(ValueError):
            GroupDescriptor("cyclic", 3)

    @pytest.mark.parametrize("kind", ["PGL2", "PSL2"])
    def test_parameter_cap_checked_before_factoring(self, kind, monkeypatch):
        monkeypatch.setattr(arith, "factorize", _refuse)
        with pytest.raises(BudgetExceededError, match=f"cap {GROUP_PARAMETER_CAP}"):
            GroupDescriptor(kind, GROUP_PARAMETER_CAP + 2)


class TestAlphaOfForm:
    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    def test_mod3_powers(self, k):
        assert alpha_of_form(_delta_form(3, k)) == Fraction(1, 2)

    def test_mod7_square_is_min(self):
        assert alpha_of_form(_delta_form(7, 2)) == Fraction(1, 6)

    def test_mod7_delta(self):
        assert alpha_of_form(_delta_form(7, 1)) == Fraction(1, 2)


class TestMultiFrobenianDensity:
    def test_height_zero(self, delta2_mod3_module):
        m = delta2_mod3_module
        assert multi_frobenian_density(m, m.f_coords, m.f_coords, 0) == 1
        other = (m.f_coords + 1) % 3
        assert multi_frobenian_density(m, m.f_coords, other, 0) == 0

    def test_step_to_lower_power(self, delta2_mod3_module):
        m = delta2_mod3_module
        delta_vec = np.array([0, 1], dtype=np.int64)
        assert multi_frobenian_density(m, m.f_coords, delta_vec, 1) == Fraction(1, 6)
        assert multi_frobenian_density(m, m.f_coords, 2 * delta_vec % 3, 1) == Fraction(1, 6)

    def test_class_set_density_formula(self):
        # products of h distinct primes from the two onzero nilpotent classes mod 9
        for h in range(5):
            assert multi_frobenian_class_density({2, 5}, 9, h) == Fraction(
                1, math.factorial(h) * 3**h
            )

    @pytest.mark.parametrize("k,h", [(1, 0), (2, 1), (4, 2), (5, 3)])
    def test_module_route_matches_closed_form(self, k, h):
        # summed over the reachable targets the density is 1/(h! 3^h)
        m = build_module(_delta_form(3, k))
        targets = nilpotent_images_by_multisets(m, m.f_coords, h)
        total = sum(
            (
                multi_frobenian_density(m, m.f_coords, np.frombuffer(key, dtype=np.int64), h)
                for key in targets
            ),
            Fraction(0),
        )
        assert total == Fraction(1, math.factorial(h) * 3**h)

    def test_edges_match_the_multiset_oracle(self, delta2_mod3_module, delta_mod3_module):
        m = delta2_mod3_module
        zero = np.zeros(m.dim, dtype=np.int64)
        delta_vec = np.array([0, 1], dtype=np.int64)
        f = m.f_coords
        # (module, source, target, height, density)
        cases = [
            (m, f, f, 0, 1),
            (m, zero, zero, 0, 1),
            (m, zero, f, 0, 0),
            (m, zero, delta_vec, 1, 0),
        ]
        # no nilpotent class: only the empty tuple, at height 0
        inv = _invertible_only(delta_mod3_module)
        cases += [(inv, inv.f_coords, inv.f_coords, h, int(h == 0)) for h in range(3)]
        for mod, source, target, h, want in cases:
            phi = len(mod.report.statuses)
            ref = nilpotent_images_by_multisets(mod, source, h).get(target.tobytes(), 0)
            got = multi_frobenian_density(mod, source, target, h)
            assert got == want == Fraction(ref, math.factorial(h) * phi**h)

    @pytest.mark.parametrize("h,want", [(1, Fraction(1, 6)), (2, Fraction(1, 8)), (3, Fraction(1, 48))])
    def test_zero_target_matches_every_ordered_tuple(self, delta2_mod3_module, h, want):
        # the multiset oracle drops zero images as the walk does, so count
        # the products of every ordered tuple of nilpotent class matrices
        m = delta2_mod3_module
        report = m.report
        nil = [m.prime_power_matrix(u, 1) for u in report.nilpotent_classes]
        zero = np.zeros(m.dim, dtype=np.int64)
        denominator = math.factorial(h) * len(report.statuses) ** h
        for source in (m.f_coords, zero):
            hits = 0
            for mats in itertools.product(nil, repeat=h):
                vec = source
                for mat in mats:
                    vec = vec @ mat % 3
                hits += not vec.any()
            got = multi_frobenian_density(m, source, zero, h)
            assert got == Fraction(hits, denominator)
        assert multi_frobenian_density(m, m.f_coords, zero, h) == want

    def test_denominator_invariant(self, delta2_mod3_module):
        m = delta2_mod3_module
        delta_vec = np.array([0, 1], dtype=np.int64)
        for h in range(4):
            d = multi_frobenian_density(m, m.f_coords, delta_vec, h)
            assert (math.factorial(h) * 6**h) % d.denominator == 0


def _refuse_product(*args):
    raise AssertionError(f"prime_power_matrix{args}: the enumeration cap must come first")


class TestNilpotentWalk:
    @pytest.mark.parametrize("p,k", [(3, 2), (3, 4), (3, 5), (3, 10), (7, 2), (5, 3)])
    def test_matches_multiset_enumeration_at_every_height(self, p, k):
        # every bucket vector of every component that predict reaches
        components = _profiled_components(p, k)
        assert len(components) == (2 if p > 3 else 1)
        for m in components:
            h = strict_nilpotence_order(m)
            cu = densities._pure_profile(m, with_constants=False).euler_constant(10**4)
            _, vecs, _ = squarefull_buckets(m, m.f_coords, cu, densities.DEFAULT_SFULL_BOUND)
            if (p, k) == (3, 10):
                assert (len(vecs), h) == (34, 4)
            stack = densities._nilpotent_stack(m, h)
            for v in vecs.values():
                levels = densities._nilpotent_walk(stack, v, h, p)
                assert len(levels) == h + 1
                for j, (imgs, counts) in enumerate(levels):
                    got = {row.tobytes(): int(n) for row, n in zip(imgs, counts)}
                    assert got == nilpotent_images_by_multisets(m, v, j)
            # h is the last height the seed reaches
            assert len(densities._nilpotent_walk(stack, m.f_coords, h, p)[h][0])

    def test_counts_ordered_tuples_of_noncommuting_matrices(self):
        p = 3
        stack = np.random.default_rng(5).integers(0, p, size=(3, 3, 3))
        assert not np.array_equal(stack[0] @ stack[1] % p, stack[1] @ stack[0] % p)
        source = np.array([1, 0, 2], dtype=np.int64)
        for j, (imgs, counts) in enumerate(densities._nilpotent_walk(stack, source, 4, p)):
            want = {}
            for tup in itertools.product(stack, repeat=j):
                v = source
                for mat in tup:
                    v = v @ mat % p
                if v.any() or not j:
                    want[v.tobytes()] = want.get(v.tobytes(), 0) + 1
            assert {row.tobytes(): int(n) for row, n in zip(imgs, counts)} == want

    def test_height_zero_makes_no_unique_call(self, delta_mod3_module, monkeypatch):
        monkeypatch.setattr(np, "unique", lambda *args, **kwargs: _refuse(args))
        prof = densities._pure_profile(delta_mod3_module, prime_bound=10**4, sfull_bound=10**4)
        assert prof.h == 0 and prof.c > 0


class TestEnumerationCap:
    def _capped(self, monkeypatch, k):
        """Delta^k mod 3 with the cap one below (nilpotent classes)^h and no matrix readable."""
        m = build_module(_delta_form(3, k))
        h = strict_nilpotence_order(m)
        tuples = len(m.report.nilpotent_classes) ** h
        monkeypatch.setattr(densities, "_ENUM_CAP", tuples - 1)
        monkeypatch.setattr(densities, "strict_nilpotence_order", lambda module: h)
        monkeypatch.setattr(m, "prime_power_matrix", _refuse_product)
        return m, h

    @pytest.mark.parametrize("k", [2, 4])
    def test_profile_refuses_before_any_product(self, monkeypatch, k):
        m, _ = self._capped(monkeypatch, k)
        with pytest.raises(ModpFormsError, match="enumeration cap"):
            densities._pure_profile(m, prime_bound=10**4, sfull_bound=10**4)

    @pytest.mark.parametrize("k", [2, 4])
    def test_density_refuses_before_any_product(self, monkeypatch, k):
        m, h = self._capped(monkeypatch, k)
        with pytest.raises(ModpFormsError, match="enumeration cap"):
            multi_frobenian_density(m, m.f_coords, m.f_coords, h)

    def test_cap_itself_is_allowed(self, monkeypatch):
        m = build_module(_delta_form(3, 4))  # 3 nilpotent classes mod 9, h = 2
        monkeypatch.setattr(densities, "_ENUM_CAP", 9)
        assert multi_frobenian_density(m, m.f_coords, m.f_coords, 2) == 0
        monkeypatch.setattr(densities, "_ENUM_CAP", 8)
        with pytest.raises(ModpFormsError, match=r"3\^2 nilpotent tuples exceed the enumeration"):
            multi_frobenian_density(m, m.f_coords, m.f_coords, 2)

    def test_predict_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(densities, "_ENUM_CAP", 1)
        assert cli.main(["predict", "--p", "3", "--form", "delta^2"]) == 3
        assert "enumeration cap" in capsys.readouterr().err


class TestEulerConstant:
    def test_mod3_constant(self):
        cu = euler_constant_C({1}, 3, Fraction(1, 2), prime_bound=10**6)
        assert abs(cu.value - 0.2913) < 5e-4
        assert cu.tail < 5e-4

    @pytest.mark.parametrize("modulus", [3, 7, 9, 27])
    def test_class_mask_matches_isin(self, modulus):
        pr = primes_upto(10**5)
        units = [u for u in range(1, modulus) if math.gcd(u, modulus) == 1]
        class_sets = [units[:n] for n in range(len(units) + 1)]
        class_sets += [units[::2], units[1::2], [u + modulus for u in units[::3]]]
        for classes in class_sets:
            expect = np.isin(pr % modulus, [u % modulus for u in classes])
            assert np.array_equal(densities._in_classes(pr, classes, modulus), expect)

    def test_closed_form_cross_check(self):
        # (3^{1/4} / (pi sqrt 2)) * prod_{l = 1 mod 3} (1 - l^-2)^{1/2}
        cu = euler_constant_C({1}, 3, Fraction(1, 2), prime_bound=10**6)
        pr = primes_upto(10**6).astype(np.float64)
        sel = pr[pr % 3 == 1]
        closed = (
            3**0.25 / (math.pi * math.sqrt(2))
            * math.exp(0.5 * float(np.sum(np.log1p(-(sel ** -2.0)))))
        )
        assert abs(cu.value - closed) < 2e-4

    def test_mod7_constant(self):
        cu = euler_constant_C({1, 2, 3, 4, 5}, 7, Fraction(5, 6), prime_bound=10**6)
        assert abs(cu.value - 0.5976) < 5e-4
        assert cu.tail < 5e-4

    def test_doubling_within_tail(self):
        for classes, mod, beta in [({1}, 3, Fraction(1, 2)), ({1, 2, 3, 4, 5}, 7, Fraction(5, 6))]:
            lo = euler_constant_C(classes, mod, beta, prime_bound=2 * 10**5)
            hi = euler_constant_C(classes, mod, beta, prime_bound=4 * 10**5)
            assert abs(hi.value - lo.value) < lo.tail

    def test_prime_bound_cap_checked_before_sieving(self, monkeypatch):
        monkeypatch.setattr(densities, "primes_upto", _refuse)
        with pytest.raises(BudgetExceededError, match=f"cap {PRIME_BOUND_CAP}"):
            euler_constant_C({1}, 3, Fraction(1, 2), prime_bound=PRIME_BOUND_CAP + 1)

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            euler_constant_C({1}, 3, Fraction(1, 1))
        with pytest.raises(ValueError):
            euler_constant_C({1}, 3, Fraction(0, 1))


_SFULL_CASES = [(3, 1), (5, 1), (7, 1), (3, 2), (3, 4), (3, 5)]


@pytest.fixture(scope="module")
def sfull_walk_inputs():
    """(module, C(U), invertible classes) for conductors 3, 5, 7, 9 and 27.

    Delta^4 and Delta^5 mod 3 (dims 3 and 4) have 10 and 16 buckets, so
    the table of images grows while the walk runs.
    """
    out = {}
    for p, k in _SFULL_CASES:
        m = build_module(_delta_form(p, k))
        report = m.report
        alpha = class_density(report.nilpotent_classes, report.modulus)
        cu = euler_constant_C(
            report.invertible_classes, report.modulus, 1 - alpha, prime_bound=10**4
        )
        out[p, k] = (m, cu, report.invertible_classes)
    return out


def _assert_same_buckets(p, k, inputs, s_bound):
    m, cu, inv = inputs[p, k]
    sums, vecs, tail = squarefull_buckets(m, m.f_coords, cu, s_bound)
    ref_sums, ref_vecs, ref_tail = squarefull_buckets_walk(m, m.f_coords, cu, s_bound, inv)
    assert list(sums) == list(ref_sums)
    for key, ref in ref_sums.items():
        assert vecs[key].dtype == np.int64
        assert np.array_equal(vecs[key], ref_vecs[key])
        # both routes add the same terms in increasing s, so the floats agree exactly
        assert sums[key] == ref
    assert tail == ref_tail


# S = q^e and q^e - 1 on both sides of the square root, the cube root and
# the fourth-root split of the prime walk (q = 5 and 7 are p for two modules);
# at S = (11 * 13)^2 the split is 11, so 11^2 * 13^2 needs 11 below it
_SPLIT_BOUNDS = [q**e - d for q in (5, 7, 11) for e in (2, 3, 4) for d in (0, 1)]
_SPLIT_BOUNDS += [143**2, 143**2 - 1]


class TestSquarefullWalk:
    @pytest.mark.parametrize("p,k", _SFULL_CASES)
    @pytest.mark.parametrize(
        "s_bound", [1, 2, 4, 8, 9, 10**4, 10**6, 10**8] + _SPLIT_BOUNDS
    )
    def test_matches_enumeration(self, sfull_walk_inputs, p, k, s_bound):
        _assert_same_buckets(p, k, sfull_walk_inputs, s_bound)

    def test_matches_enumeration_at_default_bound(self, sfull_walk_inputs):
        _assert_same_buckets(3, 2, sfull_walk_inputs, 10**10)

    @pytest.mark.parametrize("p,k", _SFULL_CASES)
    @pytest.mark.parametrize("s_bound", _SPLIT_BOUNDS + [10**8])
    def test_matches_enumeration_in_windows_of_three_terms(
        self, sfull_walk_inputs, monkeypatch, p, k, s_bound
    ):
        # a window edge falls between almost every two consecutive terms
        monkeypatch.setattr(densities, "SFULL_BLOCK", 3)
        sizes = []
        spans = densities._spans

        def spy(start, end):
            row, at = spans(start, end)
            sizes.append(len(row))
            return row, at

        monkeypatch.setattr(densities, "_spans", spy)
        _assert_same_buckets(p, k, sfull_walk_inputs, s_bound)
        # each window takes its smooth terms, then its large-prime terms
        assert max(a + b for a, b in zip(sizes[::2], sizes[1::2])) <= 3

    def test_cap_bound_in_bounded_memory(self, sfull_walk_inputs):
        # Delta mod 7 at the cap: 1,183,461 terms, 429,689 of them S^(1/4)-smooth;
        # holding every term at once peaked at 89.8 MB
        m, cu, _ = sfull_walk_inputs[7, 1]
        t0 = time.perf_counter()
        squarefull_buckets(m, m.f_coords, cu, densities.SFULL_BOUND_CAP)
        assert time.perf_counter() - t0 < 1.0
        tracemalloc.start()
        try:
            squarefull_buckets(m, m.f_coords, cu, densities.SFULL_BOUND_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 10**6

    @pytest.mark.parametrize("p,k", _SFULL_CASES)
    def test_vectors_are_writable_and_own_their_data(self, sfull_walk_inputs, p, k):
        m, cu, _ = sfull_walk_inputs[p, k]
        _, vecs, _ = squarefull_buckets(m, m.f_coords, cu, 10**6)
        vs = list(vecs.values())
        assert vs
        for i, v in enumerate(vs):
            assert v.dtype == np.int64 and v.flags.writeable and v.flags.owndata
            assert not np.shares_memory(v, m.f_coords)
            assert not any(np.shares_memory(v, w) for w in vs[i + 1 :])

    def test_repeated_s_raises(self, sfull_walk_inputs, monkeypatch):
        # a prime listed twice makes every s it divides occur twice
        m, cu, _ = sfull_walk_inputs[3, 2]
        monkeypatch.setattr(
            densities, "primes_upto", lambda n: np.insert(primes_upto(n), 3, 7)
        )
        with pytest.raises(InternalInvariantError, match="occurs twice"):
            squarefull_buckets(m, m.f_coords, cu, 10**6)

    def test_zero_seed_has_no_buckets(self, sfull_walk_inputs):
        m, cu, _ = sfull_walk_inputs[3, 2]
        sums, vecs, _ = squarefull_buckets(m, np.zeros(m.dim, dtype=np.int64), cu, 10**6)
        assert sums == {} and vecs == {}

    def test_cap_checked_before_sieving(self, sfull_walk_inputs, monkeypatch):
        m, cu, _ = sfull_walk_inputs[3, 1]
        monkeypatch.setattr(densities, "SFULL_BOUND_CAP", 10**4)
        squarefull_buckets(m, m.f_coords, cu, 10**4)
        monkeypatch.setattr(densities, "primes_upto", _refuse)
        with pytest.raises(BudgetExceededError, match="sfull_bound 10001 .* cap 10000"):
            squarefull_buckets(m, m.f_coords, cu, 10**4 + 1)


class TestSquarefullSum:
    def test_s_equals_one_always_counts(self, delta_mod3_module):
        value, tail = squarefull_sum(
            delta_mod3_module, delta_mod3_module.f_coords, s_bound=10**4, prime_bound=10**5
        )
        cu = euler_constant_C({1}, 3, Fraction(1, 2), prime_bound=10**5)
        assert value >= cu.value  # the s=1 term alone contributes C(U)
        assert tail > 0

    def test_membership_spot_checks(self, delta2_mod3_module):
        m = delta2_mod3_module
        # 4 = 2^2 acts as identity, 8 = 2^3 acts as 2*eps (table row n=3)
        t4 = m.prime_power_matrix(2, 2)
        assert np.array_equal(t4, np.eye(2, dtype=np.int64))
        t8 = m.prime_power_matrix(2, 3)
        assert np.array_equal(t8, np.array([[0, 2], [0, 0]]))

    def test_monotone_in_bound(self, delta2_mod3_module):
        m = delta2_mod3_module
        prev, prev_tail = 0.0, None
        for bound in (10**4, 10**6, 10**8):
            val, tail = squarefull_sum(m, m.f_coords, s_bound=bound, prime_bound=10**5)
            assert val >= prev - 1e-15
            if prev_tail is not None:
                assert val - prev <= prev_tail
            prev, prev_tail = val, tail


class TestLeadingConstants:
    def test_delta_mod3_squarefree(self):
        prof = leading_constants_sf(_delta_form(3, 1), prime_bound=10**5)
        assert prof.alpha == Fraction(1, 2)
        assert prof.h == 0
        cu = euler_constant_C({1}, 3, Fraction(1, 2), prime_bound=10**5)
        assert abs(prof.c - cu.value) < 1e-12

    @pytest.mark.parametrize("k,h", [(1, 0), (2, 1), (4, 2), (5, 3)])
    def test_sf_constant_family(self, k, h):
        prof = leading_constants_sf(_delta_form(3, k), prime_bound=10**5)
        cu = euler_constant_C({1}, 3, Fraction(1, 2), prime_bound=10**5)
        assert prof.alpha == Fraction(1, 2) and prof.h == h
        assert abs(prof.c - cu.value / (math.factorial(h) * 3**h)) < 1e-10

    def test_mod7_square_sf(self):
        prof = leading_constants_sf(_delta_form(7, 2), prime_bound=10**6)
        assert prof.alpha == Fraction(1, 6)
        assert prof.h == 0
        assert abs(prof.c - 0.5976) < 5e-4

    def test_full_constant_against_closed_form(self):
        prof = leading_constants(_delta_form(3, 2), prime_bound=10**6, sfull_bound=10**8)
        cu = euler_constant_C({1}, 3, Fraction(1, 2), prime_bound=10**6)
        pr = primes_upto(10**6).astype(np.float64)
        p1, p2 = pr[pr % 3 == 1], pr[pr % 3 == 2]
        closed = (
            cu.value / 3
            * math.exp(-float(np.sum(np.log1p(-(p1 ** -3.0)))))
            * math.exp(-float(np.sum(np.log1p(-(p2 ** -2.0)))))
        )
        assert prof.alpha == Fraction(1, 2) and prof.h == 1
        assert abs(prof.c - closed) / closed < 1e-3

    def test_per_value_equidistribution_mod3(self):
        prof = leading_constants_sf(_delta_form(3, 2), prime_bound=10**5)
        assert prof.per_value[1].c == pytest.approx(prof.per_value[2].c)
        assert prof.per_value[1].h == prof.per_value[2].h == 1

    def test_v3_delta_shifted_profile(self):
        # indices of the cube are 3m with m square-free coprime to 3, so the
        # square-free profile is the cusp form's scaled by 1/3
        f3 = GradedForm(delta_power(3, 3, 20000), 36)
        prof = leading_constants_sf(f3, prime_bound=10**5)
        base = leading_constants_sf(_delta_form(3, 1), prime_bound=10**5)
        assert not prof.degenerate
        assert prof.alpha == base.alpha and prof.h == base.h
        assert abs(prof.c - base.c / 3) < 1e-12

    def test_degenerate_square_support(self):
        f9 = GradedForm(delta_power(3, 9, 20000), 108)
        prof = leading_constants_sf(f9, prime_bound=10**4)
        assert prof.degenerate

    def test_nonpure_full_constants_mod7(self):
        prof = leading_constants(_delta_form(7, 2), prime_bound=10**5, sfull_bound=10**6)
        assert prof.alpha == Fraction(1, 6)
        assert prof.h == 0
        assert prof.c > 0


class TestPredict:
    def test_simple_arithmetic(self):
        prof = AsymptoticProfile(Fraction(1, 2), 0, 1.0, 0.0, {})
        x = math.exp(4)
        (pt,) = predict(prof, [x])
        assert pt.value == pytest.approx(x / 2)

    def test_loglog_factor(self):
        base = AsymptoticProfile(Fraction(1, 2), 0, 1.0, 0.0, {})
        up = AsymptoticProfile(Fraction(1, 2), 1, 1.0, 0.0, {})
        x = 10**6
        (a,) = predict(base, [x])
        (b,) = predict(up, [x])
        assert b.value / a.value == pytest.approx(math.log(math.log(x)))
        assert b.value / a.value == pytest.approx(2.626, abs=5e-3)

    def test_band_and_domain(self):
        prof = AsymptoticProfile(Fraction(1, 2), 0, 1.0, 0.1, {})
        (pt,) = predict(prof, [100])
        assert pt.low < pt.value < pt.high
        with pytest.raises(ValueError):
            predict(prof, [2])


class TestProfileValidation:
    def test_no_nilpotent_class_is_error(self, delta_mod3_module):
        with pytest.raises(ModpFormsError, match="nilpotent"):
            densities._pure_profile(
                _invertible_only(delta_mod3_module),
                squarefree=True,
                with_constants=False,
                prime_bound=10**4,
                sfull_bound=10**4,
            )


class TestLiftWeight:
    def test_tries_only_weights_congruent_mod_p_minus_1(self, monkeypatch):
        # W(Delta^3) mod 5 is not in weight 36; the search lifts it to weight 60
        from modpforms.hecke import apply_W

        tried = []
        basis_of = densities.miller_basis
        monkeypatch.setattr(
            densities, "miller_basis", lambda p, k, prec: tried.append(k) or basis_of(p, k, prec)
        )
        g = densities._lift_weight(apply_W(delta_power(5, 3, 600)), 5, 36)
        assert g.weight == 60
        assert tried[0] == 36 and len(tried) > 1
        assert all((k - 36) % 4 == 0 for k in tried)


class TestComponentProfiles:
    def test_components_combine_to_the_module_profile(self):
        m = build_module(_delta_form(7, 2))
        parts = densities.component_profiles(m, with_constants=False)
        assert len(parts) == 2
        prof = densities.module_profile(m, with_constants=False)
        assert prof.alpha == min(pp.alpha for pp in parts)
        for pp in parts:
            cu = pp.euler_constant(10**4)
            expect = euler_constant_C(
                pp.report.invertible_classes, pp.report.modulus, 1 - pp.alpha, prime_bound=10**4
            )
            assert cu == expect
