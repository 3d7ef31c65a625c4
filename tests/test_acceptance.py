"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Tolerances are pinned here, not configurable.
"""

import math
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from modpforms import linalg
from modpforms.arith import primes_upto
from modpforms.basis import GradedForm, dim_level_one, from_coordinates, miller_basis
from modpforms.counting import (
    coefficient_table,
    count_pi,
    count_pi_sf,
    oracle_check,
    oracle_components,
)
from modpforms.densities import (
    GroupDescriptor,
    alpha_of_form,
    alpha_of_group,
    class_density,
    euler_constant_C,
    h_of_form,
    leading_constants,
    leading_constants_sf,
    multi_frobenian_class_density,
    multi_frobenian_density,
)
from modpforms.hecke import apply_T_ell, apply_T_m, apply_W, ell_s_ell
from modpforms.module import (
    build_module,
    equidistribution_report,
    gamma_group,
    strict_nilpotence_order,
)
from modpforms.series import QSeries, delta_power, linear_combine

H_TABLE = {1: 0, 2: 1, 4: 2, 5: 3, 7: 4, 8: 5, 10: 4, 11: 5, 13: 4, 14: 5, 16: 4, 17: 5, 19: 6}

_h_modules = {}


def _line(num, ok, detail):
    print(f"\nACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _delta_form(p, k, sample_bound=2000):
    prec = sample_bound * max(dim_level_one(12 * k) - 1, 1) + 9
    return GradedForm(delta_power(p, k, prec), 12 * k)


def test_criterion_1_h_table():
    start = time.monotonic()
    got = {}
    for k in H_TABLE:
        m = build_module(_delta_form(3, k))
        _h_modules[k] = m
        got[k] = strict_nilpotence_order(m)
    triple_rule = {}
    for k in range(1, 7):
        f3k = GradedForm(delta_power(3, 3 * k, 2000 * 3 * k + 9), 36 * k)
        triple_rule[k] = h_of_form(f3k)
    elapsed = time.monotonic() - start
    table_ok = got == H_TABLE
    triple_ok = all(
        triple_rule[k] == (H_TABLE[k] if k in H_TABLE else got_k)
        for k, got_k in (
            (1, None), (2, None), (4, None), (5, None),
        )
    )
    triple_ok = all(triple_rule[k] == h_of_form(_delta_form(3, k)) for k in range(1, 7))
    ok = table_ok and triple_ok and elapsed < 60
    _line(
        1,
        ok,
        f"h-table {tuple(got[k] for k in H_TABLE)} exact, "
        f"h(f^3k)=h(f^k) for k<=6, in {elapsed:.1f}s (<60s)",
    )


def test_criterion_2_operator_tables(delta2_mod3_module):
    m = delta2_mod3_module
    eye = linalg.identity(2, 3)
    eps = np.array([[0, 1], [0, 0]], dtype=np.int64)
    t_table = {1: 2 * eye % 3, 4: 2 * eye % 3, 7: 2 * eye % 3, 2: eps, 5: 2 * eps % 3, 8: 0 * eye}
    s_table = {1: 1, 4: 1, 7: 1, 2: 2, 5: 2, 8: 2}
    ok = all(np.array_equal(m.prime_power_matrix(u, 1), t_table[u]) for u in t_table)
    ok = ok and all(ell_s_ell(u, m.weight, m.p) == s_table[u] for u in s_table)

    # the prime-power table, keyed by (class block, n mod 6)
    by_residue = {
        (1, (0, 3)): 1, (1, (1, 4)): 2, (1, (2, 5)): 0,
        (2, (0, 2, 4)): 1, (2, (1,)): "eps", (2, (3,)): "2eps", (2, (5,)): 0,
        (5, (0, 2, 4)): 1, (5, (1,)): "2eps", (5, (3,)): "eps", (5, (5,)): 0,
        (8, (0, 2, 4)): 1, (8, (1, 3, 5)): 0,
    }
    rendered = {"eps": eps, "2eps": 2 * eps % 3, 0: 0 * eye, 1: eye, 2: 2 * eye % 3}
    for (u, residues), label in by_residue.items():
        classes = [u] if u in (2, 5, 8) else [1, 4, 7]
        for cls in classes:
            for n in range(13):
                if n % 6 in residues:
                    got = m.prime_power_matrix(cls, n)
                    ok = ok and np.array_equal(got, rendered[label])
    _line(2, ok, "class values of T_l, lS_l, and all T_{l^n} rows match exactly")


def test_criterion_3_densities(delta2_mod3_module):
    m = delta2_mod3_module
    delta_vec = np.array([0, 1], dtype=np.int64)
    d1 = multi_frobenian_density(m, m.f_coords, delta_vec, 1)
    ok = d1 == Fraction(1, 6)
    heights_ok = all(
        multi_frobenian_class_density({2, 5}, 9, h) == Fraction(1, math.factorial(h) * 3**h)
        for h in range(5)
    )
    # cross-check through modules wherever the class structure exists
    module_ok = True
    for k, h in [(1, 0), (2, 1), (4, 2), (5, 3)]:
        mod = _h_modules.get(k) or build_module(_delta_form(3, k))
        if mod.conductor is None:
            continue
        rep = mod.report
        targets = {}
        if h == 0:
            targets[mod.f_coords.tobytes()] = mod.f_coords
        else:
            for classes in combinations_with_replacement(rep.nilpotent_classes, h):
                v = mod.f_coords
                for u in classes:
                    v = linalg.matvec(v, mod.prime_power_matrix(u, 1), mod.p)
                if v.any():
                    targets[v.tobytes()] = v
        total = sum(
            (multi_frobenian_density(mod, mod.f_coords, v, h) for v in targets.values()),
            Fraction(0),
        )
        module_ok = module_ok and total == Fraction(1, math.factorial(h) * 3**h)
    ok = ok and heights_ok and module_ok
    _line(3, ok, "delta(M_{f',f''}) = 1/6 and height-h density 1/(h! 3^h) for h <= 4, exact")


def test_criterion_4_alpha():
    ok = True
    for k, m in sorted(_h_modules.items()):
        rep = m.report
        ok = ok and class_density(rep.nilpotent_classes, rep.modulus) == Fraction(1, 2)
    ok = ok and alpha_of_form(_delta_form(3, 2)) == Fraction(1, 2)
    ok = ok and alpha_of_form(_delta_form(7, 2)) == Fraction(1, 6)
    groups = [
        (GroupDescriptor("dihedral", 2), Fraction(3, 4)),
        (GroupDescriptor("A4"), Fraction(1, 4)),
        (GroupDescriptor("S4"), Fraction(3, 8)),
        (GroupDescriptor("A5"), Fraction(1, 4)),
        (GroupDescriptor("PGL2", 3), Fraction(3, 8)),
        (GroupDescriptor("PSL2", 3), Fraction(1, 4)),
        (GroupDescriptor("PSL2", 5), Fraction(1, 4)),
    ]
    ok = ok and all(alpha_of_group(d) == v for d, v in groups)
    _line(4, ok, "alpha(f^k mod 3)=1/2, alpha(square mod 7)=1/6, all group cases exact")


def test_criterion_5_constants():
    t0 = time.monotonic()
    cu = euler_constant_C({1}, 3, Fraction(1, 2), prime_bound=10**6)
    t_cu = time.monotonic() - t0
    ok_cu = abs(cu.value - 0.2913) <= 5e-4 and cu.tail < 5e-4 and t_cu < 120

    t0 = time.monotonic()
    prof = leading_constants_sf(_delta_form(7, 2), prime_bound=10**6)
    t_sf = time.monotonic() - t0
    ok_sf = abs(prof.c - 0.5976) <= 5e-4 and prof.c_err < 5e-4 and t_sf < 120
    _line(
        5,
        ok_cu and ok_sf,
        f"C(U)={cu.value:.6f} (tail {cu.tail:.1e}, {t_cu:.1f}s), "
        f"c_sf={prof.c:.6f} (err {prof.c_err:.1e}, {t_sf:.1f}s), both within 5e-4",
    )


def test_criterion_6_full_constant_cross_check():
    prof = leading_constants(_delta_form(3, 2), prime_bound=10**6, sfull_bound=10**10)
    cu = euler_constant_C({1}, 3, Fraction(1, 2), prime_bound=10**6)
    pr = primes_upto(10**6).astype(np.float64)
    p1, p2 = pr[pr % 3 == 1], pr[pr % 3 == 2]
    closed = (
        cu.value / 3
        * math.exp(-float(np.sum(np.log1p(-(p1 ** -3.0)))))
        * math.exp(-float(np.sum(np.log1p(-(p2 ** -2.0)))))
    )
    rel = abs(prof.c - closed) / closed
    _line(6, rel < 1e-3, f"c = {prof.c:.8f} vs closed-form {closed:.8f} (rel {rel:.1e} < 1e-3)")


def test_criterion_7_oracle_equivalence():
    start = time.monotonic()
    cases = [("delta", 3, 1), ("delta^2", 3, 2), ("delta^5", 3, 5),
             ("delta", 7, 1), ("delta^2-delta", 7, None), ("delta^2", 7, 2)]
    total_checked = 0
    ok = True
    details = []
    for expr, p, k in cases:
        from modpforms.expr import evaluate, parse_form_expression

        if k is not None:
            f = _delta_form(p, k)
        else:
            f = evaluate(parse_form_expression(expr, p), p, 2000 * 2 + 9)
        comps = oracle_components(f)
        table = coefficient_table(expr, p, 10**4)
        matches, count, mismatches = oracle_check(table, comps, 10**4)
        ok = ok and matches == count and not mismatches
        total_checked += count
        details.append(f"{expr} mod {p}: {matches}/{count}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _line(7, ok, f"{'; '.join(details)}; zero mismatches in {elapsed:.1f}s (<60s)")


def _random_form(rng, p, k, prec):
    dim = dim_level_one(k)
    basis = miller_basis(p, k, prec)
    coords = rng.integers(0, p, size=dim)
    if not coords.any():
        coords[0] = 1
    return GradedForm(from_coordinates(coords, basis, prec), k)


def test_criterion_8_hecke_identities():
    rng = np.random.default_rng(2024)
    ok = True

    checks = 0
    while checks < 100:  # a_1(T_m f) = a_m(f)
        p = int(rng.choice([3, 5, 7]))
        m = int(rng.integers(2, 60))
        if m % p == 0:
            continue
        f = _random_form(rng, p, 24, 2 * m + 10)
        ok = ok and apply_T_m(f, m).series[1] == f.series[m]
        checks += 1

    for _ in range(100):  # multiplicativity on coprime pairs
        p = int(rng.choice([3, 5, 7]))
        pairs = [(2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (4, 5), (5, 7), (4, 9), (8, 3), (9, 2)]
        m, n = pairs[int(rng.integers(0, len(pairs)))]
        if (m * n) % p == 0:
            continue
        f = _random_form(rng, p, 12, m * n * 3 + 8)
        a = apply_T_m(f, m * n)
        b = apply_T_m(apply_T_m(f, m), n)
        ok = ok and a.series == b.series.truncate(a.prec)

    for _ in range(100):  # three-term recurrence at prime powers
        p = int(rng.choice([3, 5, 7]))
        ell = int(rng.choice([q for q in (2, 3, 5) if q != p]))
        f = _random_form(rng, p, 24, ell**3 * 4 + 8)
        s = ell_s_ell(ell, 24, p)
        lhs = apply_T_m(f, ell**3)
        t2 = apply_T_m(f, ell**2)
        rhs = (
            apply_T_ell(t2, ell).series.coeffs.astype(np.int64)
            - s * apply_T_ell(f, ell).series.coeffs[: lhs.prec].astype(np.int64)
        ) % p
        ok = ok and list(lhs.series.coeffs) == list(rhs[: lhs.prec])

    for _ in range(100):  # commutativity
        p = int(rng.choice([3, 5, 7]))
        opts = [q for q in (2, 3, 5, 7, 11) if q != p]
        ell1, ell2 = rng.choice(opts, size=2, replace=False)
        f = _random_form(rng, p, 12, int(ell1) * int(ell2) * 3 + 8)
        ab = apply_T_ell(apply_T_ell(f, int(ell1)), int(ell2))
        ba = apply_T_ell(apply_T_ell(f, int(ell2)), int(ell1))
        ok = ok and ab.series == ba.series

    for _ in range(100):  # the coprime-support projector is idempotent
        p = int(rng.choice([3, 5, 7]))
        s = QSeries(p, rng.integers(0, p, size=64))
        w = apply_W(s)
        ok = ok and apply_W(w) == w

    _line(8, ok, "500 randomized identity checks (5 families x 100) all hold")


def test_criterion_9_squarefree_support():
    ok = True
    found = []
    for p in (3, 7):
        rng = np.random.default_rng(p)
        count = 0
        while count < 20:
            ks = rng.choice(range(1, 8), size=3, replace=False)
            coeffs = rng.integers(0, p, size=3)
            series = linear_combine(
                [(int(c), delta_power(p, int(k), 10**4)) for c, k in zip(coeffs, ks)]
            )
            g = apply_W(series)
            if g.is_zero():
                continue
            idx = np.flatnonzero(g.coeffs)
            sf = [int(n) for n in idx if all(n % (q * q) for q in range(2, int(n**0.5) + 1))]
            ok = ok and bool(sf)
            count += 1
        found.append(count)
    _line(9, ok, f"{found[0]}+{found[1]} random kernel forms all have square-free support < 1e4")


def test_criterion_10_equidistribution(delta7_table_1e6):
    rep7 = equidistribution_report(build_module(_delta_form(7, 1)))
    ok = rep7.eigenform_converse_applies and not rep7.criterion_holds
    ok = ok and rep7.scalar_values == (1, 2, 4)

    for expr, k in [("delta", 1), ("delta^2", 2), ("delta^4", 4), ("delta^5", 5)]:
        rep3 = equidistribution_report(build_module(_delta_form(3, k)))
        ok = ok and rep3.criterion_holds

    rep5 = equidistribution_report(build_module(_delta_form(5, 1)))
    ok = ok and rep5.primitive_root_shortcut and rep5.criterion_holds

    counts = count_pi(delta7_table_1e6, [10**6])
    heavy = sum(counts.per_value[a][0] for a in (1, 2, 4))
    light = sum(counts.per_value[a][0] for a in (3, 5, 6))
    ok = ok and heavy > light
    _line(
        10,
        ok,
        f"mod-7 eigenform NOT equidistributed (values {{1,2,4}}: {heavy} > {{3,5,6}}: {light}); "
        "all sampled mod-3 forms hold; p=5 shortcut fires",
    )


def test_criterion_11_asymptotic_sanity(delta3_table_1e6):
    x = 10**6
    cu = euler_constant_C({1}, 3, Fraction(1, 2), prime_bound=10**6)
    sf = count_pi_sf(delta3_table_1e6, [x])
    ratio = sf.pi_sf[0] * math.sqrt(math.log(x)) / x / cu.value
    per = count_pi(delta3_table_1e6, [x])
    split = per.per_value[1][0] / per.per_value[2][0]
    ok = 0.5 <= ratio <= 2.0 and 0.8 <= split <= 1.25
    _line(
        11,
        ok,
        f"pi_sf(1e6)*sqrt(log x)/x / C(U) = {ratio:.3f} in [0.5, 2.0]; "
        f"value split pi(1)/pi(2) = {split:.3f} in [0.8, 1.25]",
    )
