"""The benchmark's workloads: CLI jobs and the checks on their outputs.

Each job is one ``modpforms`` command line.  Its output is compared, after
the job ends and outside its timing, with values computed by ``refs`` or
with properties the mathematics forces; the large reference tables are
built before the first job.  No check compares against a stored copy of
the program's output.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import refs

DEFAULT_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6)
C_REL_TOL = 1e-4  # Euler products truncated at the same prime bound
SAME_PRODUCT_REL_TOL = 1e-6  # C(U) computed by the same product as the program
HECKE_PREC = 40  # q-expansion coefficients compared; beyond the Sturm bound here


class CheckError(Exception):
    """An output disagrees with its reference."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _close(got, want, rel, what):
    _require(
        isinstance(got, (int, float)) and abs(got - want) <= rel * abs(want),
        f"{what} = {got!r}, reference {want!r} (relative tolerance {rel:g})",
    )


def _fraction(text, what):
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"{what} is not a fraction: {text!r}") from exc


def _units(modulus):
    return [u for u in range(1, modulus) if math.gcd(u, modulus) == 1]


def _is_power_of(n, p):
    while isinstance(n, int) and n > 1 and n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------
# small matrix algebra mod p on nested lists, for properties of module output


def _matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _matvec(v, m, p):
    return tuple(sum(x * y for x, y in zip(v, col)) % p for col in zip(*m))


def _is_nilpotent(m, p):
    power = m
    for _ in range(len(m) - 1):
        power = _matmul(power, m, p)
    return not any(any(row) for row in power)


def _shift(m, lam, p):
    return [[(x - lam * (i == j)) % p for j, x in enumerate(row)] for i, row in enumerate(m)]


def _nilpotence_order(mats, p, dim):
    """Longest chain of the given matrices keeping e_0 nonzero (row vectors)."""
    level = {tuple([1] + [0] * (dim - 1))}
    h = 0
    while True:
        level = {w for v in level for m in mats for w in [_matvec(v, m, p)] if any(w)}
        if not level:
            return h
        h += 1
        _require(h <= dim, "nilpotent chain longer than the module dimension")


def _group_closure(gens, p, dim, cap=10**5):
    eye = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    seen = {eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(map(tuple, _matmul(x, g, p)))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        _require(len(seen) <= cap, "invertible-class group beyond the order cap")
        frontier = nxt
    return seen


def _is_primitive_root(g, p):
    return len({pow(g, i, p) for i in range(1, p)}) == p - 1


def _rank(rows, p):
    rows = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [(x - row[col] * y) % p for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


def _same_linear_relations(coords, series, p):
    """True when some linear map sends each coordinate row to its series row
    and is injective on their span: the rows satisfy the same relations."""
    r = _rank(coords, p)
    return r == _rank(series, p) == _rank([c + s for c, s in zip(coords, series)], p)


# ---------------------------------------------------------------------------
# checks, one per command


def check_count(out, table, p, xmax):
    """Counts at every reported checkpoint against the reference table."""
    points = out["checkpoints"]
    _require(out["p"] == p, "wrong modulus")
    _require(points == sorted(set(points)) and all(3 <= x <= xmax for x in points),
             f"bad checkpoints {points}")
    missing = [x for x in DEFAULT_CHECKPOINTS if x <= xmax and x not in points]
    _require(not missing, f"default checkpoints {missing} not reported")
    want = refs.count_report(table, p, points)
    for key in ("pi", "pi_sf", "per_value"):
        _require(out[key] == want[key], f"{key}: got {out[key]}, reference {want[key]}")


def check_compare_sf(out, table, p, xmax):
    check_count(out, table, p, xmax)
    alpha = refs.alpha_delta(p)
    _require(out["squarefree"] is True, "not the square-free variant")
    _require(_fraction(out["alpha"], "alpha") == alpha, f"alpha {out['alpha']} != {alpha}")
    _require(out["h"] == 0, f"h {out['h']} != 0 for an eigenform")
    nonzero = set(range(1, p)) - refs.zero_set(p)
    c = refs.euler_C(nonzero, p, 1 - alpha)
    _close(out["c"], c, SAME_PRODUCT_REL_TOL, "square-free c")
    for x, pred, ratio, count in zip(out["checkpoints"], out["predicted"], out["ratio"], out["pi_sf"]):
        want = c * x / math.log(x) ** float(alpha)
        _close(pred, want, SAME_PRODUCT_REL_TOL, f"prediction at {x}")
        _close(ratio, count / want, SAME_PRODUCT_REL_TOL, f"ratio at {x}")


def check_oracle(out_text, rc, p, xmax):
    n = sum(1 for i in range(1, xmax) if i % p)
    _require(rc == 0, f"oracle exited {rc}")
    _require(out_text.strip() == f"match: {n}/{n}", f"{out_text.strip()!r} != 'match: {n}/{n}'")


def _check_profile(out, p, alpha, h, squarefree):
    _require(out["p"] == p and out["squarefree"] is squarefree, "wrong job")
    _require(out["degenerate"] is False, "degenerate profile")
    _require(_fraction(out["alpha"], "alpha") == alpha, f"alpha {out['alpha']} != {alpha}")
    if h is not None:
        _require(out["h"] == h, f"h {out['h']} != {h}")
    _require(0 < out["c_err"] < 1e-3 * out["c"], f"c_err {out['c_err']} out of range")
    per_value = out["per_value"]
    _require(sorted(per_value, key=int) == [str(a) for a in range(1, p)], "per-value keys")
    parts = [v for v in per_value.values() if v is not None]
    _require(all(v["h"] <= out["h"] for v in parts), "a per-value h exceeds h")
    top = [v["c"] for v in parts if v["h"] == out["h"]]
    _close(sum(top), out["c"], 1e-9, "sum of the per-value constants")


def check_predict_delta(out, p):
    _check_profile(out, p, refs.alpha_delta(p), 0, False)
    _close(out["c"], refs.delta_constant(p), C_REL_TOL, f"c(Delta mod {p})")


def check_predict_delta2_mod3(out):
    _check_profile(out, 3, refs.H_TABLE_ALPHA, refs.H_TABLE[2], False)
    _close(out["c"], refs.delta2_mod3_constant(), C_REL_TOL, "c(Delta^2 mod 3)")


def check_predict_sf_delta2_mod7(out):
    _check_profile(out, 7, refs.PAPER_ALPHA_DELTA2_MOD7, None, True)
    _require(abs(out["c"] - refs.PAPER_C_SF_DELTA2_MOD7) <= refs.PAPER_TOLERANCE,
             f"c_sf {out['c']} is not the paper's {refs.PAPER_C_SF_DELTA2_MOD7}")


def check_module_delta_mod3(out, k):
    """Module of Delta^k mod 3: every T_l with l = 1 (3) acts as 2 + nilpotent,
    every T_l with l = 2 (3) is nilpotent, the matrices commute, and h is the
    paper's.  h, Gamma and the equidistribution flags are recomputed from
    the reported matrices."""
    p, weight = 3, 12 * k
    _require(out["p"] == p and out["weight"] == weight, "wrong job")
    dim = out["dim"]
    conductor = out["conductor"]
    _require(_is_power_of(conductor, p), f"conductor {conductor} is not a power of {p}")
    classes = {c["class"]: c for c in out["classes"]}
    _require(sorted(classes) == _units(conductor), "classes are not the units mod the conductor")
    _require(out["pure"] is True, "module of Delta^k mod 3 is not pure")
    _require(_fraction(out["alpha"], "alpha") == refs.H_TABLE_ALPHA, "alpha")
    _require(out["h"] == refs.H_TABLE[k], f"h {out['h']} != {refs.H_TABLE[k]}")
    nil, inv = [], []
    for u, c in sorted(classes.items()):
        m = c["matrix"]
        _require(len(m) == dim and all(len(row) == dim for row in m), f"class {u}: shape")
        _require(c["scalar"] == pow(u, weight - 1, p), f"class {u}: scalar")
        if u % p in refs.zero_set(p):
            _require(c["status"] == "nilpotent" and _is_nilpotent(m, p), f"class {u}: not nilpotent")
            nil.append(m)
        else:
            lam = 1 + u % p
            _require(c["status"] == "invertible" and _is_nilpotent(_shift(m, lam, p), p),
                     f"class {u}: not {lam} + nilpotent")
            inv.append(m)
    # row 0 of a class matrix holds the coordinates of T_l f for the primes l
    # in that class; the q-expansions of T_l f must obey the same relations
    reps = {u: refs.prime_in_class(u, conductor) for u in sorted(classes)}
    f = refs.delta_power_mod(k, max(reps.values()) * HECKE_PREC, p)
    coords = [[1] + [0] * (dim - 1)] + [classes[u]["matrix"][0] for u in reps]
    series = [list(f[:HECKE_PREC])] + [
        list(refs.hecke_T(f, ell, weight, p, HECKE_PREC)) for ell in reps.values()
    ]
    _require(_same_linear_relations(coords, series, p),
             "class matrices disagree with T_l on q-expansions")
    mats = nil + inv
    for a in mats:
        for b in mats:
            _require(_matmul(a, b, p) == _matmul(b, a, p), "class matrices do not commute")
    distinct_nil = {tuple(map(tuple, m)) for m in nil}
    _require(_nilpotence_order(distinct_nil, p, dim) == out["h"], "h does not follow from the matrices")
    group = _group_closure(inv, p, dim)
    _require(out["gamma_order"] == len(group), f"gamma_order {out['gamma_order']} != {len(group)}")
    scalars = all(
        tuple(tuple(lam * (i == j) for j in range(dim)) for i in range(dim)) in group
        for lam in range(1, p)
    )
    _require(out["gamma_contains_scalars"] is scalars, "gamma_contains_scalars")
    equi = out["equidistribution"]
    shortcut = _is_primitive_root(2, p)
    _require(equi["primitive_root_shortcut"] is shortcut, "primitive_root_shortcut")
    _require(equi["criterion_holds"] is (scalars or shortcut), "criterion_holds")
    _require(equi["eigenform_converse_applies"] is False or dim == 1, "eigenform converse")


def _check_components(out, p, weight, terms):
    """Components sum to the form's prefix; each alpha is its class density."""
    _require(out["p"] == p and out["weight"] == weight, "wrong job")
    comps = out["components"]
    _require(comps, "no components")
    total = [0] * 16
    for c in comps:
        prefix = c["coeffs_prefix"]
        _require(len(prefix) == 16 and all(0 <= a < p for a in prefix), "component prefix")
        total = [(a + b) % p for a, b in zip(total, prefix)]
        units = _units(c["class_modulus"])
        _require(set(c["nil_classes"]) <= set(units), "nil classes are not units")
        _require(_fraction(c["alpha"], "alpha") == Fraction(len(c["nil_classes"]), len(units)),
                 "alpha is not the nil-class density")
        _require(0 <= c["h"] < c["dim"], "h outside [0, dim)")
    want = refs.form_prefix(terms, p, 16)
    _require(total == want, f"components sum to {total}, reference {want}")
    return comps


def check_decompose_delta_mod3(out, k):
    comps = _check_components(out, 3, 12 * k, [(1, k)])
    _require(len(comps) == 1, "Delta^k mod 3 is pure, so it has one component")
    c = comps[0]
    _require(all(u % 3 == 2 for u in c["nil_classes"])
             and len(c["nil_classes"]) == len(_units(c["class_modulus"])) // 2,
             "nil classes are not the classes of 2 mod 3")
    _require(_fraction(c["alpha"], "alpha") == refs.H_TABLE_ALPHA, "alpha")
    _require(c["h"] == refs.H_TABLE[k], f"h {c['h']} != {refs.H_TABLE[k]}")


def _is_eigen_prefix(a, p, weight):
    """Hecke relations among the first 16 coefficients of an eigenform."""
    n = len(a)
    for m in range(2, n):
        for k in range(2, (n - 1) // m + 1):
            if math.gcd(m, k) == 1 and (a[1] * a[m * k] - a[m] * a[k]) % p:
                return False
    for ell in (2, 3):
        if ell != p and (a[1] * a[ell * ell] - a[ell] ** 2 + pow(ell, weight - 1, p) * a[1] ** 2) % p:
            return False
    return True


def check_decompose_delta2_minus_delta_mod7(out):
    """Delta^2 - Delta mod 7: the Delta eigen-system (alpha 1/2, nil classes
    = zeros of tau mod 7) plus the alpha-1/6 part of Delta^2."""
    p, weight = 7, 24
    comps = _check_components(out, p, weight, [(1, 2), (-1, 1)])
    alphas = sorted(_fraction(c["alpha"], "alpha") for c in comps)
    _require(alphas == sorted([refs.alpha_delta(p), refs.PAPER_ALPHA_DELTA2_MOD7]),
             f"component alphas {alphas}")
    for c in comps:
        _require(c["dim"] == 1 and c["h"] == 0, "components are eigenforms")
        _require(c["class_modulus"] == p, "class modulus")
        a = c["coeffs_prefix"]
        _require(_is_eigen_prefix(a, p, weight), "component prefix breaks the Hecke relations")
        for ell in (2, 3, 5, 11, 13):
            _require((a[ell] == 0) == (ell % p in c["nil_classes"]),
                     f"a_{ell} does not vanish exactly on the nil classes")
        if _fraction(c["alpha"], "alpha") == refs.alpha_delta(p):
            _require(set(c["nil_classes"]) == refs.zero_set(p), "nil classes of the Delta part")


def check_constants_delta_mod3(out):
    p = 3
    _require(out["p"] == p, "wrong job")
    comps = out["components"]
    _require(len(comps) == 1, "Delta mod 3 has one component")
    c = comps[0]
    nonzero = set(range(1, p)) - refs.zero_set(p)
    _require(c["conductor"] == p and c["invertible_classes"] == sorted(nonzero), "classes")
    beta = 1 - refs.alpha_delta(p)
    _require(_fraction(c["beta"], "beta") == beta, "beta")
    _require(c["prime_bound"] == refs.PRIME_BOUND, "prime bound")
    _close(c["value"], refs.euler_C(nonzero, p, beta), SAME_PRODUCT_REL_TOL, "C(U)")
    _require(abs(c["value"] - refs.PAPER_C_U_DELTA_MOD3) <= refs.PAPER_TOLERANCE,
             f"C(U) {c['value']} is not the paper's {refs.PAPER_C_U_DELTA_MOD3}")
    _require(0 < c["tail"] < refs.PAPER_TOLERANCE, "tail")


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Job:
    """One CLI command line, its reference, and the check of its output.

    ``reference(cache)`` runs before any job is timed and returns the
    arguments of ``check`` beyond the output; ``json_out`` says whether the
    output is parsed as JSON first.
    """

    argv: tuple
    check: object
    reference: object = None
    json_out: bool = True

    def expected(self, cache):
        return self.reference(cache) if self.reference else ()

    def verify(self, stdout, rc, expected):
        """Raise CheckError unless the output is right."""
        if not self.json_out:
            return self.check(stdout, rc, *expected)
        _require(rc == 0, f"exit code {rc}")
        try:
            out = json.loads(stdout)
        except ValueError as exc:
            raise CheckError(f"output is not JSON: {stdout[:200]!r}") from exc
        try:
            self.check(out, *expected)
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            raise CheckError(f"malformed output ({exc!r})") from exc


class ReferenceCache:
    """Reference tables, built once per run and shared by the jobs."""

    def __init__(self):
        self._tables = {}

    def table(self, kind, p, n):
        key = (kind, p, n)
        if key not in self._tables:
            if kind == "delta":
                self._tables[key] = refs.tau_mod(n, p)
            elif kind == "theta_delta":
                self._tables[key] = refs.theta_delta_mod(n, p)
            else:
                self._tables[key] = refs.eisenstein_mod(n, {"E4": 4, "E6": 6}[kind], p)
        return self._tables[key]


def _count_job(command, kind, form, p, xmax, check=check_count):
    argv = (command, "--p", str(p), "--form", form, "--xmax", str(xmax))
    if command == "compare":
        argv += ("--squarefree",)
    return Job(argv, check, lambda cache: (cache.table(kind, p, xmax), p, xmax))


def _oracle_job(form, p, xmax):
    argv = ("oracle", "--p", str(p), "--form", form, "--xmax", str(xmax))
    return Job(argv, check_oracle, lambda cache: (p, xmax), json_out=False)


def _job(command, p, form, check, *extra, flags=()):
    return Job((command, "--p", str(p), "--form", form) + tuple(flags), check, lambda cache: extra)


WORKLOADS = {
    # work that grows with x: the large-precision kernels and the oracle
    "scan": [
        _count_job("count", "delta", "delta", 3, 10**6),
        _count_job("count", "delta", "delta", 7, 10**6),
        _count_job("compare", "delta", "delta", 3, 10**6, check=check_compare_sf),
        _count_job("count", "E4", "E4", 7, 10**6),
        _count_job("count", "E6", "E6", 11, 10**6),
        _count_job("count", "theta_delta", "E6*delta", 5, 5 * 10**4),
        _count_job("count", "theta_delta", "E4^2*delta", 7, 5 * 10**4),
        _oracle_job("delta^2", 3, 10**5),
        _oracle_job("delta^2-delta", 7, 10**5),
    ],
    # work that does not depend on x: modules, Euler products, square-full sums
    "profiles": [
        _job("predict", 3, "delta", check_predict_delta, 3),
        _job("predict", 5, "delta", check_predict_delta, 5),
        _job("predict", 7, "delta", check_predict_delta, 7),
        _job("predict", 3, "delta^2", check_predict_delta2_mod3),
        _job("predict", 7, "delta^2", check_predict_sf_delta2_mod7, flags=("--squarefree",)),
        _job("module", 3, "delta^2", check_module_delta_mod3, 2),
        _job("module", 3, "delta^5", check_module_delta_mod3, 5),
        _job("decompose", 7, "delta^2-delta", check_decompose_delta2_minus_delta_mod7),
        _job("constants", 3, "delta", check_constants_delta_mod3),
    ],
    # work that grows with the weight: the paper's h-table
    "h_table": [
        _job("decompose", 3, f"delta^{k}", check_decompose_delta_mod3, k) for k in refs.H_TABLE
    ],
}
