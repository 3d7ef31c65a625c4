"""Densities, Euler-product constants, and assembly of the asymptotic profile.

Every exact density is a Fraction; the real constants carry heuristic
tail estimates (equidistribution of classes is assumed beyond the prime
bound, with a square-root cancellation allowance).  The profile of a form
is assembled bottom-up: reduce to the coprime-support subspace through
the W and U_p operators, split into pure components, and combine each
component's class densities, Euler products and square-full sums.
"""

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from . import linalg
from .arith import factorize, is_odd_prime_power, primes_upto
from .basis import GradedForm, dim_level_one, miller_basis, to_coordinates
from .errors import BudgetExceededError, InternalInvariantError, ModpFormsError, NotInSpanError
from .hecke import apply_U_m, apply_W
from .module import (
    DEFAULT_SAMPLE_BOUND,
    ClassReport,
    HeckeModule,
    build_module,
    check_sample_bound,
    classify_classes,
    decompose,
    gamma_group,
    strict_nilpotence_order,
)

DEFAULT_PRIME_BOUND = 10**6
DEFAULT_SFULL_BOUND = 10**10
PRIME_BOUND_CAP = 10**8
SFULL_BOUND_CAP = 10**12
GROUP_PARAMETER_CAP = 10**12
_CYCLE_PREC_FLOOR = 16
_ENUM_CAP = 10**6


# ---------------------------------------------------------------------------
# exact densities


def class_density(classes, modulus):
    """|classes| / phi(modulus) for a set of unit residues."""
    classes = set(int(u) % modulus for u in classes)
    units = [u for u in range(1, modulus) if math.gcd(u, modulus) == 1]
    bad = classes.difference(units)
    if bad:
        raise ValueError(f"non-unit classes {sorted(bad)} mod {modulus}")
    return Fraction(len(classes), len(units))


@dataclass(frozen=True)
class GroupDescriptor:
    """Projective image type for the trace-zero proportion calculator."""

    kind: str  # reducible | dihedral | A4 | S4 | A5 | PGL2 | PSL2
    parameter: int = 0

    KINDS = ("reducible", "dihedral", "A4", "S4", "A5", "PGL2", "PSL2")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind in ("reducible", "dihedral") and self.parameter < 1:
            raise ValueError(f"{self.kind} needs a positive order parameter")
        if self.kind in ("PGL2", "PSL2"):
            if self.parameter > GROUP_PARAMETER_CAP:
                raise BudgetExceededError(
                    f"{self.kind} parameter {self.parameter} exceeds the cap {GROUP_PARAMETER_CAP}"
                )
            if not is_odd_prime_power(self.parameter):
                raise ValueError(f"{self.kind} needs an odd prime power, got {self.parameter}")


def alpha_of_group(d):
    """Proportion of trace-zero elements for each projective image type."""
    q = d.parameter
    if d.kind == "reducible":
        return Fraction(1, q)
    if d.kind == "dihedral":
        n = q
        return Fraction(1, 2) if n % 2 else Fraction(1, 2) + Fraction(1, 2 * n)
    if d.kind == "A4":
        return Fraction(1, 4)
    if d.kind == "S4":
        return Fraction(3, 8)
    if d.kind == "A5":
        return Fraction(1, 4)
    if d.kind == "PGL2":
        return Fraction(q, (q - 1) * (q + 1))
    # PSL2: depends on whether -1 is a square in F_q, i.e. q mod 4
    return Fraction(1, q - 1) if q % 4 == 1 else Fraction(1, q + 1)


def multi_frobenian_class_density(classes, modulus, height):
    """Density of products of `height` distinct primes drawn from fixed classes.

    The tuple set is all of classes^height, so the density is
    |classes|^h / (h! phi(modulus)^h).
    """
    base = class_density(classes, modulus)
    return base**height / Fraction(math.factorial(height))


def multi_frobenian_density(module, source, target, height):
    """Density of height-h products of nilpotent-class primes mapping source to target.

    Counts ordered class tuples (u_1, .., u_h) whose matrix product sends
    the source vector to the target, divided by h! * phi(c)^h.  Needs the
    class-determined action.
    """
    module.require_conductor()
    report = classify_classes(module)
    if not report.pure:
        raise ValueError("density of a non-pure module is undefined")
    phi = len(report.statuses)
    source = np.asarray(source, dtype=np.int64) % module.p
    target = np.asarray(target, dtype=np.int64) % module.p
    if height == 0:
        return Fraction(1 if (source == target).all() else 0, 1)
    count = 0
    for image, dens in _nilpotent_images(module, source, height).items():
        if image == target.tobytes():
            count += dens
    return count / Fraction(math.factorial(height) * phi**height)


def _nilpotent_images(module, source, height):
    """Map image-vector bytes -> ordered tuple count, over height-fold nilpotent products."""
    nil = classify_classes(module).nilpotent_classes
    if len(nil) ** height > _ENUM_CAP:
        raise ModpFormsError(
            f"{len(nil)}^{height} nilpotent tuples exceed the enumeration cap"
        )
    out = {}
    for multiset in combinations_with_replacement(nil, height):
        v = source
        for u in multiset:
            v = module.apply_class(v, u)
            if not v.any():
                break
        else:
            perms = math.factorial(height)
            for u in set(multiset):
                perms //= math.factorial(multiset.count(u))
            out[v.tobytes()] = out.get(v.tobytes(), 0) + perms
    return out


# ---------------------------------------------------------------------------
# Euler products and square-full sums

@dataclass(frozen=True)
class EulerConstant:
    value: float
    tail: float
    beta: Fraction
    prime_bound: int


def _check_prime_bound(prime_bound):
    if prime_bound < 10**3:
        raise ValueError("prime_bound below 1000 is meaningless here")
    if prime_bound > PRIME_BOUND_CAP:
        raise BudgetExceededError(
            f"prime_bound {prime_bound} exceeds the prime bound cap {PRIME_BOUND_CAP}"
        )


def _check_sfull_bound(s_bound):
    if s_bound < 1:
        raise ValueError(f"sfull_bound must be at least 1, got {s_bound}")
    if s_bound > SFULL_BOUND_CAP:
        raise BudgetExceededError(
            f"sfull_bound {s_bound} exceeds the square-full bound cap {SFULL_BOUND_CAP}"
        )


def euler_constant_C(u_classes, modulus, beta, r=1, prime_bound=DEFAULT_PRIME_BOUND):
    """Truncated Euler product (1/Gamma(beta)) prod w_l with its tail estimate.

    w_l = (1 + 1/l)(1 - 1/l)^beta for primes in the given classes not
    dividing r, and (1 - 1/l)^beta otherwise.  The tail assumes exact
    class equidistribution beyond the bound (a square-root cancellation
    allowance plus the smooth 1/l^2 integral); it is heuristic, and is
    validated empirically against doubled bounds in the test suite.
    """
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise ValueError("beta must lie strictly between 0 and 1")
    _check_prime_bound(prime_bound)
    pr = primes_upto(prime_bound)
    u_arr = np.array(sorted({int(u) % modulus for u in u_classes}), dtype=np.int64)
    in_u = np.isin(pr % modulus, u_arr)
    if r != 1:
        r_primes = np.array([q for q in factorize(r) if q <= prime_bound])
        if len(r_primes):
            in_u &= ~np.isin(pr, r_primes)
    x = 1.0 / pr
    b = float(beta)
    logw = b * np.log1p(-x)
    logw[in_u] += np.log1p(x[in_u])
    value = math.exp(float(np.sum(logw))) / math.gamma(b)
    x0 = float(prime_bound)
    tail_log = 1.0 / (math.sqrt(x0) * math.log(x0)) + (1.0 + b) / (x0 * math.log(x0))
    return EulerConstant(value, value * math.expm1(tail_log), beta, prime_bound)


def squarefull_buckets(module, seed, cu, s_bound, inv_classes):
    """Accumulate C(U,s)/s over square-full s <= s_bound, bucketed by the image vector T_s(seed).

    Skips s divisible by p.  Returns (dict image-bytes -> partial sum,
    dict image-bytes -> vector, tail bound 2.2 * max C(U,s) / sqrt(s_bound)).

    The square-full s are built prime by prime, as parallel arrays of s,
    image rows T_s(seed) and the weight C(U,s)/C(U).  Each prime
    q <= s_bound^(1/4) extends, for each e >= 2, every row with
    s <= s_bound // q^e by one batched product with T_{q^e}, the module's
    prime_power_matrix for q's class.  A larger prime occurs at most once
    in s, with e = 2 or 3, so its terms are taken per (class, e) from the
    rows the small primes built.  An image that turns zero stays zero and
    is dropped at once.  The terms are then summed per bucket in
    increasing s, and the buckets kept in order of first appearance.
    Primes are taken in increasing order, so each weight is divided by its
    factors (1 + 1/q) in the same order as a walk over the factors of each
    s; with the summation order, this makes the sums the floats of that
    walk, bit for bit.
    """
    _check_sfull_bound(s_bound)
    p = module.p
    inv_set = set(inv_classes)
    primes = primes_upto(math.isqrt(s_bound))
    primes = primes[primes != p]
    classes = module.class_of(primes)
    split = int(np.searchsorted(primes, math.isqrt(math.isqrt(s_bound)), side="right"))

    vecs = np.array(seed, dtype=np.int64, ndmin=2)
    vecs = vecs[vecs.any(axis=1)]
    s = np.ones(len(vecs), dtype=np.int64)
    adjust = np.ones(len(vecs))
    for q, u in zip(primes[:split].tolist(), classes[:split].tolist()):
        grown = [(s, vecs, adjust)]
        e, qe = 2, q * q
        while qe <= s_bound:
            take = s <= s_bound // qe
            img = linalg.matvec(vecs[take], module.prime_power_matrix(u, e), p)
            live = img.any(axis=1)
            weight = adjust[take][live]
            if u in inv_set:
                weight = weight / (1.0 + 1.0 / q)
            grown.append((s[take][live] * qe, img[live], weight))
            e, qe = e + 1, qe * q
        s, vecs, adjust = (np.concatenate(parts) for parts in zip(*grown))

    # each term: s, weight, and the index of its image row in `table`
    terms = [(s, adjust, np.arange(len(s)))]
    table = [vecs]
    rows = len(vecs)
    large, large_classes = primes[split:], classes[split:]
    for u in np.unique(large_classes).tolist():
        in_class = large[large_classes == u]
        e = 2
        while int(in_class[0]) ** e <= s_bound:
            in_class = in_class[in_class**e <= s_bound]
            img = linalg.matvec(vecs, module.prime_power_matrix(u, e), p)
            # how many primes of the class fit beside each row
            fits = np.searchsorted(in_class**e, s_bound // s, side="right")
            live = np.flatnonzero(img.any(axis=1) & (fits > 0))
            fits = fits[live]
            pos = np.repeat(np.arange(len(live)), fits)
            row = live[pos]
            qs = in_class[np.arange(len(pos)) - np.repeat(np.cumsum(fits) - fits, fits)]
            weight = adjust[row]
            if u in inv_set:
                weight = weight / (1.0 + 1.0 / qs)
            terms.append((s[row] * qs**e, weight, rows + pos))
            table.append(img[live])
            rows += len(live)
            e += 1
    s, adjust, image = (np.concatenate(parts) for parts in zip(*terms))
    order = np.argsort(s, kind="stable")
    values = cu.value * adjust[order] / s[order]
    distinct, bucket_of_row = np.unique(np.concatenate(table), axis=0, return_inverse=True)
    # NumPy 2.0.0 returns this inverse as a column
    bucket = bucket_of_row.reshape(-1)[image[order]]
    # number the buckets by first appearance, so dict order and sums follow s
    _, first = np.unique(bucket, return_index=True)
    by_first = np.argsort(first)
    rank = np.empty(len(by_first), dtype=np.int64)
    rank[by_first] = np.arange(len(by_first))
    totals = np.bincount(rank[bucket], weights=values, minlength=len(by_first))
    sums = {}
    vecs = {}
    for i, b in enumerate(by_first.tolist()):
        key = distinct[b].tobytes()
        sums[key] = float(totals[i])
        vecs[key] = distinct[b]
    return sums, vecs, 2.2 * cu.value / math.sqrt(s_bound)


def squarefull_sum(module, f_target, s_bound=DEFAULT_SFULL_BOUND, prime_bound=DEFAULT_PRIME_BOUND):
    """Sum of C(U,s)/s over square-full s with T_s f = f_target, plus the tail bound."""
    module.require_conductor()
    report = classify_classes(module)
    if not report.pure:
        raise ValueError("square-full sums require a pure module")
    alpha = class_density(report.nilpotent_classes, report.modulus)
    cu = euler_constant_C(
        report.invertible_classes, report.modulus, 1 - alpha, prime_bound=prime_bound
    )
    sums, _, tail = squarefull_buckets(
        module, module.f_coords, cu, s_bound, report.invertible_classes
    )
    target = (np.asarray(f_target, dtype=np.int64) % module.p).tobytes()
    return sums.get(target, 0.0), tail


# ---------------------------------------------------------------------------
# asymptotic profiles


@dataclass(frozen=True)
class ValueProfile:
    h: int
    c: float
    err: float


@dataclass(frozen=True)
class AsymptoticProfile:
    alpha: Fraction
    h: int
    c: float
    c_err: float
    per_value: dict = field(default_factory=dict)
    degenerate: bool = False


_DEGENERATE = AsymptoticProfile(
    alpha=Fraction(0), h=0, c=0.0, c_err=0.0, per_value={}, degenerate=True
)


@dataclass(frozen=True)
class ComponentProfile:
    """Alpha, h and (when computed) the leading constants of one pure component."""

    alpha: Fraction
    h: int
    c: float
    c_err: float
    per_value: dict
    report: ClassReport
    module: HeckeModule

    def euler_constant(self, prime_bound=DEFAULT_PRIME_BOUND):
        """C(U): the Euler product over the invertible classes at beta = 1 - alpha."""
        self.module.require_conductor()  # C(U) is a product over the conductor classes
        return euler_constant_C(
            self.report.invertible_classes,
            self.report.modulus,
            1 - self.alpha,
            prime_bound=prime_bound,
        )


def _pure_profile(
    module,
    *,
    squarefree=False,
    with_constants=True,
    prime_bound=DEFAULT_PRIME_BOUND,
    sfull_bound=DEFAULT_SFULL_BOUND,
):
    """Class report, alpha, h, and (optionally) the leading constants of one pure component."""
    p = module.p
    report = classify_classes(module)
    if not report.pure:
        raise InternalInvariantError("component is not pure")
    if not report.nilpotent_classes:
        raise ModpFormsError(
            "no nilpotent class: alpha would vanish, contradicting the trace-zero "
            "class forced by complex conjugation; class detection is suspect"
        )
    alpha = class_density(report.nilpotent_classes, report.modulus)
    if not 0 < alpha <= Fraction(3, 4):
        raise ModpFormsError(f"alpha {alpha} out of the admissible range (0, 3/4]")
    h = strict_nilpotence_order(module)
    part = ComponentProfile(alpha, h, 0.0, 0.0, {}, report, module)
    if not with_constants:
        return part

    cu = part.euler_constant(prime_bound)
    if squarefree:
        sums = {module.f_coords.tobytes(): cu.value}
        vecs = {module.f_coords.tobytes(): module.f_coords}
        sum_tail = 0.0
    else:
        sums, vecs, sum_tail = squarefull_buckets(
            module, module.f_coords, cu, sfull_bound, report.invertible_classes
        )
    gamma = gamma_group(module)
    rel_err = cu.tail / cu.value
    phi = len(report.statuses)
    # a_1(x g) = x . (g a_1): one column per element g of Gamma
    a1 = module.vector_series[:, 1].astype(np.int64)
    orbit_a1 = np.stack([g @ a1 % p for g in gamma.elements], axis=1)

    # each value takes the highest height that attains it; a lower height
    # is enumerated only while some value is still unattained
    per_value = dict.fromkeys(range(1, p))
    for hh in range(h, -1, -1):
        if None not in per_value.values():
            break
        denom = math.factorial(hh) * phi**hh
        totals = {}
        for key, csum in sums.items():
            for img_bytes, n in _nilpotent_images(module, vecs[key], hh).items():
                img = np.frombuffer(img_bytes, dtype=np.int64)
                counts = np.bincount(img @ orbit_a1 % p, minlength=p).tolist()
                for a in range(1, p):
                    if counts[a]:
                        share = csum * (n / denom) * counts[a] / gamma.order
                        totals[a] = totals.get(a, 0.0) + share
        for a, total in totals.items():
            if per_value[a] is None:
                per_value[a] = ValueProfile(hh, total, total * rel_err + sum_tail)

    tops = [v for v in per_value.values() if v is not None]
    if not tops:
        raise ModpFormsError("no value is attained; the component seed must be zero")
    h_attained = max(v.h for v in tops)
    if h_attained != h:
        raise InternalInvariantError(
            f"per-value heights reach {h_attained} but the nilpotence order is {h}"
        )
    c_total = sum(v.c for v in tops if v.h == h)
    c_err = sum(v.err for v in tops if v.h == h)
    return replace(part, c=c_total, c_err=c_err, per_value=per_value)


def _combine_parts(parts_with_weights, p):
    """Combine (weight, part) contributions: minimal alpha, then maximal h."""
    live = [(w, pp) for w, pp in parts_with_weights if pp is not None]
    if not live:
        raise ModpFormsError("all contributions vanish; the form looks constant")
    alpha = min(pp.alpha for _, pp in live)
    top = [(w, pp) for w, pp in live if pp.alpha == alpha]
    h = max(pp.h for _, pp in top)
    c = sum(w * pp.c for w, pp in top if pp.h == h)
    c_err = sum(w * pp.c_err for w, pp in top if pp.h == h)
    per_value = {}
    for a in range(1, p):
        entries = [
            (w, pp.per_value[a]) for w, pp in top if pp.per_value.get(a) is not None
        ]
        if not entries:
            per_value[a] = None
            continue
        ha = max(v.h for _, v in entries)
        ca = sum(w * v.c for w, v in entries if v.h == ha)
        ea = sum(w * v.err for w, v in entries if v.h == ha)
        per_value[a] = ValueProfile(ha, ca, ea)
    return AsymptoticProfile(alpha, h, c, c_err, per_value)


def component_profiles(module, **part_kw):
    """The ComponentProfile of each pure component of a built module, in decomposition order.

    The module need not have a class-determined action; only the constant
    evaluation of an individual component insists on it.  part_kw are the
    keywords of _pure_profile.
    """
    return [_pure_profile(part.module, **part_kw) for part in decompose(module)]


def module_profile(module, **part_kw):
    """Profile of the seed of a built module: its component profiles, combined.

    For a coprime-support form f this is profile(f), whose U_p tower is
    just [f, 0].
    """
    profiles = component_profiles(module, **part_kw)
    return _combine_parts([(1.0, pp) for pp in profiles], module.p)


def _lift_weight(series, p, weight):
    """The form's own weight if its graded space contains the series, else the smallest other one.

    Candidates run up to p * weight, and only weights k' = weight mod p - 1
    are tried: nonzero mod-p forms whose weights differ mod p - 1 are
    linearly independent (Serre; Swinnerton-Dyer), so no other weight can
    contain the series.  Each is tested on a prefix longer than the Sturm
    bound of every candidate weight, so a passing prefix fixes the lift;
    the caller's build_module checks the series at full precision.
    """
    cap = p * weight
    candidates = [weight] + [k for k in range(weight % (p - 1), cap + 1, p - 1) if k != weight]
    probe_prec = min(series.prec, max(512, cap // 12 + 2))
    for k in candidates:
        if dim_level_one(k) == 0 or series.prec < dim_level_one(k):
            continue
        try:
            to_coordinates(GradedForm(series.truncate(probe_prec), k), miller_basis(p, k, probe_prec))
            return GradedForm(series, k)
        except NotInSpanError:
            continue
    raise NotInSpanError(f"no weight lift up to {cap} contains the series")


def profile(
    f,
    *,
    squarefree=False,
    with_constants=True,
    prime_bound=DEFAULT_PRIME_BOUND,
    sfull_bound=DEFAULT_SFULL_BOUND,
    sample_bound=DEFAULT_SAMPLE_BOUND,
):
    """Full asymptotic profile of a (not necessarily coprime-support) form.

    Walks the p-power tower U_{p^j}, projecting each layer to coprime
    support with W, until the tower series repeats (always including the
    all-zero cycle); layer j is weighted 1/p^j, and a detected cycle's
    geometric tail is summed in closed form.  The bounds are checked
    before any work, even where the square-free path never reads sfull_bound.
    """
    _check_prime_bound(prime_bound)
    _check_sfull_bound(sfull_bound)
    check_sample_bound(sample_bound)
    part_kw = dict(
        squarefree=squarefree,
        with_constants=with_constants,
        prime_bound=prime_bound,
        sfull_bound=sfull_bound,
    )
    p = f.p
    if f.series.is_zero():
        raise ValueError("the zero form has no asymptotic profile")

    if squarefree:
        support = np.flatnonzero(f.series.coeffs)
        support = support[support > 0]
        if not len(support) or not (support % (p * p) != 0).any():
            return _DEGENERATE
        # the reduction set for square-free counting is just {1, p}
        weighted = [(1.0, apply_W(f.series))]
        if f.prec >= p:
            weighted.append((1.0 / p, apply_W(apply_U_m(f.series, p))))
        elif weighted[0][1].is_zero():
            raise ModpFormsError(
                "precision too small to reach the U_p layer of a p-supported form"
            )
    else:
        tower = [f.series]
        layers = []
        cycle = None  # (start index, period)
        j = 0
        while True:
            u = tower[j]
            layers.append(apply_W(u))
            if u.prec // p < _CYCLE_PREC_FLOOR:
                if not u.is_zero():
                    raise ModpFormsError(
                        "precision exhausted before the U_p tower repeated; "
                        "re-evaluate the form at higher precision"
                    )
                cycle = (j, 1)
                break
            nxt = apply_U_m(u, p)
            j += 1
            for i, prev in enumerate(tower):
                if prev.truncate(nxt.prec) == nxt:
                    cycle = (i, j - i)
                    break
            tower.append(nxt)
            if cycle:
                break
        weighted = []
        for jj, g_series in enumerate(layers):
            weight = float(Fraction(1, p**jj))
            if jj >= cycle[0]:
                # the tower repeats with this period; sum the geometric tail
                weight /= 1.0 - p ** (-cycle[1])
            weighted.append((weight, g_series))

    contributions = []
    for weight, g_series in weighted:
        if g_series.is_zero():
            contributions.append((weight, None))
            continue
        g = _lift_weight(g_series, p, f.weight)
        module = build_module(g, sample_bound=sample_bound, require_conductor=False)
        contributions.append((weight, module_profile(module, **part_kw)))

    live = [(w, pr) for w, pr in contributions if pr is not None]
    if not live:
        raise ValueError("form is constant away from index 0; no profile")
    return _combine_parts(live, p)


def leading_constants(f, **kwargs):
    """Alpha, h, and the leading constant (total and per nonzero value)."""
    return profile(f, squarefree=False, with_constants=True, **kwargs)


def leading_constants_sf(f, **kwargs):
    """Square-free variant of the leading constants (degenerate verdict possible)."""
    return profile(f, squarefree=True, with_constants=True, **kwargs)


def alpha_of_form(f, **kwargs):
    """The exponent of log x alone (skips all constant evaluation)."""
    return profile(f, with_constants=False, **kwargs).alpha


def h_of_form(f, **kwargs):
    """The log log x exponent alone (skips all constant evaluation)."""
    return profile(f, with_constants=False, **kwargs).h


@dataclass(frozen=True)
class PredictedPoint:
    x: float
    value: float
    low: float
    high: float


def predict(prof, x_values):
    """Evaluate c * x / (log x)^alpha * (log log x)^h with the error band."""
    if prof.degenerate:
        raise ValueError("degenerate square-free profile has no prediction")
    out = []
    for x in x_values:
        if x < 3:
            raise ValueError("prediction needs x >= 3")
        scale = x / math.log(x) ** float(prof.alpha) * math.log(math.log(x)) ** prof.h
        out.append(
            PredictedPoint(
                float(x), prof.c * scale, (prof.c - prof.c_err) * scale, (prof.c + prof.c_err) * scale
            )
        )
    return out
