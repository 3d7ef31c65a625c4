"""Densities, Euler-product constants, and assembly of the asymptotic profile.

Every exact density is a Fraction; the real constants carry heuristic
tail estimates (equidistribution of classes is assumed beyond the prime
bound, with a square-root cancellation allowance).  The profile of a form
is assembled bottom-up: reduce to the coprime-support subspace through
the W and U_p operators, split into pure components, and combine each
component's class densities, Euler products and square-full sums.  That
is one function, profile: with_constants=False stops at alpha and h, and
squarefree=True takes C(U) for the square-full sum.  The h-fold
products of nilpotent-class primes behind the per-value constants and
multi_frobenian_density are counted by one level walk over ordered class
tuples (_nilpotent_walk).
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg
from .arith import is_odd_prime_power, primes_upto, totient
from .basis import GradedForm, dim_level_one, miller_basis, to_coordinates
from .errors import BudgetExceededError, InternalInvariantError, ModpFormsError, NotInSpanError
from .hecke import apply_U_m, apply_W
from .module import (
    DEFAULT_SAMPLE_BOUND,
    ClassReport,
    HeckeModule,
    build_module,
    check_sample_bound,
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
# terms per window of the square-full sum: it holds the S^(1/4)-smooth terms
# and O(SFULL_BLOCK) more, whatever the bound S
SFULL_BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# exact densities


def class_density(classes, modulus):
    """|classes| / phi(modulus) for a set of unit residues."""
    classes = set(int(u) % modulus for u in classes)
    bad = sorted(u for u in classes if math.gcd(u, modulus) != 1)
    if bad:
        raise ValueError(f"non-unit classes {bad} mod {modulus}")
    return Fraction(len(classes), totient(modulus))


class _GroupDescriptor(NamedTuple):
    kind: str  # reducible | dihedral | A4 | S4 | A5 | PGL2 | PSL2
    parameter: int


class GroupDescriptor(_GroupDescriptor):
    """Projective image type for the trace-zero proportion calculator."""

    __slots__ = ()
    KINDS = ("reducible", "dihedral", "A4", "S4", "A5", "PGL2", "PSL2")

    def __new__(cls, kind, parameter=0):
        if kind not in cls.KINDS:
            raise ValueError(f"unknown group kind {kind!r}")
        if kind in ("reducible", "dihedral") and parameter < 1:
            raise ValueError(f"{kind} needs a positive order parameter")
        if kind in ("PGL2", "PSL2"):
            if parameter > GROUP_PARAMETER_CAP:
                raise BudgetExceededError(
                    f"{kind} parameter {parameter} exceeds the cap {GROUP_PARAMETER_CAP}"
                )
            if not is_odd_prime_power(parameter):
                raise ValueError(f"{kind} needs an odd prime power, got {parameter}")
        return super().__new__(cls, kind, parameter)


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


def multi_frobenian_density(module, source, target, height):
    """Density of height-h products of nilpotent-class primes mapping source to target.

    Counts the ordered class tuples (u_1, .., u_h) whose matrix product
    sends the source vector to the target, from the last level of the
    nilpotent walk, divided by h! * phi(c)^h.  The walk drops zero images,
    so the tuples reaching zero are all (number of nilpotent classes)^h
    tuples but those reaching a nonzero image.  Needs the class-determined
    action.
    """
    module.require_conductor()
    report = module.report
    if not report.pure:
        raise ValueError("density of a non-pure module is undefined")
    phi = len(report.statuses)
    stack = _nilpotent_stack(module, height)
    vecs, counts = _nilpotent_walk(stack, source, height, module.p)[-1]
    target = np.asarray(target, dtype=np.int64) % module.p
    if target.any():
        hits = int(counts[(vecs == target).all(axis=1)].sum())
    else:
        hits = len(stack) ** height - int(counts[vecs.any(axis=1)].sum())
    return hits / Fraction(math.factorial(height) * phi**height)


def _nilpotent_stack(module, height):
    """The T_l of the nilpotent classes as one array, once the h-fold tuples pass the cap."""
    nil = module.report.nilpotent_classes
    if len(nil) ** height > _ENUM_CAP:
        raise ModpFormsError(
            f"{len(nil)}^{height} nilpotent tuples exceed the enumeration cap"
        )
    mats = [module.prime_power_matrix(u, 1) for u in nil]
    return np.array(mats, dtype=np.int64).reshape(-1, module.dim, module.dim)


def _nilpotent_walk(stack, source, height, p):
    """Levels 0..height: (distinct nonzero images of source, ordered tuples reaching each).

    Level 0 is the source, reached once; level j + 1 multiplies level j
    by every matrix of the stack at once, keeps the nonzero rows distinct
    (np.unique) and sums their counts (np.bincount).  Each tuple is
    multiplied in its own order, so the counts do not assume that the
    matrices commute.
    """
    vecs = np.asarray(source, dtype=np.int64).reshape(1, -1) % p
    levels = [(vecs, np.ones(1, dtype=np.int64))]
    for _ in range(height):
        images = (vecs @ stack % p).reshape(-1, vecs.shape[1])
        live = images.any(axis=1)
        vecs, ids = np.unique(images[live], axis=0, return_inverse=True)
        weights = np.tile(levels[-1][1], len(stack))[live]
        levels.append((vecs, np.bincount(ids.ravel(), weights, len(vecs)).astype(np.int64)))
    return levels


# ---------------------------------------------------------------------------
# Euler products and square-full sums

class EulerConstant(NamedTuple):
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


def _in_classes(pr, u_classes, modulus):
    """Mask of the primes pr that lie in the given classes."""
    # kind="sort" compares against the few classes; "table" would span the modulus
    return np.isin(pr % modulus, [int(u) % modulus for u in u_classes], kind="sort")


def euler_constant_C(u_classes, modulus, beta, prime_bound=DEFAULT_PRIME_BOUND):
    """Truncated Euler product (1/Gamma(beta)) prod w_l with its tail estimate.

    w_l = (1 + 1/l)(1 - 1/l)^beta for primes in the given classes, and
    (1 - 1/l)^beta otherwise.  The tail assumes exact
    class equidistribution beyond the bound (a square-root cancellation
    allowance plus the smooth 1/l^2 integral); it is heuristic, and is
    validated empirically against doubled bounds in the test suite.
    """
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise ValueError("beta must lie strictly between 0 and 1")
    _check_prime_bound(prime_bound)
    pr = primes_upto(prime_bound)
    in_u = _in_classes(pr, u_classes, modulus)
    b = float(beta)
    # log w_l in one array: the in-class log1p(1/l) first, then log1p(-1/l) in place
    x = 1.0 / pr
    gain = np.log1p(x[in_u])
    logw = np.log1p(np.negative(x, out=x), out=x)
    logw *= b
    logw[in_u] += gain
    value = math.exp(float(np.sum(logw))) / math.gamma(b)
    x0 = float(prime_bound)
    tail_log = 1.0 / (math.sqrt(x0) * math.log(x0)) + (1.0 + b) / (x0 * math.log(x0))
    return EulerConstant(value, value * math.expm1(tail_log), beta, prime_bound)


def _ends(keys, base, mult, bound):
    """Per row, the index in keys past its last key k with mult * (k - base) < bound."""
    return np.searchsorted(keys, base + (bound - 1) // mult, side="right")


def _spans(start, end):
    """(row, index in keys) of each key from start to end of every row, row by row."""
    n = end - start
    row = np.repeat(np.arange(len(n)), n)
    return row, np.arange(len(row)) + np.repeat(start - np.cumsum(n) + n, n)


def squarefull_buckets(module, seed, cu, s_bound):
    """Accumulate C(U,s)/s over square-full s <= s_bound, bucketed by the image vector T_s(seed).

    U is the module's invertible classes (module.report), and cu its
    Euler constant C(U).  Skips s divisible by p.  Returns (dict
    image-bytes -> partial sum, dict image-bytes -> vector, tail bound
    2.2 * max C(U,s) / sqrt(s_bound)).

    Each term carries s, its weight C(U,s)/C(U) and the id of its image
    T_s(seed): ids number the distinct nonzero images in the order they
    are found, and the zero image is -1.  Each (class u, e) applies the
    module's prime_power_matrix(u, e) once to the table of distinct
    images (and again to images found later), which gives a lookup
    id -> id; the terms then move by integer gathers, and a term whose
    image turns zero is dropped at once.  Each prime q <= s_bound^(1/4)
    extends, for each e >= 2, every term with s <= s_bound // q^e; a term
    past s_bound // q'^2 for the next prime q' is set aside, since no
    later prime extends it.  These smooth terms are kept as runs sorted by
    s.  A larger prime occurs at most once in s, with e = 2 or 3, so the
    other terms are s * q^e for an open term s (one the small primes left)
    and q^e from one (class, e) group of large primes: one row per group
    and open term whose image stays nonzero and beside which the group's
    smallest q^e fits.

    Both kinds are taken a window of s at a time, in increasing order.
    Run r keeps its s, and group g its q^e, after the offset r or g times
    (s_bound + 1), in one sorted array of keys per kind, so one
    searchsorted per kind counts, for every run or row, its terms below a
    bound.  Each window
    is sized from these counts before any term is built: at most
    SFULL_BLOCK terms, or a single s.  So the smooth terms and one window
    are held, whatever s_bound is.  Every s occurs once (a repeat raises
    InternalInvariantError), so the sort of a window by s need not be
    stable; np.add.at adds the window to the bucket totals in increasing
    s, and the buckets are kept in order of first appearance.  Primes are
    taken in increasing order, so each weight is divided by its factors
    (1 + 1/q) in the same order as a walk over the factors of each s; with
    the summation order, this makes the sums the floats of that walk, bit
    for bit.  The returned vectors are copies, one array each.
    """
    _check_sfull_bound(s_bound)
    p = module.p
    inv_set = set(module.report.invertible_classes)
    primes = primes_upto(math.isqrt(s_bound))
    primes = primes[primes != p]
    classes = module.class_of(primes)
    split = int(np.searchsorted(primes, math.isqrt(math.isqrt(s_bound)), side="right"))

    seed = np.array(seed, dtype=np.int64)
    images = [seed] if seed.any() else []
    id_of = {row.tobytes(): i for i, row in enumerate(images)}
    steps = {}

    def step(u, e):
        """id -> id of the image under T_{l^e}, l in class u, for every image found so far."""
        known = steps.get((u, e), np.zeros(0, dtype=np.int64))
        if len(known) < len(images):
            new = linalg.matvec(np.stack(images[len(known):]), module.prime_power_matrix(u, e), p)
            more = []
            for row in new:
                key = row.tobytes()
                if key not in id_of and row.any():
                    id_of[key] = len(images)
                    images.append(row)
                more.append(id_of.get(key, -1))
            known = steps[u, e] = np.concatenate([known, more]).astype(np.int64)
        return known

    offset = s_bound + 1
    ids = np.zeros(len(images), dtype=np.int64)
    s = np.ones(len(images), dtype=np.int64)
    adjust = np.ones(len(images))
    # runs of terms that no later prime can extend, keyed and sorted as each prime is done
    runs = []

    def set_aside(s, ids, adjust):
        order = np.argsort(s)
        runs.append((len(runs) * offset + s[order], ids[order], adjust[order]))

    # the prime after each small prime; after the last one, s_bound, whose square exceeds every s
    later = primes[1 : split + 1].tolist() + [s_bound]
    for q, u, nxt in zip(primes[:split].tolist(), classes[:split].tolist(), later):
        grown = [(s, ids, adjust)]
        e, qe = 2, q * q
        while qe <= s_bound:
            take = s <= s_bound // qe
            img = step(u, e)[ids[take]]
            live = img >= 0
            weight = adjust[take][live]
            if u in inv_set:
                weight = weight / (1.0 + 1.0 / q)
            grown.append((s[take][live] * qe, img[live], weight))
            e, qe = e + 1, qe * q
        s, ids, adjust = (np.concatenate(parts) for parts in zip(*grown))
        keep = s <= s_bound // (nxt * nxt)
        set_aside(s[~keep], ids[~keep], adjust[~keep])
        s, ids, adjust = s[keep], ids[keep], adjust[keep]

    # the open terms by decreasing s, so that every searchsorted below takes its
    # queries in increasing order
    order = np.argsort(s)[::-1]
    s, ids, adjust = s[order], ids[order], adjust[order]
    keys, divisors = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    rows = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)]
    large, large_classes = primes[split:], classes[split:]
    for u in np.flatnonzero(np.bincount(large_classes)).tolist():
        in_class = large[large_classes == u]
        e = 2
        while int(in_class[0]) ** e <= s_bound:
            in_class = in_class[in_class**e <= s_bound]
            img = step(u, e)[ids]
            live = (img >= 0) & (s <= s_bound // int(in_class[0]) ** e)
            base = (len(keys) - 1) * offset
            keys.append(base + in_class**e)
            # x / 1.0 is x, so the classes without the factor divide by one
            divisors.append(1.0 + 1.0 / in_class if u in inv_set else np.ones(len(in_class)))
            rows.append((np.full(np.count_nonzero(live), base), s[live], img[live], adjust[live]))
            e += 1
    # the large groups are at most the large prime powers, so their keys fit int64
    keys, divisors = np.concatenate(keys), np.concatenate(divisors)
    base, mult, pids, padjust = (np.concatenate(col) for col in zip(*rows))
    start = _ends(keys, base, mult, 1)

    set_aside(s, ids, adjust)
    sbase = np.arange(len(runs)) * offset
    # one column at a time, so the runs are held about once while they are joined
    smooth = [list(col) for col in zip(*runs)]
    runs.clear()
    skeys, sids, sadjust = (np.concatenate(smooth.pop(0)) for _ in range(3))
    sstart = _ends(skeys, sbase, 1, 1)

    total = len(skeys) + int((_ends(keys, base, mult, offset) - start).sum())
    first = np.full(len(images), total)
    totals = np.zeros(len(images))
    # the terms below t grow about as sqrt(t): the first window is guessed from that
    lo, done, width = 1, 0, max(1, s_bound * SFULL_BLOCK**2 // max(total, 1) ** 2)
    while lo < offset:
        hi = min(lo + width, offset)
        while True:
            send, end = _ends(skeys, sbase, 1, hi), _ends(keys, base, mult, hi)
            n = int((send - sstart).sum() + (end - start).sum())
            if n <= SFULL_BLOCK or hi == lo + 1:
                break
            hi = lo + (hi - lo) // 2
        # the terms thin out as s grows, so this width scaled to SFULL_BLOCK
        # terms fills the next window about, but rarely over, full
        width = max(1, (hi - lo) * SFULL_BLOCK // max(n, 1))
        srow, sat = _spans(sstart, send)
        row, at = _spans(start, end)
        ws = np.concatenate([skeys[sat] - sbase[srow], mult[row] * (keys[at] - base[row])])
        order = np.argsort(ws)
        ws = ws[order]
        if (ws[1:] == ws[:-1]).any():
            raise InternalInvariantError("a square-full s occurs twice in the bucket sum")
        wids = np.concatenate([sids[sat], pids[row]])[order]
        wadjust = np.concatenate([sadjust[sat], padjust[row] / divisors[at]])[order]
        np.minimum.at(first, wids, np.arange(done, done + n))
        np.add.at(totals, wids, cu.value * wadjust / ws)
        lo, done, sstart, start = hi, done + n, send, end
    # number the buckets by first appearance, so dict order and sums follow s
    by_first = np.argsort(first)[: int(np.count_nonzero(first < total))]
    sums = {}
    vecs = {}
    for b in by_first.tolist():
        key = images[b].tobytes()
        sums[key] = float(totals[b])
        vecs[key] = images[b].copy()
    return sums, vecs, 2.2 * cu.value / math.sqrt(s_bound)


# ---------------------------------------------------------------------------
# asymptotic profiles


class ValueProfile(NamedTuple):
    h: int
    c: float
    err: float


class AsymptoticProfile(NamedTuple):
    alpha: Fraction
    h: int
    c: float
    c_err: float
    per_value: dict = None  # a -> ValueProfile, or None where a is not attained
    degenerate: bool = False


_DEGENERATE = AsymptoticProfile(
    alpha=Fraction(0), h=0, c=0.0, c_err=0.0, per_value={}, degenerate=True
)


class ComponentProfile(NamedTuple):
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
    """Class report, alpha, h, and (optionally) the leading constants of one pure component.

    One nilpotent walk per square-full bucket gives every height 0..h;
    a_1(x g) = x . (g a_1) over Gamma is one product and the counts per
    value one np.bincount.  Each value takes the highest height attaining it.
    """
    p = module.p
    report = module.report
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

    stack = _nilpotent_stack(module, h)
    cu = part.euler_constant(prime_bound)
    if squarefree:
        sums = {module.f_coords.tobytes(): cu.value}
        vecs = {module.f_coords.tobytes(): module.f_coords}
        sum_tail = 0.0
    else:
        sums, vecs, sum_tail = squarefull_buckets(module, module.f_coords, cu, sfull_bound)
    gamma = gamma_group(module)
    rel_err = cu.tail / cu.value
    phi = len(report.statuses)
    a1 = module.vector_series[:, 1].astype(np.int64)
    orbit_a1 = np.stack([g @ a1 % p for g in gamma.elements], axis=1)

    totals = np.zeros((h + 1, p))
    for key, csum in sums.items():
        for hh, (imgs, n) in enumerate(_nilpotent_walk(stack, vecs[key], h, p)):
            hits = np.bincount((imgs @ orbit_a1 % p).ravel(), np.repeat(n, gamma.order), p)
            totals[hh] += csum * (hits / (math.factorial(hh) * phi**hh)) / gamma.order
    per_value = dict.fromkeys(range(1, p))
    for hh in range(h, -1, -1):
        # every bucket sum is positive, so a value is attained iff its total is
        for a, total in enumerate(totals[hh].tolist()):
            if a and total > 0 and per_value[a] is None:
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
    return part._replace(c=c_total, c_err=c_err, per_value=per_value)


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
        module = build_module(g, sample_bound=sample_bound)
        contributions.append((weight, module_profile(module, **part_kw)))

    live = [(w, pr) for w, pr in contributions if pr is not None]
    if not live:
        raise ValueError("form is constant away from index 0; no profile")
    return _combine_parts(live, p)


class PredictedPoint(NamedTuple):
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
