"""Finite Hecke modules of level-one forms over F_p.

The module generated by a form is closed off inside its weight-graded
ambient space and the action of every sampled prime index is stored as a
matrix.  Two layers of congruence structure are then detected:

* the full conductor: a p-power modulus c such that the action matrix
  depends only on the prime's class mod c.  The unit group mod c is
  cyclic and a two-dimensional pseudo-representation trace satisfies
  t(g^{j+1}) = t(g^j) t(g) - d(g) t(g^{j-1}) with t(1) = 2, so one
  sampled prime g whose class generates the units gives the matrix at
  g^j as a block of C^j, for one companion matrix C and j the discrete
  log: O(samples * log phi(c)) products check that these close
  cyclically onto 2*Id and match every sampled prime.  Detection can
  fail honestly: the module then keeps the reason as conductor_failure,
  and require_conductor raises it for every reader of the class data.

* the status modulus: a (usually much smaller) p-power modulus on which
  just the nilpotent / invertible / mixed status is constant.  This is
  determined by the semisimplified eigen-system, hence always a
  congruence datum for the reducible representations in scope, and it is
  what the density exponent needs.  It divides any conductor, and the
  module's class report is this layer lifted to the conductor.

Classification, purity, the strict order of nilpotence, the canonical
pure decomposition and the group of invertible actions sit on top.  The
status of each distinct sampled matrix is found once, with one batched
nilpotency test by repeated squaring and one batched elimination for the
rest.  The same batched elimination finds the eigenvalues behind the
decomposition: on each block, the lambda in F_p for which the restricted
action minus lambda*I is singular.  The order of nilpotence h is the
last j at which the subspace chain W_0 = <f>, W_{j+1} = sum of W_j M
over the distinct nilpotent action matrices M is nonzero: at most dim
row reductions, over the matrices of every nilpotent class when there is
a conductor and over the sampled ones when there is not.  The closure behind
every module basis keeps one reduced echelon form and reduces each new
image against it.

One function, _assemble, turns the q-expansions of the basis vectors and
the per-prime matrices into a module, for build_module and submodule
alike; both put images into module coordinates through one batched solve,
linalg.solve_rows, which also splits the seed over the decomposition's
blocks.  Every class read goes through prime_power_matrix, and only it
reads the detection's lookup.
"""

import functools
import itertools
from typing import NamedTuple

import numpy as np

from . import kernels, linalg
from .arith import discrete_log, multiplicative_order, primes_upto
from .basis import (
    GradedForm,
    dim_level_one,
    miller_basis,
    to_coordinates,
)
from .errors import (
    BudgetExceededError,
    ConductorNotFoundError,
    InternalInvariantError,
    SpanNotClosedError,
    SplittingFieldNeededError,
)
from .hecke import ell_s_ell, t_ell_stack
from .series import QSeries

GENERATOR_BOUND = 50  # the closure runs over the T_l with l at most this
DEFAULT_SAMPLE_BOUND = 2000
DIMENSION_CAP = 64
GAMMA_ORDER_CAP = 100000
# dim x work_prec entries of the ambient basis that build_module expands (one byte
# each, held about three times over); the tests and benchmarks reach 840,189
AMBIENT_CAP = 10**7
MAX_CONDUCTOR_EXPONENT = 4
_SLACK = 8

NILPOTENT = "nilpotent"
INVERTIBLE = "invertible"
MIXED = "mixed"


def _nilpotent(mats, p):
    """Boolean mask of the nilpotent matrices in a list of r x r matrices.

    Squares the whole stack mod p until the exponent reaches r: M^(2^j)
    with 2^j >= r vanishes exactly when M is nilpotent.
    """
    power = np.stack(mats) % p
    exponent = 1
    while exponent < power.shape[1]:
        power = np.matmul(power, power) % p
        exponent *= 2
    return ~power.any(axis=(1, 2))


def _invertible(mats, p):
    """Boolean mask of the invertible matrices in an n x r x r stack.

    One Gaussian elimination mod p runs on the whole stack: column by
    column, each matrix swaps its first row with a nonzero entry in the
    column up and clears the entries below it, scaling by the pivot's
    inverse from a table.  A matrix with no such row is singular; its
    pivot is taken as zero, so its elimination step changes nothing.
    Products of residues stay below p^2 < 2^31, so the entries are int32.
    """
    m = mats.astype(np.int32) % p
    n, r, _ = m.shape
    inverse = _inverse_table(p)
    ok = np.ones(n, dtype=bool)
    stack = np.arange(n)
    for c in range(r):
        nonzero = m[:, c:, c] != 0
        ok &= nonzero.any(axis=1)
        pivot_row = c + nonzero.argmax(axis=1)
        pivot = m[stack, pivot_row]
        m[stack, pivot_row] = m[:, c]
        m[:, c] = pivot
        factors = m[:, c + 1 :, c] * inverse[pivot[:, c]][:, None] % p
        m[:, c + 1 :] = (m[:, c + 1 :] - factors[:, :, None] * pivot[:, None, :]) % p
    return ok


@functools.lru_cache(maxsize=None)
def _inverse_table(p):
    """x^-1 mod p for every residue x, with 0 for 0."""
    return np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int32)


def _statuses(mats, p):
    """NILPOTENT, INVERTIBLE or MIXED for each matrix of a list.

    Each distinct matrix is classified once: nilpotency for all of them in
    one batch, then invertibility for the rest in one batched elimination.
    """
    distinct = _distinct(mats)
    nilpotent = _nilpotent(distinct, p)
    rest = np.stack(distinct)[~nilpotent]
    invertible = iter(_invertible(rest, p))
    status = {
        mat.tobytes(): NILPOTENT if nil else INVERTIBLE if next(invertible) else MIXED
        for mat, nil in zip(distinct, nilpotent)
    }
    return [status[mat.tobytes()] for mat in mats]


class ClassReport(NamedTuple):
    """The status of each unit class mod the conductor (mod the status modulus without
    one), in increasing order: the status of its residue mod the status modulus."""

    modulus: int
    statuses: dict
    nilpotent_classes: tuple
    invertible_classes: tuple
    mixed_classes: tuple
    pure: bool


class HeckeModule:
    """The finite module generated by a form under the prime-index operators.

    Vectors are rows over F_p in the module basis; the q-expansions of the
    basis vectors, stored at build_module's work precision, are the only
    record of that basis (the Miller basis is echelon, so their first
    dim_level_one(weight) columns are the ambient coordinates), and
    vector_to_series reads no further than they reach.  The
    conductor and class_matrix (unit class -> read-only T_l) exist only when
    the sampled action is class-determined, and conductor_failure says why
    they do not; the status structure is always present, and report is
    the status layer lifted to the conductor, built with the module.
    Modules are built by build_module and submodule, which both end in
    _assemble.  Only prime_power_matrix reads the lookup: callers group
    primes with class_of and take T_{l^e} from prime_power_matrix, which
    computes each matrix once.
    """

    def __init__(
        self, p, weight, vector_series, per_prime, conductor, class_matrix,
        conductor_failure, status_modulus, status_by_class, f_coords,
    ):
        # vector_series is r x prec uint8 (rows = module basis), and per_prime maps each
        # sampled prime to its r x r action matrix
        self.p, self.weight, self.vector_series = p, weight, vector_series
        self.per_prime, self.conductor, self.class_matrix = per_prime, conductor, class_matrix
        self.conductor_failure, self.status_modulus = conductor_failure, status_modulus
        self.status_by_class, self.f_coords = status_by_class, f_coords
        self._powers = {}  # (class, e) -> read-only T_{l^e}
        modulus = conductor or status_modulus
        statuses = {u: status_by_class[u % status_modulus] for u in range(1, modulus) if u % p}
        nil, inv, mixed = (
            tuple(u for u in statuses if statuses[u] == s) for s in (NILPOTENT, INVERTIBLE, MIXED)
        )
        self.report = ClassReport(modulus, statuses, nil, inv, mixed, pure=not mixed)

    @property
    def dim(self):
        return self.vector_series.shape[0]

    def require_conductor(self):
        if self.conductor is None:
            raise ConductorNotFoundError(self.conductor_failure)

    def class_of(self, ell):
        """Class of a prime, or the int64 array of classes of an int64 array of primes."""
        self.require_conductor()
        u = ell % self.conductor
        bad = np.flatnonzero(np.atleast_1d(u % self.p) == 0)
        if len(bad):
            raise ConductorNotFoundError(
                f"{np.atleast_1d(ell)[bad[0]]} is not a unit class mod {self.conductor}"
            )
        return u

    def prime_power_matrix(self, u, e):
        """Action of the index-l^e operator for any prime l in class u (read-only, memoized)."""
        self.require_conductor()
        if (u, e) not in self._powers:
            if e == 0:
                mat = linalg.identity(self.dim, self.p)
            elif e == 1:
                mat = self.class_matrix(u)
            else:
                s = ell_s_ell(u, self.weight, self.p)
                a = self.prime_power_matrix(u, 1)
                prev = self.prime_power_matrix(u, e - 2)
                mat = (self.prime_power_matrix(u, e - 1) @ a - s * prev) % self.p
            mat.flags.writeable = False
            self._powers[u, e] = mat
        return self._powers[u, e]

    def nilpotent_matrices(self):
        """Distinct nilpotent action matrices: with a conductor, those of every
        nilpotent class, sampled or not; without one, the sampled ones."""
        if self.conductor is not None:
            return _distinct(self.prime_power_matrix(u, 1) for u in self.report.nilpotent_classes)
        mats = _distinct(self.per_prime.values())
        return [mat for mat, nil in zip(mats, _nilpotent(mats, self.p)) if nil]

    def vector_to_series(self, vec, prec=None):
        """The q-expansion to prec (default: all stored) of the form with coordinates vec."""
        stored = self.vector_series.shape[1]
        prec = stored if prec is None else prec
        if not 1 <= prec <= stored:
            raise ValueError(f"precision {prec} outside the stored precision {stored}")
        return QSeries(self.p, kernels.combine(vec, self.vector_series[:, :prec], self.p))


class GammaGroup(NamedTuple):
    """Multiplicative closure of the invertible class actions."""

    elements: tuple  # int64 matrices
    contains_scalars: bool

    @property
    def order(self):
        return len(self.elements)


class PureComponent(NamedTuple):
    """One pure summand of the canonical decomposition."""

    module: HeckeModule
    nil_classes: frozenset  # status classes of the PARENT acting nilpotently
    coords_in_parent: np.ndarray


class EquidistributionReport(NamedTuple):
    criterion_holds: bool
    eigenform_converse_applies: bool
    primitive_root_shortcut: bool
    gamma_order: int
    gamma_contains_scalars: bool
    scalar_values: tuple


def work_precision(weight, sample_bound=DEFAULT_SAMPLE_BOUND):
    """q-expansion precision at which build_module reads T_l for every sampled l."""
    return sample_bound * max(dim_level_one(weight) - 1, 1) + 1 + _SLACK


def _closure(seed, matrices, p, max_dim):
    """Rows spanning the closure of seed under the matrices, seed first.

    The last row queued is taken first, and its image under each matrix in
    turn is appended and queued when it lies outside the current span;
    raises SpanNotClosedError once the span exceeds max_dim.  The span is
    kept as one reduced echelon form (echelon[:, pivots] is the identity),
    so w reduces to w - w[pivots] @ echelon, which is zero exactly on the
    span, and each appended row adds one reduced row.
    """
    stack = np.stack(matrices)
    rows, queue = [], []
    echelon = np.zeros((0, len(seed)), dtype=np.int64)
    pivots = []
    images = [seed % p]
    while True:
        for w in images:
            red = (w - w[pivots] @ echelon) % p
            if not red.any():
                continue
            rows.append(w)
            queue.append(w)
            if len(rows) > max_dim:
                raise SpanNotClosedError(f"closure exceeded the dimension cap {max_dim}")
            c = int(np.flatnonzero(red)[0])
            red = (red * pow(int(red[c]), p - 2, p)) % p
            echelon = np.vstack([(echelon - np.outer(echelon[:, c], red)) % p, red])
            pivots.append(c)
        if not queue:
            return np.stack(rows)
        images = (queue.pop() @ stack) % p


def check_sample_bound(sample_bound):
    if sample_bound < GENERATOR_BOUND:
        raise ValueError(f"sample_bound must be at least the generator bound {GENERATOR_BOUND}")


def ambient_precision(weight, sample_bound=DEFAULT_SAMPLE_BOUND):
    """build_module's work precision for a weight, once its checks pass.

    Checks the sample bound, then the dim x work-precision entries of the
    ambient basis against AMBIENT_CAP, before anything is evaluated or
    built at that precision.
    """
    check_sample_bound(sample_bound)
    work_prec = work_precision(weight, sample_bound)
    entries = dim_level_one(weight) * work_prec
    if entries > AMBIENT_CAP:
        raise BudgetExceededError(
            f"the weight-{weight} basis at {work_prec} coefficients has {entries} "
            f"entries, above the cap {AMBIENT_CAP}"
        )
    return work_prec


def build_module(f, sample_bound=DEFAULT_SAMPLE_BOUND):
    """Close the span of f under the prime-index operators and detect conductors.

    f must be nonzero and supported on indices coprime to p (apply the W
    projector first).  A module whose sampled action is not
    class-determined is built all the same: the status structure (alpha)
    and the raw matrices (h) need no conductor, and
    module.require_conductor() raises the detection's reason for the rest.
    """
    p, k = f.p, f.weight
    work_prec = ambient_precision(k, sample_bound)
    dim = dim_level_one(k)

    ambient = miller_basis(p, k, work_prec)
    g = GradedForm(f.series.truncate(min(f.prec, work_prec)), k)
    f_amb = to_coordinates(g, ambient).astype(np.int64)
    if not f_amb.any():
        raise ValueError("cannot build the module of the zero form")
    B = ambient.matrix()  # dim x work_prec

    if kernels.combine(f_amb, B[:, ::p], p).any():
        raise ValueError(
            "form has nonzero coefficients at indices divisible by p; "
            "apply the W projector first"
        )

    sampled = [ell for ell in primes_upto(sample_bound).tolist() if ell != p]
    gens = [ell for ell in sampled if ell <= GENERATOR_BOUND]

    gen_mats = t_ell_stack(B, gens, k, dim, p)
    V = _closure(f_amb, gen_mats, p, DIMENSION_CAP)  # r x dim, in ambient coordinates
    S = kernels.combine(V, B, p)

    images = t_ell_stack(S, sampled, k, dim, p).reshape(-1, dim)
    x = linalg.solve_rows(V, images, p)
    if x is None:
        raise InternalInvariantError("a sampled image left the module span")
    per_prime = dict(zip(sampled, _blocks(x, len(sampled))))
    return _assemble(p, k, S, per_prime)


def _assemble(p, weight, vector_series, per_prime):
    """The module on the given basis rows, with the first row as its seed.

    Detects the conductor (keeping the reason when there is none) and then
    the status modulus.
    """
    r = vector_series.shape[0]
    conductor, class_matrix, conductor_failure = _detect_conductor(per_prime, p, weight, r)
    status_modulus, status_by_class = _detect_status(per_prime, p, r)
    f_coords = np.zeros(r, dtype=np.int64)
    f_coords[0] = 1
    return HeckeModule(
        p,
        weight,
        vector_series,
        per_prime,
        conductor,
        class_matrix,
        conductor_failure,
        status_modulus,
        status_by_class,
        f_coords,
    )


def _detect_conductor(per_prime, p, weight, r):
    """Smallest p-power modulus whose classes explain every sampled action matrix.

    Returns (conductor, class lookup, None) or (None, None, the reason).  For
    each p^e, the first sampled prime g whose class generates the (cyclic)
    units seeds the trace recurrence M_{j+1} = T_g M_j - d M_{j-1}, M_0 = 2*Id,
    M_1 = T_g, d = g^(k-1), whose M_j is T at the class g^j (_class_lookup);
    p^e passes when M_phi = 2*Id and every sampled prime matches its class.
    """
    two_id = 2 * linalg.identity(r, p) % p
    failure = None
    for exponent in range(1, MAX_CONDUCTOR_EXPONENT + 1):
        cand = p**exponent
        phi = cand - cand // p
        gen = next((q for q in per_prime if multiplicative_order(q % cand, cand) == phi), None)
        if gen is None:
            failure = f"modulus {cand}: no sampled prime generates the unit classes"
            continue
        closing, lookup = _class_lookup(per_prime[gen], gen % cand, cand, weight, p)
        if (closing != two_id).any():
            failure = (
                f"modulus {cand}: the class table of prime {gen} does not close "
                f"cyclically onto 2*Id"
            )
            continue
        violation = next((q for q, mat in per_prime.items() if (lookup(q) != mat).any()), None)
        if violation is not None:
            failure = (
                f"modulus {cand}: primes {gen} and {violation} give inconsistent "
                f"class actions"
            )
            continue
        return cand, lookup, None
    return None, None, f"no conductor candidate passed ({failure})"


def _class_lookup(t_g, g, modulus, weight, p):
    """(M_phi, class g^j -> read-only M_j, memoized per class), where M_j is the
    lower block of C^j [T_g; 2*Id], C = [[T_g, -d*Id], [Id, 0]]: O(log j) products."""
    r = len(t_g)
    eye = linalg.identity(r, p)
    companion = np.block([[t_g, -ell_s_ell(g, weight, p) * eye], [eye, 0 * eye]]) % p
    start = np.concatenate([t_g, 2 * eye]) % p

    def at_power(j):
        return (linalg.matpow(companion, j, p) @ start % p)[r:]

    @functools.lru_cache(maxsize=None)
    def at_class(u):
        mat = at_power(discrete_log(u, g, modulus))
        mat.flags.writeable = False
        return mat

    return at_power(modulus - modulus // p), lambda u: at_class(u % modulus)


def _detect_status(per_prime, p, r):
    """Smallest p-power modulus with class-constant nilpotent/invertible status.

    Every unit class must carry a sampled prime; the sampled primes exclude
    p, so that holds when they reach phi(modulus) classes.  This is the
    semisimple layer of the action, so it exists (with a small modulus)
    whenever the underlying representations are reducible with p-power
    conductors.
    """
    statuses = dict(zip(per_prime, _statuses(list(per_prime.values()), p)))
    failure = None
    for exponent in range(1, MAX_CONDUCTOR_EXPONENT + 1):
        cand = p**exponent
        by_class = {}
        ok = True
        for ell, st in statuses.items():
            u = ell % cand
            if by_class.setdefault(u, st) != st:
                ok = False
                break
        if not ok:
            failure = f"modulus {cand}: status not constant on classes"
            continue
        if len(by_class) < cand - cand // p:
            missing = (u for u in range(1, cand) if u % p and u not in by_class)
            failure = (
                f"modulus {cand}: classes {list(itertools.islice(missing, 4))} "
                "have no sampled prime"
            )
            continue
        return cand, by_class
    raise ConductorNotFoundError(
        f"no modulus explains the nilpotent/invertible pattern ({failure})"
    )


def strict_nilpotence_order(module):
    """Longest chain of nilpotent-prime actions that keeps the seed nonzero.

    Follows the subspace chain W_0 = <f>, W_{j+1} = sum over the distinct
    nilpotent action matrices M of W_j M, and returns the last j with W_j
    nonzero: the span of the vectors reached by j actions is W_j.  With a
    conductor the matrices are those of every nilpotent class, so a class
    that no sampled prime reaches still counts; without one they are the
    sampled matrices.  The matrices commute, so W_j lies in f I^j for the
    nilpotent algebra I they generate, and f I^j loses a dimension at each
    step until it is zero: h < dim, and a chain still nonzero after dim
    steps is an invariant failure.  The work is at most dim row reductions.
    """
    if not module.report.pure:
        raise ValueError("module is not pure; decompose into pure parts first")
    p, r = module.p, module.dim
    vec = module.f_coords
    if not vec.any():
        raise ValueError("seed vector is zero")
    stack = np.array(module.nilpotent_matrices(), dtype=np.int64).reshape(-1, r, r)
    span = vec.reshape(1, r)
    for h in range(r):
        span = linalg.row_basis((span @ stack).reshape(-1, r), p)
        if not len(span):
            return h
    raise InternalInvariantError("nilpotence chain still nonzero after dim(module) steps")


def gamma_group(module):
    """Closure of the invertible class matrices under multiplication."""
    module.require_conductor()
    p = module.p
    r = module.dim
    mats = [module.prime_power_matrix(u, 1) for u in module.report.invertible_classes]
    gens = list({mat.tobytes(): mat for mat in mats}.values())  # distinct, first seen first
    elements = {linalg.identity(r, p).tobytes(): linalg.identity(r, p)}
    frontier = list(elements.values())
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = linalg.matmul(x, g, p)
                key = y.tobytes()
                if key not in elements:
                    elements[key] = y
                    nxt.append(y)
        if len(elements) > GAMMA_ORDER_CAP:
            raise BudgetExceededError(
                f"the invertible-class group exceeded the order cap {GAMMA_ORDER_CAP}"
            )
        frontier = nxt
    contains = all(
        (lam * linalg.identity(r, p) % p).tobytes() in elements for lam in range(1, p)
    )
    return GammaGroup(tuple(elements.values()), contains)


def _restrict(rows, mats, p):
    """Actions of the matrices on the row space spanned by rows, in the rows basis."""
    x = linalg.solve_rows(rows, np.concatenate([(rows @ mat) % p for mat in mats]), p)
    if x is None:
        raise InternalInvariantError("subspace not stable under the sampled action")
    return _blocks(x, len(mats))


def _blocks(x, count):
    """The count square matrices stacked in the rows of x, as read-only views."""
    mats = x.reshape(count, -1, x.shape[1])
    mats.flags.writeable = False
    return mats


def submodule(parent, vec):
    """The module generated by a vector inside a parent module.

    Closure runs over the parent's sampled matrices; the conductor and
    status structures are re-detected on the restricted action (they can
    be smaller than the parent's, e.g. for an eigenform inside a larger
    module).
    """
    p = parent.p
    W = _closure(vec, _distinct(parent.per_prime.values()), p, parent.dim)  # the cap never binds
    restricted = dict(zip(parent.per_prime, _restrict(W, parent.per_prime.values(), p)))
    series = kernels.combine(W, parent.vector_series, p)
    return _assemble(p, parent.weight, series, restricted)


def _distinct(mats):
    seen = {}
    for m in mats:
        seen.setdefault(m.tobytes(), m)
    return [seen[k] for k in sorted(seen)]


def decompose(module):
    """Canonical decomposition of the module seed into pure components.

    Refines the whole module, one distinct sampled matrix at a time, into
    the generalized eigenspaces of each matrix on each block, recording on
    every block which matrices act with eigenvalue 0.  The final blocks are
    the joint generalized eigenspaces; blocks where the seed projects to
    zero are dropped and the rest grouped by their sets of
    nilpotently-acting status classes.  Raises SplittingFieldNeededError
    when an eigen-system is not rational over F_p.
    """
    if module.report.pure:
        nil_status = frozenset(
            u for u, st in module.status_by_class.items() if st == NILPOTENT
        )
        return [PureComponent(module, nil_status, module.f_coords.copy())]
    blocks = [(linalg.identity(module.dim, module.p), {})]
    for mat in _distinct(module.per_prime.values()):
        blocks = [sub for rows, nil in blocks for sub in _eigenspaces(rows, nil, mat, module.p)]
    return _group_blocks(module, blocks)


def _eigenspaces(rows, nil_by_mat, mat, p):
    """The generalized eigenspaces of mat on the block spanned by rows, as blocks.

    The eigenvalues in F_p are the lambda for which restr - lambda*I is
    singular, found for all p values at once by one batched elimination;
    the eigenspace of lambda is the kernel of (restr - lambda*I)^d on the
    d-dimensional block.  Raises SplittingFieldNeededError when these
    kernels fill less than the block.
    """
    (restr,) = _restrict(rows, [mat], p)
    d = rows.shape[0]
    shifted = (restr - np.arange(p)[:, None, None] * linalg.identity(d, p)) % p
    out = []
    for lam in np.flatnonzero(~_invertible(shifted, p)).tolist():
        sub = (linalg.nullspace(linalg.matpow(shifted[lam], d, p), p) @ rows) % p
        out.append((sub, {**nil_by_mat, mat.tobytes(): lam == 0}))
    rest = d - sum(len(sub) for sub, _ in out)
    if rest:
        raise SplittingFieldNeededError(
            f"a sampled action has irreducible factors of total degree {rest} "
            f"in its characteristic polynomial over F_{p}"
        )
    return out


def _group_blocks(module, blocks):
    p = module.p
    # the blocks are a direct sum of the module, so stacked is square and invertible
    stacked = np.concatenate([rows for rows, _ in blocks])
    x = linalg.solve_rows(stacked, module.f_coords[None], p)
    if x is None:
        raise InternalInvariantError("seed vector escaped the block decomposition")
    # the nilpotent status-class set of each block, validated across samples
    groups = {}
    offset = 0
    for rows, nil_by_mat in blocks:
        d = rows.shape[0]
        part = (x[0, offset : offset + d] @ rows) % p
        offset += d
        if not part.any():
            continue
        flags = {}
        for ell, mat in module.per_prime.items():
            flags.setdefault(ell % module.status_modulus, set()).add(nil_by_mat[mat.tobytes()])
        mixed = [u for u in sorted(flags) if len(flags[u]) != 1]
        if mixed:
            raise ConductorNotFoundError(
                f"status class {mixed[0]} is not nilpotent-consistent on a pure component"
            )
        key = frozenset(u for u, seen in flags.items() if any(seen))
        groups.setdefault(key, np.zeros(module.dim, dtype=np.int64))
        groups[key] = (groups[key] + part) % p
    out = []
    for key in sorted(groups, key=sorted):
        part = groups[key]
        comp = submodule(module, part)
        out.append(PureComponent(comp, key, part))
    return out


def equidistribution_report(module):
    """Sufficient/necessary equidistribution criteria for the values of the module's seed."""
    gamma = gamma_group(module)
    p = module.p
    shortcut = multiplicative_order(2, p) == p - 1
    converse = False
    scalar_values = ()
    if module.dim == 1:
        invertible = module.report.invertible_classes
        scalar_values = tuple(
            sorted({int(module.prime_power_matrix(u, 1)[0, 0]) for u in invertible})
        )
        # on a line, Gamma is the group these scalars generate in F_p^x
        converse = gamma.order < p - 1
    return EquidistributionReport(
        criterion_holds=gamma.contains_scalars or shortcut,
        eigenform_converse_applies=converse,
        primitive_root_shortcut=shortcut,
        gamma_order=gamma.order,
        gamma_contains_scalars=gamma.contains_scalars,
        scalar_values=scalar_values,
    )
