"""The module's subspace chain, batched statuses and incremental closure
against their former routes in tests/oracles.py.

Cases: the 13 forms of the paper's h-table (Delta^7 mod 3 among them, the
module without a conductor), Delta^2 - Delta mod 7 (two pure components),
a synthetic mod-3 module with four joint eigen-systems, and Delta^5 mod 3
at sample bound 50, whose class report holds classes mod 27 that no
sampled prime reaches.  Every call
to module._closure made while building a case, by build_module or by
submodule inside decompose, is recorded and replayed through the oracle.
The conductor detection is replayed the same way, on these cases and on
modules whose detection fails at 5^4, 11^4 and 23^4.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from modpforms import densities, linalg
from modpforms import module as module_mod
from modpforms.errors import (
    ConductorNotFoundError,
    InternalInvariantError,
    SpanNotClosedError,
    SplittingFieldNeededError,
)
from modpforms.expr import evaluate, parse_form_expression
from modpforms.module import (
    HeckeModule,
    _statuses,
    build_module,
    decompose,
    strict_nilpotence_order,
    work_precision,
)
from oracles import (
    class_table_by_recurrence,
    closure_row_basis,
    delta_form,
    invertible_int64,
    nilpotence_order_bfs,
    nilpotent_matrices_per_matrix,
    status_of,
)
from test_acceptance import H_TABLE
from test_edge_paths import _synthetic_module


def _delta_module(k):
    return build_module(delta_form(3, k))


def _two_component_module():
    f = evaluate(parse_form_expression("delta^2-delta"), 7, work_precision(24))
    return build_module(f)


def _four_eigen_systems_module():
    by_class = {1: np.diag([0, 0, 1, 1]), 2: np.diag([0, 1, 0, 1])}
    return _synthetic_module(by_class.get, 3, 4, np.ones(4, dtype=np.int64))


BUILDERS = {f"delta^{k} mod 3": lambda k=k: _delta_module(k) for k in H_TABLE}
BUILDERS["delta^2-delta mod 7"] = _two_component_module
BUILDERS["four eigen-systems mod 3"] = _four_eigen_systems_module
BUILDERS["delta^5 mod 3 at sample bound 50"] = lambda: build_module(
    delta_form(3, 5, 50), sample_bound=50
)
CASES = list(BUILDERS)


@lru_cache(maxsize=None)
def _case(name):
    """(the module, its pure parts, every (arguments, result) of _closure)."""
    calls = []
    closure = module_mod._closure

    def recording(seed, matrices, p, max_dim):
        rows = closure(seed, matrices, p, max_dim)
        calls.append(((seed.copy(), [m.copy() for m in matrices], p, max_dim), rows))
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module_mod, "_closure", recording)
        module = BUILDERS[name]()
        parts = [part.module for part in decompose(module)]
    return module, parts, calls


@pytest.mark.parametrize("name", CASES)
def test_nilpotence_order_matches_search(name):
    _, parts, _ = _case(name)
    for part in parts:
        assert strict_nilpotence_order(part) == nilpotence_order_bfs(part)


@pytest.mark.parametrize("name", CASES)
def test_statuses_match_per_matrix(name):
    module, parts, _ = _case(name)
    for m in [module] + parts:
        mats = list(m.per_prime.values())
        assert _statuses(mats, m.p) == [status_of(mat, m.p) for mat in mats]
        # with a conductor, the classes no sampled prime reaches count too
        assert [mat.tobytes() for mat in m.nilpotent_matrices()] == [
            mat.tobytes() for mat in nilpotent_matrices_per_matrix(m)
        ]
        if m.conductor is not None:
            units = [u for u in range(1, m.conductor) if u % m.p]
            assert m.report.statuses == {
                u: status_of(m.prime_power_matrix(u, 1), m.p) for u in units
            }


@pytest.mark.parametrize("name", CASES)
def test_closure_matches_row_basis_route(name):
    _, _, calls = _case(name)
    assert calls
    for args, rows in calls:
        expected = closure_row_basis(*args)
        assert rows.dtype == expected.dtype
        assert np.array_equal(rows, expected)


def test_cases_cover_every_path():
    # a module without a conductor, splits into several parts, all statuses
    assert _case("delta^7 mod 3")[0].conductor is None
    assert len(_case("delta^2-delta mod 7")[1]) == 2
    assert len(_case("four eigen-systems mod 3")[1]) == 4
    unsampled = _case("delta^5 mod 3 at sample bound 50")[0]
    assert len({q % 27 for q in unsampled.per_prime}) < len(unsampled.report.statuses) == 18
    seen = set()
    for name in CASES:
        module, parts, _ = _case(name)
        for m in [module] + parts:
            seen.update(_statuses(list(m.per_prime.values()), m.p))
    assert seen == {"nilpotent", "invertible", "mixed"}


@pytest.mark.parametrize("seed", range(6))
def test_closure_of_sparse_matrices_matches_row_basis_route(seed):
    # sparse matrices reach the span in several rounds, so the order in
    # which queued rows are expanded shows in the returned basis
    p, r = 5, 7
    rng = np.random.default_rng(seed)
    mats = [rng.integers(0, p, (r, r)) * (rng.random((r, r)) < 0.2) for _ in range(3)]
    vec = np.eye(r, dtype=np.int64)[seed % r]
    rows = module_mod._closure(vec, mats, p, r)
    assert np.array_equal(rows, closure_row_basis(vec, mats, p, r))
    cap = len(rows) - 1
    with pytest.raises(SpanNotClosedError):
        module_mod._closure(vec, mats, p, cap)
    with pytest.raises(SpanNotClosedError):
        closure_row_basis(vec, mats, p, cap)


DETECTION_BUILDERS = {
    **BUILDERS,
    "delta mod 5": lambda: build_module(delta_form(5, 1)),
    "delta mod 7": lambda: build_module(delta_form(7, 1)),
    # predict's modules: Delta has indices divisible by p, so its W-projection is lifted
    "delta mod 11": lambda: densities.profile(delta_form(11, 1), prime_bound=10**4),
    "delta mod 23": lambda: densities.profile(delta_form(23, 1), prime_bound=10**4),
    "delta^6 mod 5": lambda: build_module(delta_form(5, 6)),
    # 4 of the 18 classes mod 27 carry no sampled prime
    "delta^5 mod 3, sample bound 50": lambda: build_module(delta_form(3, 5, 50), 50),
}

# the reasons the parent modules' detection gives, as the CLI prints them
DETECTION_FAILURES = {
    "delta^7 mod 3": "modulus 81: primes 2 and 7 give inconsistent class actions",
    "delta mod 11": "modulus 14641: the class table of prime 2 does not close cyclically onto 2*Id",
    "delta mod 23": "modulus 279841: primes 5 and 2 give inconsistent class actions",
    "delta^6 mod 5": "modulus 625: primes 2 and 3 give inconsistent class actions",
}


@lru_cache(maxsize=None)
def _detections(name):
    """Every (arguments, result) of module._detect_conductor while a case is built and split."""
    calls = []
    detect = module_mod._detect_conductor

    def recording(*args):
        result = detect(*args)
        calls.append((args, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module_mod, "_detect_conductor", recording)
        try:
            module = DETECTION_BUILDERS[name]()
            if isinstance(module, HeckeModule):
                decompose(module)
        except (ConductorNotFoundError, SplittingFieldNeededError):
            pass
    return calls


@pytest.mark.parametrize("name", list(DETECTION_BUILDERS))
def test_conductor_detection_matches_recurrence_table(name):
    calls = _detections(name)
    assert calls
    for args, (conductor, lookup, failure) in calls:
        want_conductor, table, want_failure = class_table_by_recurrence(*args)
        assert (conductor, failure) == (want_conductor, want_failure)
        if conductor is None:
            assert lookup is None
            continue
        for u, mat in table.items():
            got = lookup(u)
            assert got.dtype == mat.dtype and np.array_equal(got, mat)
            assert not got.flags.writeable
    if name in DETECTION_FAILURES:
        failure = f"no conductor candidate passed ({DETECTION_FAILURES[name]})"
        assert failure in [result[2] for _, result in calls]


def test_detection_cases_cover_every_conductor():
    found = {
        result[0] for name in DETECTION_BUILDERS for _, result in _detections(name)
    }
    assert found == {None, 3, 5, 7, 9, 27}


@pytest.mark.parametrize("r", range(1, 10))
def test_single_jordan_block_statuses(r):
    # the shift matrix has nilpotence index exactly r, so squaring must
    # reach an exponent of at least r; adding the identity makes it
    # invertible, and adding diag(0, 1, ..., 1) makes it mixed for r > 1
    p = 5
    shift = np.eye(r, k=1, dtype=np.int64)
    mixed = shift + np.diag([0] + [1] * (r - 1))
    mats = [shift, (shift + np.eye(r, dtype=np.int64)) % p, mixed % p]
    assert _statuses(mats, p) == [status_of(mat, p) for mat in mats]
    assert _statuses(mats, p)[0] == "nilpotent"


@pytest.mark.parametrize("p", [3, 5, 7, 13, 251])
@pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
def test_batched_statuses_on_random_stacks(p, r):
    # random matrices (mostly invertible), rank-one and rank r - 1 products
    # (singular, seldom nilpotent), strictly triangular ones (nilpotent), and
    # the zero and identity matrices, with repeats, in one call
    rng = np.random.default_rng(p * 10 + r)
    mats = [rng.integers(0, p, (r, r)) for _ in range(12)]
    for rank in {1, max(r - 1, 1)}:
        mats += [
            rng.integers(0, p, (r, rank)) @ rng.integers(0, p, (rank, r)) % p for _ in range(8)
        ]
    mats += [np.triu(rng.integers(0, p, (r, r)), 1) for _ in range(3)]
    mats += [np.zeros((r, r), dtype=np.int64), np.eye(r, dtype=np.int64)]
    mats += mats[::5]
    order = rng.permutation(len(mats))
    mats = [mats[i] for i in order]
    expect = [status_of(mat, p) for mat in mats]
    assert _statuses(mats, p) == expect
    if r > 1:
        assert set(expect) == {"nilpotent", "invertible", "mixed"}


def test_int32_elimination_matches_int64_at_p251():
    # the stack _eigenspaces builds for a 64-dim block at p = 251: restr - lambda*I
    # for every lambda, singular exactly at the eigenvalues, the diagonal of t
    p, d = 251, 64
    rng = np.random.default_rng(251)
    q = rng.integers(0, p, (d, d))
    t = np.triu(rng.integers(0, p, (d, d)), 1) + np.diag(rng.integers(0, p, d))
    restr = q @ t % p @ linalg.inverse(q, p) % p
    stack = (restr - np.arange(p)[:, None, None] * linalg.identity(d, p)) % p
    tracemalloc.start()
    try:
        mask = module_mod._invertible(stack, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(mask, invertible_int64(stack, p))
    assert mask.tolist() == [lam not in set(np.diag(t).tolist()) for lam in range(p)]
    # the int64 route peaks at 24.8 MB on this 8.2 MB stack
    assert peak <= 14 * 10**6


class TestBoundedNilpotenceOrder:
    @pytest.mark.parametrize("which", ["identity", "sampled invertible"])
    def test_non_nilpotent_input_raises_within_dim_steps(self, monkeypatch, which):
        module = _case("delta^17 mod 3")[0]
        r, p = module.dim, module.p
        if which == "identity":
            mat = linalg.identity(r, p)
        else:
            mat = next(m for m in module.per_prime.values() if status_of(m, p) == "invertible")
        monkeypatch.setattr(HeckeModule, "nilpotent_matrices", lambda self: [mat])
        steps = []
        row_basis = linalg.row_basis
        monkeypatch.setattr(linalg, "row_basis", lambda *a: steps.append(1) or row_basis(*a))
        with pytest.raises(InternalInvariantError, match="nilpotence chain"):
            strict_nilpotence_order(module)
        assert len(steps) <= r
