"""Row reduction and the batched coordinate solve against the routes they replaced."""

import numpy as np
import pytest

from modpforms import linalg
from modpforms.errors import InternalInvariantError
from oracles import rref_row_by_row, solve_in_rowspan


def _independent_rows(rng, k, n, p):
    while True:
        rows = rng.integers(0, p, size=(k, n))
        if len(linalg.rref(rows, p)[1]) == k:
            return rows


class TestSolveRows:
    @pytest.mark.parametrize("p", [3, 7, 251])
    @pytest.mark.parametrize("stack", [1, 40])
    def test_matches_per_row_solve(self, p, stack):
        rng = np.random.default_rng(p * 100 + stack)
        for k, n in [(1, 1), (1, 5), (3, 3), (4, 9), (12, 20)]:
            rows = _independent_rows(rng, k, n, p)
            coeffs = rng.integers(0, p, size=(stack, k))
            images = (coeffs @ rows) % p
            x = linalg.solve_rows(rows, images, p)
            per_row = [solve_in_rowspan(rows, img, p) for img in images]
            assert x.dtype == np.int64
            assert np.array_equal(x, np.stack(per_row))
            assert np.array_equal(x, coeffs)

    @pytest.mark.parametrize("p", [3, 7, 251])
    def test_image_outside_span_is_none(self, p):
        rng = np.random.default_rng(p)
        rows = _independent_rows(rng, 3, 6, p)
        images = (rng.integers(0, p, size=(5, 3)) @ rows) % p
        while True:
            outside = rng.integers(0, p, size=6)
            if solve_in_rowspan(rows, outside, p) is None:
                break
        images[2] = outside
        assert linalg.solve_rows(rows, images, p) is None

    def test_dependent_rows_raise(self):
        rows = np.array([[1, 2, 0], [2, 4, 0]])
        with pytest.raises(InternalInvariantError):
            linalg.solve_rows(rows, rows, 5)


class TestRref:
    @pytest.mark.parametrize("p", [3, 7, 251])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 12), (40, 6), (600, 12)])
    def test_matches_row_by_row(self, p, shape):
        rng = np.random.default_rng(p + shape[0])
        for rank in {1, min(shape) // 2 + 1, min(shape)}:
            left = rng.integers(0, p, size=(shape[0], rank))
            mat = left @ rng.integers(0, p, size=(rank, shape[1]))
            got, pivots = linalg.rref(mat, p)
            want, want_pivots = rref_row_by_row(mat, p)
            assert pivots == want_pivots
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
