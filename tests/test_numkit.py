import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitnet import numkit
from implicitnet.errors import DimensionMismatchError, SingularMatrixError


def solve_one(a, rhs):
    """Solve one system as a stack of one."""
    return numkit.solve_many(np.asarray(a, dtype=float)[None], np.asarray(rhs, dtype=float)[None])[0]


class TestSolveMany:
    def test_identity(self):
        x = solve_one(np.eye(3), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(x, [1.0, 2.0, 3.0])

    def test_diagonal(self):
        x = solve_one([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        np.testing.assert_allclose(x, [1.0, 2.0], rtol=0, atol=0)

    def test_permutation_needs_pivoting(self):
        # Zero pivot in the (0, 0) slot forces a row swap.
        x = solve_one([[0.0, 1.0], [1.0, 0.0]], [3.0, 5.0])
        np.testing.assert_allclose(x, [5.0, 3.0], rtol=0, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 50))
    def test_residual_bound_well_conditioned(self, seed, n):
        rng = numkit.make_rng(seed)
        # Diagonally dominant, hence well conditioned.
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        rhs = rng.standard_normal(n)
        x = solve_one(a, rhs)
        resid = np.abs(a @ x - rhs).max()
        assert resid <= 1e-10 * (1.0 + np.abs(rhs).max())
        assert np.all(np.isfinite(x))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_one(np.zeros((2, 2)), [1.0, 1.0])
        with pytest.raises(SingularMatrixError):
            solve_one([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            numkit.solve_many(np.ones((1, 2, 3)), np.ones((1, 2)))
        with pytest.raises(DimensionMismatchError):
            numkit.solve_many(np.eye(2)[None], np.ones((1, 3)))
        with pytest.raises(DimensionMismatchError):
            numkit.solve_many(np.eye(2), np.ones(2))

    def test_accepts_nested_lists(self):
        np.testing.assert_array_equal(numkit.solve_many([[[2.0, 0.0], [0.0, 4.0]]], [[2.0, 8.0]]), [[1.0, 2.0]])

    def test_input_not_mutated(self):
        a = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        rhs = np.array([[3.0, 5.0]])
        numkit.solve_many(a, rhs)
        np.testing.assert_array_equal(a, [[[0.0, 1.0], [1.0, 0.0]]])
        np.testing.assert_array_equal(rhs, [[3.0, 5.0]])

    def test_matches_single_solves(self):
        rng = numkit.make_rng(5)
        mats = rng.standard_normal((7, 4, 4)) + 4 * np.eye(4)
        rhs = rng.standard_normal((7, 4))
        sol = numkit.solve_many(mats, rhs)
        assert sol.shape == (7, 4)
        for i in range(7):
            resid = np.abs(mats[i] @ sol[i] - rhs[i]).max()
            assert resid <= 1e-12 * (np.abs(mats[i]).max() * np.abs(sol[i]).max() + np.abs(rhs[i]).max())

    def test_singular_stack_raises(self):
        mats = np.stack([np.eye(2), np.zeros((2, 2))])
        with pytest.raises(SingularMatrixError):
            numkit.solve_many(mats, np.ones((2, 2)))


class TestGlorotUniform:
    def test_bound_unit_scale(self):
        # fan_in = fan_out = 3 gives half-width exactly 1.
        m = numkit.glorot_uniform(numkit.make_rng(0), 3, 3)
        assert m.shape == (3, 3)
        assert np.all(np.abs(m) <= 1.0)

    def test_deterministic_per_seed(self):
        a = numkit.glorot_uniform(numkit.make_rng(42), 4, 6)
        b = numkit.glorot_uniform(numkit.make_rng(42), 4, 6)
        np.testing.assert_array_equal(a, b)

    def test_moments(self):
        s = np.sqrt(6.0 / 10.0)
        rng = numkit.make_rng(7)
        samples = np.concatenate(
            [numkit.glorot_uniform(rng, 5, 5).ravel() for _ in range(400)]
        )
        n = samples.size
        assert n == 10**4
        sigma_mean = s / np.sqrt(3.0 * n)
        assert abs(samples.mean()) <= 3.0 * sigma_mean
        assert np.all(np.abs(samples) <= s)

    def test_bad_fans(self):
        with pytest.raises(ValueError):
            numkit.glorot_uniform(numkit.make_rng(0), 0, 3)


class TestRng:
    def test_stream_equality(self):
        a = numkit.make_rng(123)
        b = numkit.make_rng(123)
        np.testing.assert_array_equal(a.random(10**5), b.random(10**5))

    def test_different_seeds_differ(self):
        assert numkit.make_rng(1).random() != numkit.make_rng(2).random()
