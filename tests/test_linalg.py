import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from biconvmf.linalg import SolveError, spd_solve, weighted_gram

finite_floats = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def test_gram_of_orthonormal_columns_is_identity():
    cols = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(weighted_gram(cols), np.eye(2))


def test_gram_of_empty_subset_is_zero():
    np.testing.assert_array_equal(weighted_gram(np.empty((3, 0))), np.zeros((3, 3)))


def test_gram_hand_value():
    # columns (1,2) and (3,4): outer sums to [[10,14],[14,20]]
    cols = np.array([[1.0, 3.0], [2.0, 4.0]])
    np.testing.assert_array_equal(weighted_gram(cols), [[10.0, 14.0], [14.0, 20.0]])


@given(st.lists(st.integers(0, 3), max_size=2).flatmap(
    lambda stack: st.integers(1, 6).flatmap(
        lambda k: st.integers(0, 8).flatmap(
            lambda n: arrays(np.float64, (*stack, k, n), elements=finite_floats)))))
def test_gram_is_bitwise_symmetric(cols):
    gram = weighted_gram(cols)
    assert gram.shape == cols.shape[:-1] + cols.shape[-2:-1]
    assert np.array_equal(gram, gram.swapaxes(-1, -2))


def test_stacked_gram_equals_per_block_grams():
    cols = np.random.default_rng(3).normal(0, 1, (4, 3, 5))
    gram = weighted_gram(cols)
    for block, g in zip(cols, gram):
        np.testing.assert_array_equal(g, weighted_gram(block))


def test_spd_identity():
    np.testing.assert_array_equal(spd_solve(np.eye(3), np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_spd_diagonal():
    x = spd_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-15)


def test_spd_random_residual_bound():
    rng = np.random.default_rng(42)
    for _ in range(20):
        g = rng.normal(0, 1, (5, 5))
        a = weighted_gram(g)  # G G^T, exactly symmetric
        a[np.diag_indices_from(a)] += 1.0
        b = rng.normal(0, 1, 5)
        x = spd_solve(a, b)
        residual = np.abs(a @ x - b).max()
        assert residual <= 1e-8 * (1.0 + np.abs(b).max())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_spd_solve_recovers_known_solution(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 8))
    g = rng.normal(0, 1, (k, k))
    a = weighted_gram(g)  # G G^T, exactly symmetric
    a[np.diag_indices_from(a)] += 1.0
    x_true = rng.normal(0, 1, k)
    x = spd_solve(a, a @ x_true)
    assert np.linalg.norm(x - x_true) <= 1e-8 * max(1.0, np.linalg.norm(x_true))


def test_spd_rejects_asymmetric():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        spd_solve(a, np.array([1.0, 1.0]))


def test_spd_singular_matrix_is_refused():
    a = np.diag([1.0, 0.0, 2.0])
    with pytest.raises(SolveError, match="not positive definite"):
        spd_solve(a, np.array([1.0, 1.0, 1.0]))


def test_spd_negative_definite_is_refused():
    with pytest.raises(SolveError, match="not positive definite"):
        spd_solve(-np.eye(2), np.array([1.0, 1.0]))


def test_spd_rejects_nonfinite():
    a = np.eye(2)
    a[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        spd_solve(a, np.array([1.0, 1.0]))


# ---------------------------------------------------------------- stacks

def spd_stack(seed, n_systems, k):
    rng = np.random.default_rng(seed)
    a = weighted_gram(rng.normal(0, 1, (n_systems, k, k)))
    a[:, np.arange(k), np.arange(k)] += 1.0
    return a, rng.normal(0, 1, (n_systems, k))


def test_stacked_spd_solve_equals_per_system_solves():
    a, b = spd_stack(7, 6, 5)
    x = spd_solve(a, b)
    assert x.shape == (6, 5)
    for a_i, b_i, x_i in zip(a, b, x):
        np.testing.assert_allclose(x_i, spd_solve(a_i, b_i), rtol=0, atol=1e-12)
        np.testing.assert_allclose(x_i, np.linalg.solve(a_i, b_i), rtol=0, atol=1e-12)


def test_empty_stack_solves_to_empty():
    assert spd_solve(np.empty((0, 3, 3)), np.empty((0, 3))).shape == (0, 3)


def test_stack_with_one_non_pd_member_is_refused():
    a, b = spd_stack(8, 5, 4)
    a[3] = np.diag([1.0, 2.0, -1.0, 3.0])
    with pytest.raises(SolveError, match="not positive definite"):
        spd_solve(a, b)


def test_stack_first_failing_member_is_reported():
    a, b = spd_stack(9, 4, 3)
    a[1] = np.diag([1.0, 0.0, 1.0])
    a[2] = np.diag([-1.0, 1.0, 1.0])
    with pytest.raises(SolveError, match="not positive definite"):
        spd_solve(a, b)


def test_stack_with_asymmetric_member_rejected():
    a, b = spd_stack(10, 3, 3)
    a[1, 0, 2] += 1e-3
    with pytest.raises(ValueError, match="not symmetric"):
        spd_solve(a, b)


def test_stack_with_nonfinite_member_rejected():
    a, b = spd_stack(11, 3, 3)
    b[2, 1] = np.inf
    with pytest.raises(SolveError, match="non-finite"):
        spd_solve(a, b)


def test_stack_shape_mismatch_rejected():
    a, b = spd_stack(12, 3, 3)
    with pytest.raises(ValueError, match="does not match"):
        spd_solve(a, b[:2])
