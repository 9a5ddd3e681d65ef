"""Numerical kernels checked against independent oracles.

Oracles: direct O(N^2) DFT summation for the FFT, Gaussian elimination with
full pivoting for the Hermitian solve, and a two-sided Jacobi eigensolver on
A^H A (or A A^H) for the singular values.  The production kernels are numpy's
pocketfft and LAPACK; none is ever checked against numpy itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usproc.errors import DimensionMismatchError, SingularMatrixError
from usproc.numerics import fft, solve_hermitian, svd

from oracles import dft_direct, eigvals_jacobi_hermitian, solve_full_pivot


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# FFT


class TestFft:
    def test_impulse_flat_spectrum(self):
        assert np.allclose(fft([1, 0, 0, 0]), np.ones(4), atol=1e-15)

    def test_constant_is_dc_only(self):
        c = 2.5 - 1.0j
        out = fft([c, c, c, c])
        assert np.allclose(out, [4 * c, 0, 0, 0], atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 17, 64, 100])
    def test_matches_direct_dft(self, n):
        rng = np.random.default_rng(n)
        x = rand_complex(rng, n)
        assert np.max(np.abs(fft(x) - dft_direct(x))) \
            <= 1e-12 * max(np.abs(dft_direct(x)).max(), 1.0)
        assert np.max(np.abs(fft(x, inverse=True) - dft_direct(x, inverse=True))) \
            <= 1e-12

    def test_round_trip_length_12(self):
        rng = np.random.default_rng(42)
        x = rand_complex(rng, 12)
        back = fft(fft(x), inverse=True)
        assert np.max(np.abs(back - x)) < 1e-12

    @given(st.integers(min_value=1, max_value=96), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rand_complex(rng, n)
        lhs = np.sum(np.abs(fft(x)) ** 2)
        rhs = n * np.sum(np.abs(x) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1.0)


# ---------------------------------------------------------------------------
# Hermitian solve


class TestSolveHermitian:
    def test_identity(self):
        x = solve_hermitian(np.eye(2), np.array([3.0, 4.0]))
        assert np.allclose(x, [3.0, 4.0], atol=1e-14)

    def test_diagonal(self):
        x = solve_hermitian(np.diag([1.0, 4.0]), np.array([1.0, 1.0]))
        assert np.allclose(x, [1.0, 0.25], atol=1e-14)

    def test_random_pd_matches_full_pivot_oracle(self):
        rng = np.random.default_rng(7)
        m = rand_complex(rng, 6, 6)
        a = m @ m.conj().T + 0.5 * np.eye(6)
        b = rand_complex(rng, 6)
        x = solve_hermitian(a, b)
        assert np.allclose(x, solve_full_pivot(a, b), atol=1e-10)
        resid = np.sqrt(np.sum(np.abs(a @ x - b) ** 2))
        bound = 1e-10 * np.max(np.abs(a)) * max(np.sqrt(np.sum(np.abs(x) ** 2)), 1)
        assert resid <= bound

    def test_loading_equals_shifted_solve(self):
        rng = np.random.default_rng(8)
        m = rand_complex(rng, 5, 5)
        a = m @ m.conj().T
        b = rand_complex(rng, 5)
        loaded = a + 0.37 * np.eye(5)    # loading is the caller's to add
        x = solve_hermitian(loaded, b)
        assert np.allclose(x, solve_full_pivot(loaded, b), atol=1e-12)

    def test_singular_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        with pytest.raises(SingularMatrixError, match="singular-matrix"):
            solve_hermitian(a, np.array([1.0, 0.0]))

    def test_loading_rescues_singular(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        loaded = a + 0.1 * np.eye(2)
        x = solve_hermitian(loaded, np.array([1.0, 1.0]))
        assert np.allclose(loaded @ x, [1.0, 1.0], atol=1e-12)

    @given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_pd_property(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rand_complex(rng, n, n)
        a = m @ m.conj().T + 0.1 * np.eye(n)
        a = 0.5 * (a + a.conj().T)
        b = rand_complex(rng, n)
        x = solve_hermitian(a, b)
        ref = solve_full_pivot(a, b)
        assert np.max(np.abs(x - ref)) \
            <= 1e-9 * max(np.max(np.abs(ref)), 1.0)

    @given(st.integers(2, 8), st.integers(0, 7), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_psd_with_zero_row_is_singular(self, n, k, seed):
        # a PD block with one zero row and column inserted: the Cholesky
        # pivot of that row is exactly 0, so the unloaded solve must fail
        rng = np.random.default_rng(seed)
        k %= n
        m = rand_complex(rng, n - 1, n - 1)
        a = np.zeros((n, n), dtype=np.complex128)
        keep = np.delete(np.arange(n), k)
        a[np.ix_(keep, keep)] = m @ m.conj().T + np.eye(n - 1)
        with pytest.raises(SingularMatrixError, match="singular-matrix"):
            solve_hermitian(a, rand_complex(rng, n))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            solve_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]),
                            np.array([1.0, 1.0]))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_per_matrix_oracle(self, batch, n, seed):
        rng = np.random.default_rng(seed)
        m = rand_complex(rng, batch, n, n)
        a = m @ np.conj(np.swapaxes(m, 1, 2)) + 0.1 * np.eye(n)
        a = 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))
        a *= np.exp(rng.uniform(-8, 8, (batch, 1, 1)))  # scales far apart
        b = rand_complex(rng, batch, n)
        x = solve_hermitian(a, b)
        assert x.shape == (batch, n)
        for i in range(batch):
            ref = solve_full_pivot(a[i], b[i])
            assert np.max(np.abs(x[i] - ref)) <= 1e-9 * max(np.max(np.abs(ref)), 1.0)

    def test_stack_with_one_singular_matrix_raises(self):
        a = np.stack([np.eye(3), np.ones((3, 3)), 2.0 * np.eye(3)])
        with pytest.raises(SingularMatrixError, match="singular-matrix"):
            solve_hermitian(a, np.ones((3, 3)))

    def test_stack_symmetry_scale_is_per_matrix(self):
        # 0.5 of asymmetry is far below 1e-10 of the big matrix's scale, so
        # a scale shared across the stack would let the small matrix pass
        small = np.array([[1.0, 0.5], [0.0, 1.0]])
        big = 1e12 * np.eye(2)
        with pytest.raises(ValueError, match="not Hermitian"):
            solve_hermitian(np.stack([small, big]), np.ones((2, 2)))
        x = solve_hermitian(np.stack([np.eye(2), big]), np.ones((2, 2)))
        assert np.allclose(x, [[1.0, 1.0], [1e-12, 1e-12]], rtol=1e-14, atol=0)

    def test_stack_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="dimension-mismatch"):
            solve_hermitian(np.stack([np.eye(2)] * 3), np.ones((2, 2)))

    def test_real_system_solved_in_float64(self):
        # the oracle is the same solve on the same data cast to complex128
        rng = np.random.default_rng(15)
        m = rng.standard_normal((4, 5, 5))
        a = m @ np.swapaxes(m, 1, 2) + 0.1 * np.eye(5)
        a = 0.5 * (a + np.swapaxes(a, 1, 2))
        b = rng.standard_normal((4, 5))
        a = a + 0.2 * np.eye(5)
        x = solve_hermitian(a, b)
        ref = solve_hermitian(a.astype(complex), b.astype(complex))
        assert x.dtype == np.float64 and ref.dtype == np.complex128
        assert np.max(np.abs(ref.imag)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        # one complex operand makes the whole solve complex
        assert solve_hermitian(a, b + 0j).dtype == np.complex128
        assert solve_hermitian(a + 0j, b).dtype == np.complex128


# ---------------------------------------------------------------------------
# SVD


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([5.0, 1.0]))
        assert np.allclose(res.singular_values, [5.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        res = svd(np.zeros((3, 4)))
        assert np.array_equal(res.singular_values, np.zeros(3))
        assert np.allclose(res.u.conj().T @ res.u, np.eye(3), atol=1e-12)

    def test_random_reconstruction_and_eig_oracle(self):
        rng = np.random.default_rng(5)
        a = rand_complex(rng, 8, 5)
        res = svd(a)
        fro = np.sqrt(np.sum(np.abs(a) ** 2))
        assert np.sqrt(np.sum(np.abs(res.compose() - a) ** 2)) <= 1e-10 * fro
        lam = eigvals_jacobi_hermitian(a.conj().T @ a)
        assert np.allclose(res.singular_values,
                           np.sqrt(np.clip(lam, 0.0, None)), atol=1e-9)

    def test_wide_matrix(self):
        rng = np.random.default_rng(6)
        a = rand_complex(rng, 4, 9)
        res = svd(a)
        assert res.u.shape == (4, 4) and res.v.shape == (9, 4)
        assert np.sqrt(np.sum(np.abs(res.compose() - a) ** 2)) \
            <= 1e-10 * np.sqrt(np.sum(np.abs(a) ** 2))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 4))
        s1 = svd(a).singular_values
        rowp = rng.permutation(6)
        colp = rng.permutation(4)
        s2 = svd(a[rowp][:, colp]).singular_values
        assert np.allclose(s1, s2, atol=1e-10 * max(s1.max(), 1.0))

    def test_rank_one(self):
        u = np.arange(1.0, 8.0)
        v = np.array([2.0, -1.0, 0.5])
        res = svd(np.outer(u, v))
        expected = np.sqrt(np.sum(u ** 2) * np.sum(v ** 2))
        assert np.allclose(res.singular_values,
                           [expected, 0.0, 0.0], atol=1e-10 * expected)
        assert np.allclose(res.u.conj().T @ res.u, np.eye(3), atol=1e-10)

    def test_real_matrix_has_real_factors(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((9, 4))
        res, ref = svd(a), svd(a.astype(complex))
        assert res.u.dtype == res.v.dtype == np.float64
        assert ref.u.dtype == ref.v.dtype == np.complex128
        scale = ref.singular_values[0]
        assert np.max(np.abs(res.singular_values - ref.singular_values)) \
            <= 1e-12 * scale
        assert np.max(np.abs(res.compose() - a)) <= 1e-12 * scale

    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 7),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_eig_oracle_on_random_shapes(self, rows, cols, rank, seed):
        # tall, wide and square shapes; rank < min(rows, cols) makes the
        # matrix rank-deficient (rank 0 is the zero matrix)
        rng = np.random.default_rng(seed)
        r = min(rows, cols)
        rank = min(rank, r)
        a = rand_complex(rng, rows, rank) @ rand_complex(rng, rank, cols)
        res = svd(a)
        assert res.u.shape == (rows, r) and res.v.shape == (cols, r)
        for q in (res.u, res.v):
            assert np.max(np.abs(q.conj().T @ q - np.eye(r))) <= 1e-10
        gram = a.conj().T @ a if rows >= cols else a @ a.conj().T
        lam = eigvals_jacobi_hermitian(gram)
        scale = max(float(lam[0]), 1.0)
        assert np.max(np.abs(res.singular_values ** 2 - lam)) <= 1e-10 * scale
        assert np.all(res.singular_values[rank:] <= 1e-6 * np.sqrt(scale))
        fro = np.sqrt(np.sum(np.abs(a) ** 2))
        assert np.sqrt(np.sum(np.abs(res.compose() - a) ** 2)) <= 1e-10 * max(fro, 1.0)
