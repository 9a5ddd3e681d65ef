"""Soft thresholding, ISTA optimality, scanline recovery, deconvolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_norm, fista_single, soft_threshold_real, soft_threshold_where

from usproc import numerics
from usproc.errors import AdjointMismatchError, DimensionMismatchError, StepTooLargeError
from usproc.numerics import rose
from usproc.sparse import (
    Conv2Same,
    ScanlineModel,
    SparseProblem,
    deconvolve,
    ista,
    recover_scanline,
    soft_threshold,
)


def matrix_problem(a, y, lam, **kw):
    """The problem of the matrix ``a``, with its spectral norm unless ``norm``
    is given."""
    a = np.asarray(a, dtype=np.complex128)
    kw.setdefault("norm", np.linalg.norm(a, 2))
    return SparseProblem(lambda v: a @ v, lambda r: a.conj().T @ r, y, lam, **kw)


def kkt_residual(a, y, x, lam):
    """Max violation of the lasso subgradient conditions (0.5||.||^2 form)."""
    g = a.conj().T @ (np.asarray(y, complex) - a @ x)
    res = 0.0
    for i in range(x.size):
        if abs(x[i]) > 1e-12:
            res = max(res, abs(g[i] - lam * x[i] / abs(x[i])))
        else:
            res = max(res, max(abs(g[i]) - lam, 0.0))
    return res


class TestSoftThreshold:
    def test_shrink(self):
        assert soft_threshold(np.array([3.0]), 1.0)[0] == pytest.approx(2.0)

    def test_kill_below_threshold(self):
        assert soft_threshold(np.array([-0.5]), 1.0)[0] == 0.0

    def test_sign_preserved(self):
        assert soft_threshold(np.array([-3.0]), 1.0)[0] == pytest.approx(-2.0)

    @pytest.mark.parametrize("lam", [-1.0, np.nan])
    def test_bad_threshold_rejected(self, lam):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            soft_threshold(np.ones(3), lam)

    def test_complex_magnitude_shrink(self):
        z = np.array([3.0 + 4.0j])
        out = soft_threshold(z, 2.5)
        assert np.abs(out[0]) == pytest.approx(2.5)
        assert np.angle(out[0]) == pytest.approx(np.angle(z[0]))

    @given(st.integers(1, 12), st.floats(0.0, 4.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_contraction(self, n, lam, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.sqrt(np.sum(np.abs(soft_threshold(a, lam)
                                    - soft_threshold(b, lam)) ** 2))
        rhs = np.sqrt(np.sum(np.abs(a - b) ** 2))
        assert lhs <= rhs + 1e-12


def bits(a):
    """The raw bits of a float64 or complex128 array, for exact comparison."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestSoftThresholdAgainstOracle:
    """The threshold against independent ``np.where`` forms, bit for bit.
    Complex: without the ``np.where(|x| > 0, ..., 0)`` branch against the
    form with it; where |x| = 0, x is +-0 and x * scale keeps those bits for
    any lam >= 0.  Real: x - clip(x, -lam, lam) against
    np.where(|x| > lam, x - copysign(lam, x), 0), which kills to +0."""

    REAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-310, -2.5, 0.25, 3.0]
    COMPLEX = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
               complex(np.nan, 0.0), complex(np.inf, 1.0), complex(-np.inf, 0.0),
               3 + 4j, -0.1j]

    @pytest.mark.parametrize("values", [REAL, COMPLEX])
    @pytest.mark.parametrize("lam", [0.0, 1e-320, 0.7, 1e300, np.inf])
    def test_bits_match_where_form(self, values, lam):
        x = np.array(values)
        oracle = soft_threshold_where if np.iscomplexobj(x) else soft_threshold_real
        with np.errstate(all="ignore"):
            got, ref = soft_threshold(x, lam), oracle(x, lam)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(bits(got[~nan]), bits(ref[~nan]))

    def test_zero_lambda_is_identity_on_signed_zeros(self):
        # nonzero reals keep their bits; a real zero of either sign is +0
        x = np.array([0.0, -0.0, 1.5, -2.0])
        ref = soft_threshold_real(x, 0.0)
        assert np.array_equal(bits(soft_threshold(x, 0.0)), bits(ref))


def row_maps(a):
    """Maps of the matrix ``a`` that take a vector or a stack of rows and
    treat every row as they treat a vector alone."""
    a_h = a.conj().T
    return (lambda v: (a @ v[..., None])[..., 0],
            lambda r: (a_h @ r[..., None])[..., 0])


class TestBatchedIsta:
    """Stacks of problems against the one-problem reference, row by row."""

    @staticmethod
    def stack(seed, rows, m, n, complex_=False):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        truth = np.zeros((rows, n))
        for r in range(rows):
            truth[r, rng.choice(n, 3, replace=False)] = rng.standard_normal(3)
        if complex_:
            a = a + 1j * rng.standard_normal((m, n))
        y = truth @ a.T + 0.01 * rng.standard_normal((rows, m))
        y[rows // 2] = 0.0           # one all-zero row: it stops at once
        return a, y

    def check_rows(self, a, y, lam, real, **kw):
        forward, adjoint = row_maps(a)
        kw.setdefault("norm", np.linalg.norm(a, 2))
        x, iters, obj = ista(SparseProblem(forward, adjoint, y, lam, real=real, **kw))
        lams = np.broadcast_to(lam, y.shape[:1])
        counts = []
        for r in range(y.shape[0]):
            x_r, it_r, obj_r = fista_single(forward, adjoint, y[r], float(lams[r]),
                                            real=real, **kw)
            assert np.array_equal(bits(x[r]), bits(x_r)), f"row {r}"
            assert obj[r] == obj_r
            counts.append(it_r)
        assert type(iters) is int and iters == max(counts)
        assert x.shape == (y.shape[0], a.shape[1]) and obj.shape == y.shape[:1]
        return counts

    def test_real_rows_per_row_lambda_own_step(self):
        a, y = self.stack(30, 5, 10, 24)
        lam = 0.02 * np.max(np.abs(y @ a), axis=1) + np.array([0, 0, 0.1, 0, 0])
        counts = self.check_rows(a, y, lam, True, max_iters=3000, tol=1e-7)
        assert counts[2] == 1 and len(set(counts)) >= 3   # rows stop apart

    def test_complex_rows_given_step(self):
        a, y = self.stack(31, 4, 8, 20, complex_=True)
        counts = self.check_rows(a, y, 0.05, False, max_iters=2000, tol=1e-6)
        assert len(set(counts)) >= 3

    def test_rows_at_the_cap_and_before(self):
        a, y = self.stack(32, 6, 12, 30)
        counts = self.check_rows(a, y, 0.01, True, max_iters=150, tol=1e-4)
        assert 150 in counts and min(counts) < 150

    @pytest.mark.parametrize("seed,complex_", [(34, False), (35, True)])
    def test_rows_restarting_apart_keep_their_bits(self, monkeypatch, seed, complex_):
        # the rows whose accelerated step the restart rule redoes, per call
        log = []

        def recording(*args):
            out = rose(*args)
            log.append(np.flatnonzero(out))
            return out

        monkeypatch.setattr(numerics, "rose", recording)
        a, y = self.stack(seed, 5, 10, 24, complex_=complex_)
        lam = 0.02 * np.max(np.abs(y @ a.conj()), axis=1)
        self.check_rows(a, y, lam, not complex_, max_iters=300, tol=1e-12)
        restarts = [r for r in log if r.size]
        # several restarts, one row at a time, by at least three rows
        assert len(restarts) >= 5 and all(r.size == 1 for r in restarts)
        assert len({int(r[0]) for r in restarts}) >= 3

    def test_all_rows_zero(self):
        forward, adjoint = row_maps(np.eye(3) + 0.5)
        x, iters, obj = ista(SparseProblem(forward, adjoint, np.zeros((2, 3)),
                                           [0.0, 0.4], 2.5, real=True))
        assert iters == 1 and not np.any(x) and list(obj) == [0.0, 0.0]

    def test_zero_operator_stack(self):
        zero = (lambda v: 0.0 * v, lambda r: 0.0 * r)
        x, iters, obj = ista(SparseProblem(*zero, np.ones((2, 3)), 0.1, 0.0, real=True))
        assert x.shape == (2, 3) and not np.any(x) and iters == 0
        assert list(obj) == [1.5, 1.5]

    @pytest.mark.parametrize("complex_", [False, True])
    def test_one_problem_matches_reference(self, complex_):
        a, y = self.stack(33, 3, 9, 16, complex_=complex_)
        forward, adjoint = row_maps(a)
        for norm in (np.linalg.norm(a, 2), 1.4 * np.linalg.norm(a, 2)):
            x, iters, obj = ista(SparseProblem(forward, adjoint, y[0], 0.03, norm,
                                               real=not complex_,
                                               max_iters=900, tol=1e-9))
            x_r, it_r, obj_r = fista_single(forward, adjoint, y[0], 0.03, norm,
                                            real=not complex_, max_iters=900, tol=1e-9)
            assert np.array_equal(bits(x), bits(x_r))
            assert (iters, obj) == (it_r, obj_r)

    def test_one_problem_returns_python_scalars(self):
        forward, adjoint = row_maps(np.eye(3) + 0.5)
        x, iters, obj = ista(SparseProblem(forward, adjoint, np.ones(3), 0.1, 2.5))
        assert x.shape == (3,) and type(iters) is int and type(obj) is float

    def test_step_too_large_names_the_row(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6)) + np.eye(6) * 2
        y = np.stack([np.zeros(6), rng.standard_normal(6)])
        # a norm a tenth of ||A||: a step about 100 / ||A||^2
        with pytest.raises(StepTooLargeError, match=r"step-too-large: .* in row 1 "):
            ista(SparseProblem(*row_maps(a), y, 0.01, np.linalg.norm(a, 2) / 10))

    @pytest.mark.parametrize("lam", [[0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]])
    def test_lambda_per_row_shape_checked(self, lam):
        with pytest.raises(DimensionMismatchError, match="lambda"):
            SparseProblem(*row_maps(np.eye(2)), np.ones((2, 2)), lam, 1.0)

    def test_lambda_array_on_one_problem_rejected(self):
        with pytest.raises(DimensionMismatchError, match="lambda"):
            SparseProblem(*row_maps(np.eye(2)), np.ones(2), [0.1, 0.2], 1.0)

    def test_negative_row_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda must be >= 0"):
            SparseProblem(*row_maps(np.eye(2)), np.ones((2, 2)), [0.1, -1.0], 1.0)

    @pytest.mark.parametrize("y", [np.ones((2, 2, 2)), np.ones((0, 2))])
    def test_stack_shape_checked(self, y):
        with pytest.raises(DimensionMismatchError, match="stack"):
            SparseProblem(*row_maps(np.eye(2)), y, 0.1, 1.0)


class TestIsta:
    def test_identity_shrinks_by_lambda(self):
        x, iters, obj = ista(matrix_problem(np.eye(1), np.array([3.0]), 1.0))
        assert x[0].real == pytest.approx(2.0, abs=1e-6)
        assert obj == pytest.approx(0.5 * 1.0 + 1.0 * 2.0, abs=1e-5)

    def test_identity_kills_small_signal(self):
        x, _, _ = ista(matrix_problem(np.eye(1), np.array([3.0]), 5.0))
        assert x[0] == 0.0

    def test_first_iterate_formula(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 10))
        y = rng.standard_normal(6)
        lam = 0.3
        prob = matrix_problem(a, y, lam, norm=10.0, max_iters=1)
        x1, iters, _ = ista(prob)
        assert iters == 1
        mu = 1.0 / (1.01 * 10.0) ** 2
        expect = soft_threshold(mu * (a.T @ y), mu * lam)
        assert np.allclose(x1, expect, atol=1e-14)

    def test_lasso_null_exact(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 20))
        y = rng.standard_normal(8)
        lam = float(np.max(np.abs(a.T @ y.astype(complex))))
        x, iters, _ = ista(matrix_problem(a, y, lam))
        assert not np.any(x)
        assert iters == 1

    def test_kkt_optimality_random_instance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((12, 30))
        truth = np.zeros(30)
        truth[rng.choice(30, 3, replace=False)] = rng.standard_normal(3)
        y = a @ truth
        lam = 0.01
        x, _, _ = ista(matrix_problem(a, y, lam, max_iters=60000, tol=1e-14))
        assert kkt_residual(a, y, x, lam) <= 1e-6 * lam

    @pytest.mark.parametrize("real", [True, False])
    def test_objective_never_rises_across_restarts(self, monkeypatch, real):
        rng = np.random.default_rng(36)
        a = rng.standard_normal((10, 24))
        y = a[:, :3] @ rng.standard_normal(3) + 0.01 * rng.standard_normal(10)
        lam = 0.02 * float(np.max(np.abs(a.T @ y)))

        def solve(k):
            return ista(SparseProblem(lambda v: a @ v, lambda r: a.T @ r, y, lam,
                                      np.linalg.norm(a, 2), max_iters=k, tol=1e-12,
                                      real=real))

        calls = []

        def counting(*args):
            calls.append(1)
            return rose(*args)

        monkeypatch.setattr(numerics, "rose", counting)
        _, iters, _ = solve(120)
        assert iters == 120 and len(calls) - iters >= 3   # a second call per restart
        # the final objective after k iterations is the k-th iterate's
        objs = [solve(k)[2] for k in range(121)]
        assert all(cur <= prev + 1e-12 * max(prev, 1.0)
                   for prev, cur in zip(objs, objs[1:]))
        assert objs[-1] < objs[0]

    @pytest.mark.parametrize("c", [1e-3, 1e-6])
    def test_small_scale_restarts_as_at_unit_scale(self, monkeypatch, c):
        # y and lambda scaled by c: the same restarts and c times the iterate;
        # every solve runs to the cap, as the stop test's floor of 1 is absolute
        rng = np.random.default_rng(36)
        a = rng.standard_normal((10, 24))
        y = a[:, :3] @ rng.standard_normal(3) + 0.01 * rng.standard_normal(10)
        lam = 0.02 * float(np.max(np.abs(a.T @ y)))

        def solve(scale):
            log = []

            def recording(*args):
                out = rose(*args)
                log.append(bool(out[0]))
                return out

            monkeypatch.setattr(numerics, "rose", recording)
            x, iters, _ = ista(SparseProblem(lambda v: a @ v, lambda r: a.T @ r,
                                             scale * y, scale * lam, np.linalg.norm(a, 2),
                                             max_iters=120, tol=1e-300, real=True))
            return x, iters, log

        x1, iters1, log1 = solve(1.0)
        xc, itersc, logc = solve(c)
        assert sum(log1) >= 3 and logc == log1 and itersc == iters1 == 120
        assert np.max(np.abs(xc / c - x1)) <= 1e-9 * np.max(np.abs(x1))

    def test_step_too_large_raises(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6)) + np.eye(6) * 2
        y = rng.standard_normal(6)
        # a norm a tenth of ||A||: a step about 100 / ||A||^2
        with pytest.raises(StepTooLargeError, match="step-too-large"):
            ista(matrix_problem(a, y, 0.01, norm=np.linalg.norm(a, 2) / 10))

    def test_zero_measurement(self):
        a = np.eye(4)
        x, _, _ = ista(matrix_problem(a, np.zeros(4), 0.5))
        assert not np.any(x)

    def test_zero_lambda_on_zero_data_stops_at_zero(self):
        # one iteration ends at +0.0 exactly
        x, iters, obj = ista(matrix_problem(np.eye(4) + 0.5, np.zeros(4), 0.0))
        assert iters == 1 and obj == 0.0
        assert np.array_equal(x.view(np.uint64), np.zeros(8, np.uint64))

    def test_zero_lambda_is_least_squares(self):
        rng = np.random.default_rng(22)
        a = 2.0 * np.eye(5) + 0.1 * rng.standard_normal((5, 5))
        y = rng.standard_normal(5)
        x, _, _ = ista(matrix_problem(a, y, 0.0, max_iters=5000, tol=1e-14))
        assert np.allclose(x, np.linalg.solve(a, y), atol=1e-10)

    @pytest.mark.parametrize("lam", [-1e-300, -1.0, np.nan])
    def test_negative_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda must be >= 0"):
            matrix_problem(np.eye(2), np.ones(2), lam)

    @pytest.mark.parametrize("lam, y", [(np.inf, np.ones(2)),
                                        ([0.1, np.inf], np.ones((2, 2)))])
    def test_infinite_lambda_rejected(self, lam, y):
        with pytest.raises(ValueError, match="lambda must be finite"):
            matrix_problem(np.eye(2), y, lam)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be > 0"):
            ista(matrix_problem(np.eye(2), np.ones(2), 0.1, tol=np.nan))

    @pytest.mark.parametrize("max_iters", [-1, -5000])
    def test_negative_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be >= 0"):
            ista(matrix_problem(np.eye(2), np.ones(2), 0.1, max_iters=max_iters))
        with pytest.raises(ValueError, match="max_iters must be >= 0"):   # A = 0
            ista(matrix_problem(np.zeros((2, 2)), np.ones(2), 0.1, max_iters=max_iters))

    @pytest.mark.parametrize("real", [False, True])
    def test_tol_whose_square_underflows_stops_on_a_zero_step(self, real):
        x, iters, _ = ista(SparseProblem(lambda v: v, lambda r: r, np.zeros(3), 0.1,
                                         1.0, tol=1e-200, real=real))
        assert iters == 1 and not np.any(x)

    def test_adjoint_mismatch_detected(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        with pytest.raises(AdjointMismatchError, match="adjoint-mismatch"):
            ista(SparseProblem(lambda v: a @ v, lambda r: a.T @ r, np.ones(5),
                               0.1, np.linalg.norm(a, 2)))


class TestRealIsta:
    def real_problem(self, a, y, lam, **kw):
        return SparseProblem(lambda v: a @ v, lambda r: a.T @ r, y, lam,
                             np.linalg.norm(a, 2), real=True, **kw)

    def test_stays_float64_and_matches_complex(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((10, 16))
        y = rng.standard_normal(10)
        x_r, it_r, obj_r = ista(self.real_problem(a, y, 0.05, tol=1e-10))
        x_c, it_c, obj_c = ista(matrix_problem(a, y, 0.05, tol=1e-10))
        assert x_r.dtype == np.float64
        assert np.max(np.abs(x_r - x_c)) <= 1e-9
        assert obj_r == pytest.approx(obj_c, rel=1e-10)

    def test_rejects_complex_measurements(self):
        a = np.eye(3)
        with pytest.raises(ValueError, match="real"):
            self.real_problem(a, np.ones(3) + 1j, 0.1)

    def test_zero_operator_gives_zeros(self):
        prob = SparseProblem(lambda v: 0.0 * v, lambda r: 0.0 * r,
                             np.ones(3), 0.1, 0.0, real=True)
        x, iters, obj = ista(prob)
        assert x.dtype == np.float64 and not np.any(x) and iters == 0
        assert obj == pytest.approx(1.5)

    def test_zero_operator_step_is_infinite(self):
        # the zero operator has norm 0, so no finite step: the complex path
        # returns x = 0 without iterating, as the real one does
        x, iters, obj = ista(matrix_problem(np.zeros((3, 3)), np.ones(3), 0.1))
        assert x.dtype == np.complex128 and not np.any(x) and iters == 0
        assert obj == pytest.approx(1.5)

    @pytest.mark.parametrize("norm", [1e-200, 1e-320])
    def test_norm_whose_square_underflows_gives_zeros(self, norm):
        # (1.01 norm)^2 rounds to 0: the step would be infinite
        x, iters, obj = ista(matrix_problem(norm * np.eye(3), np.ones(3), 0.1))
        assert not np.any(x) and iters == 0 and obj == pytest.approx(1.5)

    @pytest.mark.parametrize("norm", [-1e-300, -1.0, np.inf, np.nan])
    def test_norm_must_be_finite_nonnegative(self, norm):
        with pytest.raises(ValueError, match="norm must be finite and >= 0"):
            matrix_problem(np.eye(2), np.ones(2), 0.1, norm=norm)

    def test_norm_is_required(self):
        with pytest.raises(TypeError, match="norm"):
            SparseProblem(lambda v: v, lambda r: r, np.ones(2), 0.1)

    def test_real_mode_sees_float64_only(self):
        # the adjoint check draws float64 vectors for a real problem, and
        # the iterations stay real
        a = np.random.default_rng(13).standard_normal((7, 12))
        seen = []

        def forward(v):
            seen.append(np.asarray(v).dtype)
            return a @ v

        ista(SparseProblem(forward, lambda r: a.T @ r, np.ones(7), 0.1,
                           np.linalg.norm(a, 2), max_iters=5, real=True))
        assert len(seen) > 5 and set(seen) == {np.dtype(np.float64)}

    def test_adjoint_mismatch_detected(self):
        # A in place of A^T: the real vectors of the check must expose it
        a = np.random.default_rng(12).standard_normal((5, 5))
        with pytest.raises(AdjointMismatchError, match="adjoint-mismatch"):
            ista(SparseProblem(lambda v: a @ v, lambda r: a @ r, np.ones(5), 0.1,
                               np.linalg.norm(a, 2), real=True))

    def test_real_mode_rejects_complex_output(self):
        a = np.random.default_rng(14).standard_normal((4, 4)) * (1 + 1j)
        with pytest.raises(ValueError, match="real operator"):
            ista(SparseProblem(lambda v: a @ v, lambda r: a.conj().T @ r,
                               np.ones(4), 0.1, np.linalg.norm(a, 2), real=True))


class TestScanline:
    def make_model(self, rng, n=64, m=24):
        bins = np.sort(rng.choice(n, m, replace=False))
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, m)) * rng.uniform(0.5, 1.5, m)
        return ScanlineModel(h, bins, n)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(4)
        model = self.make_model(rng)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        lhs = np.vdot(model.forward(x), y)
        rhs = np.vdot(x, model.adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    @given(st.integers(1, 96), st.data(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_adjoint_identity_any_model(self, n, data, seed):
        # any N, any unique bins and any pulse spectrum, zeros included
        bins = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=n, unique=True))
        rng = np.random.default_rng(seed)
        m = len(bins)
        h = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) \
            * (rng.random(m) > 0.1)
        model = ScanlineModel(h, np.asarray(bins), n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        lhs = np.vdot(model.forward(x), y)
        rhs = np.vdot(x, model.adjoint(y))
        # ||A|| <= max|h| sqrt(N) bounds both sides
        scale = np.max(np.abs(h)) * np.sqrt(n) * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)

    def test_zero_measurement_recovers_zero(self):
        rng = np.random.default_rng(5)
        model = self.make_model(rng)
        assert not np.any(recover_scanline(model, np.zeros(24), 0.1))

    def test_full_dft_single_spike(self):
        n = 64
        model = ScanlineModel(np.ones(n), np.arange(n), n)
        x_true = np.zeros(n)
        x_true[17] = 1.0
        y = model.forward(x_true)
        x = recover_scanline(model, y, 1e-8 * n, tol=1e-12)
        assert np.argmax(np.abs(x)) == 17
        assert x[17] == pytest.approx(1.0, abs=1e-4)
        off = np.delete(x, 17)
        assert np.max(np.abs(off)) <= 1e-6

    def test_sub_nyquist_recovery_40db(self):
        rng = np.random.default_rng(6)
        n, m, k = 128, 43, 5
        bins = np.sort(rng.choice(n, m, replace=False))
        model = ScanlineModel(np.ones(m), bins, n)
        support = rng.choice(n, k, replace=False)
        x_true = np.zeros(n)
        x_true[support] = rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k)
        y = model.forward(x_true)
        sigma = np.sqrt(np.mean(np.abs(y) ** 2)) * 10 ** (-40 / 20)
        y = y + sigma / np.sqrt(2) * (rng.standard_normal(m)
                                      + 1j * rng.standard_normal(m))
        lam = 0.015 * np.max(np.abs(model.adjoint(y)))
        x = recover_scanline(model, y, lam)
        assert set(np.flatnonzero(np.abs(x) > 1e-9)) == set(support)
        nmse = np.sum((x - x_true) ** 2) / np.sum(x_true ** 2)
        assert nmse <= 1e-3


def hanning_psf(k):
    w = np.hanning(k + 2)[1:-1]
    return np.outer(w, w)


def gaussian_psf(sigma, radius):
    d = np.arange(-radius, radius + 1)
    return np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2 * sigma ** 2))


class TestModelNorms:
    """Each model's closed-form norm against the dense oracle, the top
    singular value of the model's matrix."""

    @pytest.mark.parametrize("n,m", [(48, 17), (31, 31), (16, 1), (1, 1)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scanline_norm_is_exact(self, n, m, seed):
        rng = np.random.default_rng(seed)
        bins = rng.choice(n, m, replace=False)
        h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        model = ScanlineModel(h, bins, n)
        assert model.norm == pytest.approx(dense_norm(model.forward, n), rel=1e-12)

    def test_scanline_without_bins_has_norm_zero(self):
        model = ScanlineModel(np.ones(0), np.zeros(0, dtype=np.int64), 8)
        assert model.norm == 0.0
        assert not np.any(recover_scanline(model, np.zeros(0), 0.0))

    def test_scanline_of_no_samples_rejected(self):
        with pytest.raises(DimensionMismatchError, match="N >= 1"):
            ScanlineModel(np.ones(0), np.zeros(0, dtype=np.int64), 0)

    @pytest.mark.parametrize("kshape", [(3, 3), (4, 5), (1, 6), (7, 2)])
    def test_conv_norm_bounds_dense_norm(self, kshape):
        h = np.random.default_rng(sum(kshape)).standard_normal(kshape)
        op = Conv2Same((9, 7), h)
        dense = dense_norm(lambda v: op.forward(v).ravel(), 63)
        assert dense <= op.norm * (1 + 1e-12)

    @pytest.mark.parametrize("psf", [hanning_psf(7), gaussian_psf(1.5, 4)],
                             ids=["hanning7", "gaussian9"])
    def test_conv_norm_within_one_percent_for_psfs(self, psf):
        # the bound closes as the image grows: 48 x 48 is the smallest
        # square image at which both PSFs come within 1%
        op = Conv2Same((48, 48), psf)
        dense = dense_norm(lambda v: op.forward(v).ravel(), 48 * 48)
        assert dense <= op.norm <= 1.01 * dense

    def test_zero_psf_deconvolves_to_zeros(self):
        y = np.random.default_rng(3).standard_normal((6, 5))
        x = deconvolve(y, np.zeros((3, 3)), 0.1)
        assert x.shape == (6, 5) and not np.any(x)


class TestConvOperators:
    @pytest.mark.parametrize("kshape", [(3, 3), (5, 3), (4, 4), (2, 5)])
    def test_exact_adjoint_any_kernel_parity(self, kshape):
        rng = np.random.default_rng(7)
        op = Conv2Same((9, 11), rng.standard_normal(kshape))
        x = rng.standard_normal((9, 11))
        y = rng.standard_normal((9, 11))
        lhs = np.vdot(op.forward(x), y)
        rhs = np.vdot(x, op.adjoint(y))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_adjoint_identity_real_and_complex(self, h0, h1, k0, k1, seed):
        # odd and even kernels: real operands give float64 maps that are
        # adjoint to roundoff, and complex operands are rejected, not cast
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((k0, k1))
        op = Conv2Same((h0, h1), h)
        x = rng.standard_normal((h0, h1))
        y = rng.standard_normal((h0, h1))
        fx, aty = op.forward(x), op.adjoint(y)
        assert fx.dtype == aty.dtype == np.float64
        assert fx.shape == aty.shape == (h0, h1)
        lhs = np.vdot(fx, y)
        rhs = np.vdot(x, aty)
        scale = np.sum(np.abs(h)) * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)
        for apply in (op.forward, op.adjoint):
            with pytest.raises(ValueError, match="operand must be real"):
                apply(x + 1j * y)

    def test_complex_kernel_or_image_rejected(self):
        h = np.ones((3, 3)) / 9
        with pytest.raises(ValueError, match="kernel must be real"):
            Conv2Same((6, 6), h + 0j)
        with pytest.raises(ValueError, match="kernel must be real"):
            deconvolve(np.ones((6, 6)), h + 0j, 0.1)
        with pytest.raises(ValueError, match="real measurements"):
            deconvolve(np.ones((6, 6)) + 1j, h, 0.1)

    def test_matches_direct_convolution(self):
        # odd and even kernels, against the sums taken term by term: the
        # forward map keeps the full convolution from offset (k-1)//2 on,
        # and the adjoint sends every term back
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 7))
        y = rng.standard_normal((6, 7))
        for kshape in ((3, 3), (4, 2)):
            h = rng.standard_normal(kshape)
            o0, o1 = (kshape[0] - 1) // 2, (kshape[1] - 1) // 2
            direct, direct_adj = np.zeros_like(x), np.zeros_like(x)
            for a, b, i, j in np.ndindex(*kshape, 6, 7):
                ii, jj = i + o0 - a, j + o1 - b
                if 0 <= ii < 6 and 0 <= jj < 7:
                    direct[i, j] += h[a, b] * x[ii, jj]
                    direct_adj[ii, jj] += h[a, b] * y[i, j]
            op = Conv2Same(x.shape, h)
            assert np.allclose(op.forward(x), direct, atol=1e-12)
            assert np.allclose(op.adjoint(y), direct_adj, atol=1e-12)


class TestDeconvolve:
    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((8, 8))
        x = deconvolve(y, np.ones((1, 1)), 1e-10, tol=1e-12)
        assert np.allclose(x, y, atol=1e-6)

    def test_zero_image(self):
        assert not np.any(deconvolve(np.zeros((6, 6)), np.ones((3, 3)) / 9, 0.1))

    def test_spike_recovery_within_one_pixel(self):
        rng = np.random.default_rng(10)
        truth = np.zeros((24, 24))
        spikes = [(5, 6), (12, 18), (19, 4)]
        for i, j in spikes:
            truth[i, j] = rng.uniform(1.0, 2.0)
        d = np.arange(-4, 5)
        psf = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2 * 1.5 ** 2))
        y = Conv2Same(truth.shape, psf).forward(truth)
        lam = 0.05 * np.max(np.abs(Conv2Same(y.shape, psf).adjoint(y)))
        x = deconvolve(y, psf, lam, max_iters=3000, tol=1e-10)
        flat = np.argsort(x.ravel())[::-1][:3]
        found = {divmod(int(f), 24) for f in flat}
        for i, j in spikes:
            assert any(abs(i - a) <= 1 and abs(j - b) <= 1 for a, b in found)
