"""Beamformer family: DAS, covariance, MV, CF, iMAP, Wiener, compounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eigvals_jacobi_hermitian, solve_full_pivot
from usproc.beamform import (
    MEAN,
    MV,
    CovarianceConfig,
    cf_weighted_das,
    coherence_factor,
    compound,
    das,
    estimate_covariance,
    imap,
    mv,
    wiener,
)
from usproc.core import (
    RECTANGULAR,
    ApodizationWindow,
    BeamformedImage,
    FocusedTensor,
    HAMMING,
    HANNING,
    ImagingGrid,
)
from usproc.errors import GridMismatchError, ShapeMismatchError, SingularMatrixError


def grid_for(nx, nz):
    return ImagingGrid.regular(-1e-3, 1e-3, nx, 1e-3, 2e-3, nz)


def tensor_from(values):
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim == 1:
        values = values[:, None, None]
    return FocusedTensor(values, grid_for(values.shape[1], values.shape[2]))


def rand_tensor(rng, c, nx, nz, complex_data=True):
    v = rng.standard_normal((c, nx, nz))
    if complex_data:
        v = v + 1j * rng.standard_normal((c, nx, nz))
    return tensor_from(v)


class TestDas:
    def test_constant_vector(self):
        img = das(tensor_from([2.0, 2.0, 2.0, 2.0]), ApodizationWindow(RECTANGULAR, 4))
        assert img.rf[0, 0] == pytest.approx(2.0)

    def test_weighted_formula(self):
        t = tensor_from([5.0, 2.0, 2.0, 5.0])
        apod = ApodizationWindow(RECTANGULAR, 4)
        object.__setattr__(apod, "weights", np.array([0.0, 1.0, 1.0, 0.0]))
        assert das(t, apod).rf[0, 0] == pytest.approx(1.0)

    def test_hanning_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        t = rand_tensor(rng, 9, 3, 4)
        apod = ApodizationWindow(HANNING, 9)
        img = das(t, apod)
        for ix in range(3):
            for iz in range(4):
                acc = 0.0 + 0.0j
                for c in range(9):
                    acc += np.conj(apod.weights[c]) * t.values[c, ix, iz]
                assert img.rf[ix, iz] == pytest.approx(acc / 9, abs=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = rand_tensor(rng, 6, 2, 2)
        b = rand_tensor(rng, 6, 2, 2)
        apod = ApodizationWindow(HANNING, 6)
        lhs = das(tensor_from(2.0 * a.values + 3.0 * b.values), apod).rf
        rhs = 2.0 * das(a, apod).rf + 3.0 * das(b, apod).rf
        assert np.allclose(lhs, rhs, atol=1e-14)

    @given(st.integers(2, 12), st.integers(1, 6), st.integers(1, 6),
           st.sampled_from([RECTANGULAR, HANNING, HAMMING, "random"]),
           st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_linearity_property(self, c, nx, nz, kind, a, b, seed):
        # das(aX + bY) = a das(X) + b das(Y) up to rounding: per pixel, the
        # gap is at most 8 (C + 2) eps times (1/C) sum |w| (|a||X| + |b||Y|),
        # plus 1e-300 for products that underflow
        rng = np.random.default_rng(seed)
        x, y = rand_tensor(rng, c, nx, nz), rand_tensor(rng, c, nx, nz)
        apod = ApodizationWindow(RECTANGULAR if kind == "random" else kind, c)
        if kind == "random":
            object.__setattr__(apod, "weights", rng.uniform(-2.0, 2.0, c))
        lhs = das(tensor_from(a * x.values + b * y.values), apod).rf
        rhs = a * das(x, apod).rf + b * das(y, apod).rf
        w = np.abs(apod.weights)[:, None, None]
        scale = np.sum(w * (abs(a) * np.abs(x.values)
                            + abs(b) * np.abs(y.values)), axis=0) / c
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(lhs - rhs) <= 8 * (c + 2) * eps * scale + 1e-300)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="shape-mismatch"):
            das(tensor_from([1.0, 2.0]), ApodizationWindow(RECTANGULAR, 3))


class TestEstimateCovariance:
    def test_all_ones_rank_one(self):
        cfg = CovarianceConfig(4, 0, 0.0)
        gamma = estimate_covariance(np.ones((4, 1)), cfg)
        assert np.allclose(gamma, np.ones((4, 4)), atol=1e-15)

    def test_loading_adds_trace_fraction(self):
        rng = np.random.default_rng(2)
        nb = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        g0 = estimate_covariance(nb, CovarianceConfig(4, 1, 0.0))
        g1 = estimate_covariance(nb, CovarianceConfig(4, 1, 0.25))
        expected = g0 + 0.25 * np.trace(g0).real / 4 * np.eye(4)
        assert np.allclose(g1, expected, atol=1e-14)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(3)
        nb = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        gamma = estimate_covariance(nb, CovarianceConfig(5, 2, 0.0))
        assert np.allclose(gamma, gamma.conj().T, atol=1e-14)
        lam = eigvals_jacobi_hermitian(gamma)
        assert lam.min() >= -1e-12 * np.trace(gamma).real


def identity_cov(neighborhood, cfg):
    return np.eye(cfg.subaperture_length, dtype=np.complex128)


def mv_reference_pixel(vals, ix, iz, cfg, covariance_fn=estimate_covariance):
    """Per-pixel MV by definition: ``covariance_fn`` on the clamped axial
    neighborhood, an oracle solve, unity-gain normalization.

    Returns (estimate, weights, covariance); (0, None, None) for y_r = 0.
    """
    center = vals[:, ix, iz]
    if not np.any(center):
        return 0.0, None, None
    k = cfg.temporal_half_window
    gamma = covariance_fn(vals[:, ix, max(iz - k, 0):iz + k + 1], cfg)
    w = solve_full_pivot(gamma, np.ones(gamma.shape[0]))
    w = w / np.sum(w)
    subs = np.lib.stride_tricks.sliding_window_view(center, gamma.shape[0])
    return np.mean(subs @ np.conj(w)), w, gamma


def wiener_reference_pixel(vals, ix, iz, cfg, covariance_fn=estimate_covariance):
    est, w, gamma = mv_reference_pixel(vals, ix, iz, cfg, covariance_fn)
    if w is None or est == 0:
        return 0.0
    sig = abs(est) ** 2
    return sig / (sig + (np.conj(w) @ gamma @ w).real) * est


def compound_reference_pixel(stack, ix, iz, cfg):
    """Per-pixel MV compounding by definition on the (2K+1)^2 patch."""
    center = stack[:, ix, iz]
    if not np.any(center):
        return 0.0
    k, e = cfg.temporal_half_window, stack.shape[0]
    patch = stack[:, max(ix - k, 0):ix + k + 1, max(iz - k, 0):iz + k + 1]
    patch = patch.reshape(e, -1)
    gamma = patch @ patch.conj().T / patch.shape[1]
    gamma = 0.5 * (gamma + gamma.conj().T)
    gamma += cfg.loading_fraction * np.trace(gamma).real / e * np.eye(e)
    w = solve_full_pivot(gamma, np.ones(e))
    return np.conj(w / np.sum(w)) @ center


def reference_image(pixel_fn, vals, cfg):
    nx, nz = vals.shape[-2:]
    return np.array([[pixel_fn(vals, ix, iz, cfg) for iz in range(nz)]
                     for ix in range(nx)], dtype=complex)


def assert_matches_reference(out, ref):
    """Relative agreement to 1e-12, and exact zeros where the reference is 0."""
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.all(out[ref == 0] == 0)


def zeroed_tensor(rng, c, nx, nz):
    """Random channel data with an empty corner, an empty last column and a
    lone zero pixel."""
    v = rng.standard_normal((c, nx, nz)) + 1j * rng.standard_normal((c, nx, nz))
    v[:, 0, :2] = 0.0
    v[:, nx - 1, :] = 0.0
    v[:, nx // 2, nz - 1] = 0.0
    return v


class TestMv:
    def test_identity_covariance_reduces_to_das_on_subapertures(self):
        rng = np.random.default_rng(4)
        t = rand_tensor(rng, 8, 3, 3)
        cfg = CovarianceConfig(4, 1, 0.0)
        img = mv(t, cfg, covariance_fn=identity_cov)
        # oracle: rectangular das on each sliding subaperture, averaged
        for ix in range(3):
            for iz in range(3):
                y = t.values[:, ix, iz]
                subs = np.lib.stride_tricks.sliding_window_view(y, 4)
                assert img.rf[ix, iz] == pytest.approx(subs.mean(), abs=1e-12)

    def test_full_aperture_identity_equals_das(self):
        rng = np.random.default_rng(5)
        t = rand_tensor(rng, 8, 4, 4)
        img = mv(t, CovarianceConfig(8, 0, 0.0), covariance_fn=identity_cov)
        ref = das(t, ApodizationWindow(RECTANGULAR, 8))
        assert np.max(np.abs(img.rf - ref.rf)) <= 1e-12

    def test_diagonal_closed_form_weights(self):
        def diag_cov(neighborhood, cfg):
            return np.diag([1.0, 4.0]).astype(complex)

        t = tensor_from(np.array([3.0, 5.0]))
        img = mv(t, CovarianceConfig(2, 0, 0.0), covariance_fn=diag_cov)
        # w = [0.8, 0.2]; estimate = w^H y
        assert img.rf[0, 0] == pytest.approx(0.8 * 3.0 + 0.2 * 5.0, abs=1e-12)

    def test_unity_gain_and_optimality(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gamma = m @ m.conj().T + 0.3 * np.eye(3)
        from usproc.numerics import solve_hermitian
        w = solve_hermitian(gamma, np.ones(3, dtype=complex))
        w = w / np.sum(w)
        assert abs(np.sum(w) - 1.0) <= 1e-12
        base = (np.conj(w) @ gamma @ w).real
        for _ in range(10_000):
            d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            d -= d.mean()  # keep 1^H v = 1
            v = w + d
            assert base <= (np.conj(v) @ gamma @ v).real + 1e-12

    def test_unity_gain_across_pixels(self):
        rng = np.random.default_rng(7)
        t = rand_tensor(rng, 8, 3, 3)
        cfg = CovarianceConfig(4, 1, 0.05)
        img = mv(t, cfg)
        for ix in range(3):
            for iz in range(3):
                est, w, _ = mv_reference_pixel(t.values, ix, iz, cfg)
                assert abs(np.sum(w) - 1.0) <= 1e-12
                assert img.rf[ix, iz] == pytest.approx(est, abs=1e-12)

    @pytest.mark.parametrize("c,ell,k,eps", [
        (8, 4, 2, 0.01),    # default-like smoothing, edge rows clamped
        (8, 4, 0, 0.05),    # K = 0: no axial averaging
        (6, 1, 1, 0.1),     # L = 1: scalar covariances
        (6, 6, 3, 0.01),    # L = C: one subaperture, window wider than Rz/2
        (5, 3, 1, 0.0),     # no loading, still full rank
    ])
    def test_matches_per_pixel_definition(self, c, ell, k, eps):
        rng = np.random.default_rng(c * 100 + ell * 10 + k)
        vals = zeroed_tensor(rng, c, 5, 6)
        cfg = CovarianceConfig(ell, k, eps)
        out = mv(tensor_from(vals), cfg).rf
        ref = reference_image(lambda *px: mv_reference_pixel(*px)[0], vals, cfg)
        assert_matches_reference(out, ref)
        assert not np.any(out[0, :2]) and not np.any(out[-1])

    def test_faint_pixels_below_bright_echo(self):
        # windows away from a 1e8 brighter echo keep full relative accuracy
        # (a running-sum window would cancel their covariances away)
        rng = np.random.default_rng(21)
        vals = zeroed_tensor(rng, 8, 3, 12)
        vals[:, :, :3] *= 1e8
        cfg = CovarianceConfig(4, 1, 0.01)
        out = mv(tensor_from(vals), cfg).rf[:, 4:]
        ref = reference_image(lambda *px: mv_reference_pixel(*px)[0], vals, cfg)
        assert_matches_reference(out, ref[:, 4:])

    def test_singular_live_pixel_raises(self):
        # rank-one data with eps = 0 and L = 2 > rank: Gamma = 1 1^T exactly
        t = tensor_from(np.ones((4, 2, 3)))
        with pytest.raises(SingularMatrixError, match="singular-matrix"):
            mv(t, CovarianceConfig(2, 1, 0.0))

    @pytest.mark.parametrize("beamformer", [mv, wiener])
    def test_data_too_faint_to_solve_gives_zero(self, beamformer):
        # |y| ~ 1e-170: the covariance underflows to zero or to subnormals
        # that lose the loading, so the column reads as empty rather than
        # raising singular-matrix; at |y| ~ 1e-80 the solve still runs and
        # MV's scale invariance holds; other columns are untouched
        rng = np.random.default_rng(22)
        vals = rng.standard_normal((6, 3, 5)) + 1j * rng.standard_normal((6, 3, 5))
        cfg = CovarianceConfig(3, 1, 0.01)
        ref = beamformer(tensor_from(vals), cfg).rf
        faint = vals.copy()
        faint[:, 1] *= 1e-170
        faint[:, 2] *= 1e-80
        out = beamformer(tensor_from(faint), cfg).rf
        assert not np.any(out[1])
        assert np.array_equal(out[0], ref[0])
        assert np.max(np.abs(out[2] * 1e80 - ref[2])) <= 1e-12 * np.max(np.abs(ref[2]))

    def test_subaperture_longer_than_aperture(self):
        with pytest.raises(ShapeMismatchError, match="shape-mismatch"):
            mv(tensor_from(np.ones((4, 2, 3))), CovarianceConfig(5, 1, 0.01))

    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 3),
           st.integers(1, 4), st.integers(1, 7), st.floats(1e-3, 1.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_unity_gain_on_rank_one_data(self, c, ell, k, nx, nz, eps, seed):
        # y_r = a_r 1: every covariance is proportional to 1 1^T + eps I, so
        # w = 1 / L and the estimate is a_r; a_r = 0 pixels give exactly 0
        ell = min(ell, c)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((nx, nz)) + 1j * rng.standard_normal((nx, nz))
        a[rng.random((nx, nz)) < 0.3] = 0.0
        vals = np.broadcast_to(a, (c, nx, nz))
        out = mv(tensor_from(vals), CovarianceConfig(ell, k, eps)).rf
        assert np.all(out[a == 0] == 0)
        live = a != 0
        assert np.all(np.abs(out[live] - a[live]) <= 1e-10 * np.abs(a[live]))


class TestCoherenceFactor:
    def test_fully_coherent(self):
        cf = coherence_factor(tensor_from(3.3 * np.ones(6)))
        assert cf[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_single_live_channel(self):
        y = np.zeros(8)
        y[0] = 2.0
        assert coherence_factor(tensor_from(y))[0, 0] == pytest.approx(1 / 8)

    def test_zero_vector(self):
        assert coherence_factor(tensor_from(np.zeros(4)))[0, 0] == 0.0

    @given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_range(self, c, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(c) + 1j * rng.standard_normal(c)
        cf = coherence_factor(tensor_from(y))
        assert 0.0 <= cf[0, 0] <= 1.0


class TestCfWeightedDas:
    def test_coherent_equals_das(self):
        t = tensor_from(2.0 * np.ones(5))
        apod = ApodizationWindow(RECTANGULAR, 5)
        assert cf_weighted_das(t, apod).rf[0, 0] == pytest.approx(
            das(t, apod).rf[0, 0], abs=1e-14)

    def test_single_live_channel_is_das_over_c(self):
        y = np.zeros(8)
        y[3] = 8.0
        t = tensor_from(y)
        apod = ApodizationWindow(RECTANGULAR, 8)
        assert cf_weighted_das(t, apod).rf[0, 0] == pytest.approx(
            das(t, apod).rf[0, 0] / 8, abs=1e-14)

    def test_composition(self):
        rng = np.random.default_rng(9)
        t = rand_tensor(rng, 7, 3, 2)
        apod = ApodizationWindow(HANNING, 7)
        lhs = cf_weighted_das(t, apod).rf
        rhs = coherence_factor(t) * das(t, apod).rf
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * max(np.max(np.abs(rhs)), 1)


class TestImap:
    def test_constant_fixed_point(self):
        t = tensor_from(1.5 * np.ones(6))
        for iters in (1, 2, 5):
            assert imap(t, iters).rf[0, 0] == pytest.approx(1.5, abs=1e-14)

    def test_zero_mean_stays_zero(self):
        t = tensor_from(np.array([1.0, -1.0]))
        assert imap(t, 3).rf[0, 0] == 0.0

    def test_one_iteration_equals_wiener_postfiltered_das(self):
        rng = np.random.default_rng(10)
        t = rand_tensor(rng, 9, 4, 4)
        c = 9
        one = imap(t, 1).rf
        x0 = t.values.mean(axis=0)
        sig_x = np.abs(x0) ** 2
        sig_n = np.mean(np.abs(t.values - x0[None]) ** 2, axis=0)
        h = sig_x / (sig_x + sig_n / c)
        assert np.max(np.abs(one - h * x0)) <= 1e-12 * np.max(np.abs(one))

    def test_shrinkage_never_exceeds_das(self):
        rng = np.random.default_rng(11)
        t = rand_tensor(rng, 8, 5, 5)
        d = np.abs(das(t, ApodizationWindow(RECTANGULAR, 8)).rf)
        for iters in (1, 2, 4):
            assert np.all(np.abs(imap(t, iters).rf) <= d + 1e-14)


class TestWiener:
    def test_postfilter_limit_is_one(self):
        # H = sx/(sx+q) -> 1 as the filtered noise power q -> 0
        sx = 2.0
        for q in (1e-6, 1e-9, 1e-12):
            assert sx / (sx + q) == pytest.approx(1.0, abs=1e-5)

    def test_zero_signal_gives_zero(self):
        t = tensor_from(np.array([1.0, -1.0, 1.0, -1.0]))  # DAS = 0 -> MV est 0
        img = wiener(t, CovarianceConfig(4, 0, 0.1), covariance_fn=identity_cov)
        assert img.rf[0, 0] == 0.0

    def test_composes_mv_with_scalar_postfilter(self):
        rng = np.random.default_rng(12)
        t = rand_tensor(rng, 8, 3, 3)
        cfg = CovarianceConfig(4, 1, 0.05)
        wimg = wiener(t, cfg).rf
        mimg = mv(t, cfg).rf
        for ix in range(3):
            for iz in range(3):
                estv, w, gamma = mv_reference_pixel(t.values, ix, iz, cfg)
                q = (np.conj(w) @ gamma @ w).real
                sx = abs(estv) ** 2
                h = sx / (sx + q)
                assert 0.0 < h <= 1.0
                assert wimg[ix, iz] == pytest.approx(h * mimg[ix, iz], abs=1e-12)

    @pytest.mark.parametrize("c,ell,k", [(8, 4, 2), (8, 4, 0), (6, 1, 1), (6, 6, 1)])
    def test_matches_per_pixel_definition(self, c, ell, k):
        rng = np.random.default_rng(c + ell + k)
        vals = zeroed_tensor(rng, c, 5, 6)
        cfg = CovarianceConfig(ell, k, 0.05)
        out = wiener(tensor_from(vals), cfg).rf
        assert_matches_reference(out, reference_image(wiener_reference_pixel, vals, cfg))

    def test_custom_complex_covariance_matches_definition(self):
        # w^H Gamma w formed explicitly per pixel, for a complex Hermitian
        # positive-definite covariance that is neither the identity nor the
        # same at every pixel
        vals = zeroed_tensor(np.random.default_rng(33), 6, 4, 5)
        base = np.eye(3) + 0.2j * (np.eye(3, k=1) - np.eye(3, k=-1))
        cfg = CovarianceConfig(3, 1, 0.0)

        def cov(nb, cfg):
            return base + estimate_covariance(nb, cfg)

        out = wiener(tensor_from(vals), cfg, covariance_fn=cov).rf
        ref = reference_image(
            lambda *a: wiener_reference_pixel(*a, covariance_fn=cov), vals, cfg)
        assert np.any(ref)
        assert_matches_reference(out, ref)


class TestCompound:
    def make_images(self, values):
        grid = grid_for(values[0].shape[0], values[0].shape[1])
        return [BeamformedImage(v.astype(complex), grid) for v in values]

    def test_mean_of_identical_is_identity(self):
        rng = np.random.default_rng(13)
        img = rng.standard_normal((4, 4))
        out = compound(self.make_images([img, img, img]), MEAN)
        assert np.allclose(out.rf, img, atol=1e-15)

    def test_mean_of_opposites_is_zero(self):
        rng = np.random.default_rng(14)
        img = rng.standard_normal((4, 4))
        out = compound(self.make_images([img, -img]), MEAN)
        assert not np.any(out.rf)

    def test_mv_identity_covariance_equals_mean(self):
        rng = np.random.default_rng(15)
        vals = [rng.standard_normal((5, 5)) for _ in range(3)]
        imgs = self.make_images(vals)
        ref = compound(imgs, MEAN)
        out = compound(imgs, MV, CovarianceConfig(3, 1, 0.0),
                       covariance_fn=lambda patch, cfg: np.eye(3, dtype=complex))
        assert np.max(np.abs(out.rf - ref.rf)) <= 1e-12

    @pytest.mark.parametrize("e,k,eps", [(4, 2, 0.01), (3, 0, 0.05), (1, 1, 0.01),
                                         (5, 3, 0.1)])
    def test_mv_matches_per_pixel_definition(self, e, k, eps):
        rng = np.random.default_rng(e * 10 + k)
        stack = zeroed_tensor(rng, e, 6, 5)
        cfg = CovarianceConfig(e, k, eps)
        out = compound(self.make_images(list(stack)), MV, cfg).rf
        assert_matches_reference(
            out, reference_image(compound_reference_pixel, stack, cfg))

    def test_mv_data_too_faint_to_solve_gives_zero(self):
        # two faint columns, two empty ones, then data: with K = 2 the
        # faint columns' lateral windows hold nothing brighter
        rng = np.random.default_rng(16)
        stack = rng.standard_normal((3, 7, 5))
        stack[:, :4] = 0.0
        ref = compound(self.make_images(list(stack)), MV).rf
        stack[:, :2] = 1e-170 * rng.standard_normal((3, 2, 5))
        out = compound(self.make_images(list(stack)), MV).rf
        assert np.any(ref[4:])
        assert np.array_equal(out, ref)

    def test_grid_mismatch(self):
        a = BeamformedImage(np.zeros((2, 2), complex), grid_for(2, 2))
        other = ImagingGrid.regular(-2e-3, 2e-3, 2, 1e-3, 2e-3, 2)
        b = BeamformedImage(np.zeros((2, 2), complex), other)
        with pytest.raises(GridMismatchError, match="grid-mismatch"):
            compound([a, b], MEAN)


class TestRealData:
    """Real focused data is beamformed in float64, covariances and solves
    included; the oracle is the same beamformer on the same data cast to
    complex128, and complex data still gives complex128."""

    def test_covariance_keeps_dtype(self):
        rng = np.random.default_rng(30)
        nb = rng.standard_normal((6, 3))
        cfg = CovarianceConfig(4, 1, 0.1)
        gamma = estimate_covariance(nb, cfg)
        assert gamma.dtype == np.float64
        ref = estimate_covariance(nb + 0j, cfg)
        assert np.max(np.abs(gamma - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert estimate_covariance(1j * nb, cfg).dtype == np.complex128

    @pytest.mark.parametrize("beamformer", [mv, wiener])
    @pytest.mark.parametrize("c,ell,k", [(8, 4, 2), (6, 6, 1)])
    def test_capon_matches_complex_oracle(self, beamformer, c, ell, k):
        rng = np.random.default_rng(c + ell + k)
        vals = zeroed_tensor(rng, c, 5, 6).real
        cfg = CovarianceConfig(ell, k, 0.05)
        got = beamformer(FocusedTensor(vals, grid_for(5, 6)), cfg).rf
        want = beamformer(tensor_from(vals), cfg).rf
        assert got.dtype == np.float64 and want.dtype == np.complex128
        assert np.max(np.abs(want.imag)) <= 1e-12 * np.max(np.abs(want))
        assert_matches_reference(got, want)

    def test_complex_custom_covariance_gives_complex_image(self):
        # a complex covariance makes the weights complex, even on real data
        vals = np.random.default_rng(31).standard_normal((6, 3, 4))
        cov = np.eye(3) + 0.2j * (np.eye(3, k=1) - np.eye(3, k=-1))
        cfg = CovarianceConfig(3, 1, 0.0)
        out = mv(FocusedTensor(vals, grid_for(3, 4)), cfg,
                 covariance_fn=lambda nb, cfg: cov).rf
        ref = mv(tensor_from(vals), cfg, covariance_fn=lambda nb, cfg: cov).rf
        assert out.dtype == np.complex128 and np.any(out.imag)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("e,k,eps", [(4, 2, 0.01), (3, 0, 0.05)])
    def test_mv_compound_matches_complex_oracle(self, e, k, eps):
        rng = np.random.default_rng(e * 10 + k)
        stack = zeroed_tensor(rng, e, 6, 5).real
        grid = grid_for(6, 5)
        cfg = CovarianceConfig(e, k, eps)
        got = compound([BeamformedImage(s, grid) for s in stack], MV, cfg).rf
        want = compound([BeamformedImage(s.astype(complex), grid)
                         for s in stack], MV, cfg).rf
        assert got.dtype == np.float64 and want.dtype == np.complex128
        assert np.max(np.abs(want.imag)) <= 1e-12 * np.max(np.abs(want))
        assert_matches_reference(got, want)
