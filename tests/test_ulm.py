"""Bubble simulation, sparse localization, centroid detection, scoring."""

import warnings

import numpy as np
import pytest
from oracles import (
    block_expand,
    dense_norm,
    ista_single,
    localize_sparse_complex,
    ulm_model_complex,
    ulm_model_fft,
)

from usproc import ulm as ulm_module
from usproc.errors import DimensionMismatchError
from usproc.ulm import (
    LocalizationModel,
    accumulate,
    block_average,
    detect_centroids,
    gaussian_psf,
    localize_sparse,
    max_correlation,
    render_frame,
    score,
    simulate_bubbles,
)


class TestSimulateBubbles:
    def test_zero_mean_noise_only(self):
        frames = simulate_bubbles((16, 16), 4, 0.0, 1.5, 2, 30.0, 0)
        assert all(len(f.truth) == 0 for f in frames)
        assert all(np.std(f.image) > 0 for f in frames)  # noise present

    def test_single_bubble_factor_one_peak_at_truth(self):
        frames = simulate_bubbles((32, 32), 20, 1.0, 2.0, 1, None, 5)
        frame = next(f for f in frames if len(f.truth) == 1
                     and np.all((f.truth > 6) & (f.truth < 26)))
        i, j = np.unravel_index(np.argmax(frame.image), frame.image.shape)
        assert abs(i - frame.truth[0, 0]) <= 0.5 + 1e-9
        assert abs(j - frame.truth[0, 1]) <= 0.5 + 1e-9

    def test_same_seed_identical(self):
        a = simulate_bubbles((16, 16), 3, 2.0, 1.5, 2, 25.0, 9)
        b = simulate_bubbles((16, 16), 3, 2.0, 1.5, 2, 25.0, 9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.image, fb.image)
            assert np.array_equal(fa.truth, fb.truth)


class TestBlockOps:
    def test_average_expand_adjoint(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 8))
        y = rng.standard_normal((3, 2))
        lhs = np.sum(block_average(x, 4) * y)
        rhs = np.sum(x * block_expand(y, 4))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def model_of(frames, psf, factor):
    """The localization model of ``frames``' LR shape."""
    return LocalizationModel(np.shape(frames)[-2:], psf, factor)


class TestLocalizeSparse:
    def test_zero_frame(self):
        model = LocalizationModel((8, 8), gaussian_psf(1.5), 2)
        out = localize_sparse(np.zeros((8, 8)), model, 0.1)
        assert not np.any(out)

    def test_single_on_grid_bubble(self):
        psf = gaussian_psf(2.0)
        hr = render_frame((32, 32), np.array([[16.0, 12.0]]), 2.0)
        lr = block_average(hr, 4)
        model = model_of(lr, psf, 4)
        lam = 0.05 * max_correlation(lr, model)
        x = localize_sparse(lr, model, lam, max_iters=2000, tol=1e-8)
        assert np.all(x >= 0.0)
        i, j = np.unravel_index(np.argmax(x), x.shape)
        assert abs(i - 16) <= 1 and abs(j - 12) <= 1

    def test_requires_unit_peak_psf(self):
        with pytest.raises(ValueError):
            LocalizationModel((8, 8), 0.5 * gaussian_psf(1.0), 2)

    def test_output_support_bounded(self):
        frames = simulate_bubbles((32, 32), 1, 3.0, 2.0, 4, 30.0, 3)
        model = model_of(frames[0].image, gaussian_psf(2.0), 4)
        lam = 0.05 * max_correlation(frames[0].image, model)
        x = localize_sparse(frames[0].image, model, lam, max_iters=500)
        assert np.all(x >= 0)
        assert np.count_nonzero(x) <= x.size


def random_unit_peak_psf(shape, seed):
    rng = np.random.default_rng(seed)
    psf = rng.random(shape)
    return psf / psf.max()


def model_step(lr_shape, psf, factor):
    """ISTA's step 1 / (1.01 L)^2 from the localization model's norm L."""
    return 1.0 / (1.01 * LocalizationModel(lr_shape, psf, factor).norm) ** 2


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestFrameStacks:
    """A stack of frames is solved as one batch; every frame must get the
    bits of its solve alone, checked against the one-problem ISTA reference
    over the same maps."""

    @staticmethod
    def frames(hr_shape, count, seed):
        stack = np.stack([f.image for f in simulate_bubbles(
            hr_shape, count, 5.0, 2.0, 4, 30.0, seed)])
        stack[count // 2] = 0.0      # an all-zero frame among bubble frames
        return stack

    @pytest.mark.parametrize("hr_shape,count,tol", [
        ((32, 32), 4, 1e-5),         # every bubble frame at the cap
        ((48, 40), 5, 1e-3),         # frames stop at different iterations
    ])
    def test_stack_matches_each_frame_alone(self, hr_shape, count, tol):
        stack = self.frames(hr_shape, count, 40)
        model = model_of(stack, gaussian_psf(2.0), 4)
        lam = 0.05 * max_correlation(stack, model)
        hr = localize_sparse(stack, model, lam, max_iters=300, tol=tol)
        assert hr.shape == (count,) + hr_shape
        counts = []
        for f, frame in enumerate(stack):
            assert lam[f] == 0.05 * max_correlation(frame, model)
            alone = localize_sparse(frame, model, lam[f], max_iters=300, tol=tol)
            x, iters, _ = ista_single(model.forward, model.adjoint, frame.ravel(),
                                      lam[f], model.norm, max_iters=300, tol=tol,
                                      real=True)
            ref = np.clip(x.reshape(hr_shape), 0.0, None)
            assert np.array_equal(bits(hr[f]), bits(alone))
            assert np.array_equal(bits(hr[f]), bits(ref))
            counts.append(iters)
        assert counts[count // 2] == 1 and not np.any(hr[count // 2])
        if tol > 1e-4:
            assert len(set(counts)) >= 3

    def test_one_lambda_for_the_stack(self):
        stack = self.frames((32, 32), 3, 41)
        model = model_of(stack, gaussian_psf(2.0), 4)
        hr = localize_sparse(stack, model, 0.2, max_iters=50)
        for f, frame in enumerate(stack):
            alone = localize_sparse(frame, model, 0.2, max_iters=50)
            assert np.array_equal(bits(hr[f]), bits(alone))

    def test_max_correlation_of_a_stack(self):
        stack = self.frames((32, 24), 3, 42)
        model = model_of(stack, gaussian_psf(2.0), 4)
        scale = max_correlation(stack, model)
        assert scale.shape == (3,) and scale[1] == 0.0
        assert list(scale) == [max_correlation(f, model) for f in stack]
        assert type(max_correlation(stack[0], model)) is float

    @pytest.mark.parametrize("psf", [gaussian_psf(2.0),
                                     random_unit_peak_psf((5, 4), 1)])
    def test_model_maps_stacks_row_by_row(self, psf):
        model = LocalizationModel((7, 5), psf, 3)
        forward, adjoint, hr_shape = model.forward, model.adjoint, model.hr_shape
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, hr_shape[0] * hr_shape[1]))
        y = rng.standard_normal((4, 35))
        fx, ay = forward(x), adjoint(y)
        assert fx.shape == (4, 35) and ay.shape == x.shape
        for r in range(4):
            assert np.array_equal(bits(fx[r]), bits(forward(x[r])))
            assert np.array_equal(bits(ay[r]), bits(adjoint(y[r])))


class TestSeparableModel:
    """The per-axis matrix operator against the FFT composition it replaced.

    Both compute the same linear map in a different floating-point order,
    so they agree to roundoff: stated tolerance 1e-12 of the reference's
    largest magnitude, for the forward and the adjoint map.
    """

    @pytest.mark.parametrize("lr_shape,psf,factor", [
        ((16, 16), gaussian_psf(2.0), 4),
        ((12, 10), gaussian_psf(0.7), 3),
        ((9, 13), gaussian_psf(5.0), 1),
        ((10, 7), np.outer(np.hanning(8), np.hanning(10)), 3),  # even 8 x 10
        ((3, 2), gaussian_psf(5.0), 3),                 # kernel 41 > HR 9, 6
        ((7, 5), random_unit_peak_psf((5, 4), 1), 3),   # non-separable, r > 1
        ((8, 11), random_unit_peak_psf((7, 7), 2), 1),
    ])
    def test_matches_fft_oracle(self, lr_shape, psf, factor):
        psf = psf / psf.max()
        model = LocalizationModel(lr_shape, psf, factor)
        ref_fwd, ref_adj, ref_shape = ulm_model_fft(lr_shape, psf, factor)
        assert model.hr_shape == ref_shape
        rng = np.random.default_rng(7)
        x = rng.standard_normal(ref_shape[0] * ref_shape[1])
        y = rng.standard_normal(lr_shape[0] * lr_shape[1])
        for new, ref in ((model.forward(x), ref_fwd(x)),
                         (model.adjoint(y), ref_adj(y))):
            assert new.dtype == np.float64 and new.shape == ref.shape
            assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cases_cover_rank_one_and_full_rank(self):
        assert np.linalg.matrix_rank(gaussian_psf(2.0)) == 1
        assert np.linalg.matrix_rank(random_unit_peak_psf((5, 4), 1)) == 4

    @pytest.mark.parametrize("psf", [gaussian_psf(2.0),
                                     random_unit_peak_psf((6, 3), 3)])
    def test_adjoint_identity(self, psf):
        model = LocalizationModel((6, 9), psf, 2)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.standard_normal(model.hr_shape[0] * model.hr_shape[1])
            y = rng.standard_normal(54)
            lhs, rhs = np.dot(model.forward(x), y), np.dot(x, model.adjoint(y))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_rejects_bad_inputs(self):
        psf = gaussian_psf(2.0)
        with pytest.raises(ValueError, match="factor"):
            LocalizationModel((4, 4), psf, 0)
        with pytest.raises(DimensionMismatchError):
            LocalizationModel((0, 4), psf, 2)
        with pytest.raises(DimensionMismatchError):
            LocalizationModel((4, 4), np.zeros((0, 3)), 2)
        with pytest.raises(ValueError, match="finite"):
            LocalizationModel((4, 4), np.where(psf < 1.0, np.nan, psf), 2)

    def test_max_correlation_is_the_model_adjoint(self):
        frame = simulate_bubbles((32, 24), 1, 3.0, 2.0, 4, 30.0, 4)[0].image
        psf = gaussian_psf(2.0)
        _, ref_adj, _ = ulm_model_fft(frame.shape, psf, 4)
        ref = np.max(np.abs(ref_adj(frame.ravel())))
        assert max_correlation(frame, model_of(frame, psf, 4)) == \
            pytest.approx(ref, rel=1e-12)


class TestRealSolveAgainstComplexOracle:
    """The float64 solve against the complex128 one it replaced.

    Both start from x = 0 with :func:`localize_sparse`'s step, and ISTA
    is nonexpansive, so the HR maps differ by accumulated rounding only
    (measured below 1e-14 relative).  Stated tolerance: HR maps within
    1e-9 of the oracle's peak, detections within 1e-6 HR px, and the
    detection counts and density maps exactly equal.
    """

    # CLI defaults: factor 4, PSF sigma 2, lambda 0.05 ||A^T y||_inf,
    # 700-iteration cap, tol 1e-5, threshold 0.10, merge radius 1
    @staticmethod
    def solve_both(image, tol=1e-5):
        psf = gaussian_psf(2.0)
        model = model_of(image, psf, 4)
        lam = 0.05 * max_correlation(image, model)
        hr = localize_sparse(image, model, lam, max_iters=700, tol=tol)
        ref, iters = localize_sparse_complex(image, psf, lam, 4,
                                             model_step(image.shape, psf, 4),
                                             max_iters=700, tol=tol)
        return hr, ref, iters

    def assert_within_tolerance(self, hr, ref):
        assert hr.dtype == np.float64 and hr.shape == ref.shape
        assert np.max(np.abs(hr - ref)) <= 1e-9 * np.max(np.abs(ref))
        det, det_ref = (detect_centroids(m, 0.10, 1) for m in (hr, ref))
        assert len(det) == len(det_ref)
        assert np.array_equal(accumulate([det], hr.shape),
                              accumulate([det_ref], ref.shape))
        assert np.all(np.abs(det[:, :2] - det_ref[:, :2]) <= 1e-6)

    @pytest.mark.parametrize("hr_shape", [(32, 32), (48, 40), (64, 64),
                                          (96, 80)])
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_matches_oracle(self, hr_shape, seed):
        frame = simulate_bubbles(hr_shape, 1, 6.0, 2.0, 4, 30.0, seed)[0]
        hr, ref, _ = self.solve_both(frame.image)
        self.assert_within_tolerance(hr, ref)

    def test_empty_frame_exact_zeros(self):
        psf = gaussian_psf(2.0)
        hr = localize_sparse(np.zeros((8, 6)), LocalizationModel((8, 6), psf, 4), 0.1)
        ref, _ = localize_sparse_complex(np.zeros((8, 6)), psf, 0.1, 4,
                                         model_step((8, 6), psf, 4))
        assert hr.shape == (32, 24)
        assert np.array_equal(hr.view(np.uint64), ref.view(np.uint64))
        assert np.all(hr.view(np.uint64) == 0)

    def test_stops_on_tol_before_cap(self, monkeypatch):
        used = []
        solve = ulm_module.ista

        def counting_ista(problem):
            x, iters, obj = solve(problem)
            used.append(iters)
            return x, iters, obj

        monkeypatch.setattr(ulm_module, "ista", counting_ista)
        frame = simulate_bubbles((32, 32), 1, 3.0, 2.0, 4, 30.0, 3)[0]
        hr, ref, iters = self.solve_both(frame.image, tol=1e-3)
        assert iters < 700 and used == [iters]
        self.assert_within_tolerance(hr, ref)


class TestSharedStep:
    def test_unit_peak_checked(self):
        with pytest.raises(ValueError, match="unit peak"):
            LocalizationModel((8, 8), 0.5 * gaussian_psf(1.0), 2)

    @pytest.mark.parametrize("frames", [np.zeros((8, 6)), np.zeros((3, 8, 6)),
                                        np.zeros((6, 9)), np.zeros(48)])
    def test_frames_must_match_the_model(self, frames):
        # an (8, 6) frame holds as many pixels as the model's (6, 8) one
        model = LocalizationModel((6, 8), gaussian_psf(1.0), 2)
        with pytest.raises(DimensionMismatchError, match="LR shape"):
            max_correlation(frames, model)
        with pytest.raises(DimensionMismatchError, match="LR shape"):
            localize_sparse(frames, model, 0.1)

    def test_old_positional_factor_fails(self):
        # max_iters is keyword-only: a factor passed where it used to go
        # raises instead of capping ISTA at that many iterations
        model = LocalizationModel((8, 8), gaussian_psf(1.0), 2)
        with pytest.raises(TypeError):
            localize_sparse(np.zeros((8, 8)), model, 0.1, 2)

    @pytest.mark.parametrize("imag", [1.0, 0.0])
    def test_complex_frames_rejected_not_cast(self, imag):
        # numpy would cast with a ComplexWarning and drop the imaginary part;
        # a complex dtype is refused even when its imaginary part is zero
        model = LocalizationModel((8, 8), gaussian_psf(1.0), 2)
        frames = np.ones((8, 8)) + 1j * imag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ULM frames must be real"):
                max_correlation(frames, model)
            with pytest.raises(ValueError, match="ULM frames must be real"):
                localize_sparse(np.stack([frames, frames]), model, 0.1)

    def test_complex_psf_rejected_not_cast(self):
        psf = gaussian_psf(1.0) + 0j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ULM psf must be real"):
                LocalizationModel((8, 8), psf, 2)

    def test_norm_computed_on_first_use(self):
        # max_correlation reads no norm, so it computes none
        model = LocalizationModel((8, 8), gaussian_psf(1.0), 2)
        max_correlation(np.ones((8, 8)), model)
        assert "norm" not in vars(model)
        assert model.norm > 0.0 and "norm" in vars(model)


def rank_r_psf(shape, rank, seed):
    """Unit-peak PSF of the given rank with standard-normal factors."""
    rng = np.random.default_rng(seed)
    psf = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    return psf / psf.max()


class TestStepFromModel:
    """The model's norm bound against the dense oracle, the top singular
    value of the model's matrix.  For a separable PSF the bound is the norm
    (stated tolerance 1e-12 relative); for r > 1 it must not fall below it,
    so that the step it gives keeps ISTA's descent."""

    @pytest.mark.parametrize("lr_shape,sigma,factor", [
        ((8, 8), 2.0, 4),            # the CLI's PSF and factor
        ((16, 12), 2.0, 4),
        ((6, 9), 0.7, 3),
        ((5, 7), 1.5, 2),
        ((9, 5), 5.0, 1),            # kernel 41 wider than the HR grid
    ])
    def test_separable_psf_norm_is_exact(self, lr_shape, sigma, factor):
        model = LocalizationModel(lr_shape, gaussian_psf(sigma), factor)
        dense = dense_norm(model.forward, model.hr_shape[0] * model.hr_shape[1])
        assert model.norm == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("rank,seed", [(4, 0), (7, 1)])
    def test_bound_for_non_separable_psf(self, rank, seed):
        psf = rank_r_psf((9, 9), rank, seed)
        assert np.linalg.matrix_rank(psf) == rank
        model = LocalizationModel((8, 8), psf, 2)
        assert model.norm >= dense_norm(model.forward, 16 * 16)
        frame = np.random.default_rng(seed).standard_normal((8, 8))
        lam = 0.05 * max_correlation(frame, model)
        # ISTA raises step-too-large if the objective ever rises
        hr = localize_sparse(frame, model, lam, max_iters=300)
        assert hr.shape == model.hr_shape and np.all(np.isfinite(hr))

    def test_zero_model_gives_zeros(self):
        # a 1 x 1 HR grid sees only the PSF's centre tap, here 0
        psf = np.zeros((5, 5))
        psf[0, 0] = 1.0
        model = LocalizationModel((1, 1), psf, 1)
        assert model.norm == 0.0
        assert np.array_equal(localize_sparse(np.ones((1, 1)), model, 0.1),
                              np.zeros((1, 1)))
        with pytest.raises(ValueError, match="lambda"):
            localize_sparse(np.ones((1, 1)), model, -0.1)


class TestDetectCentroids:
    def test_symmetric_blob_centroid(self):
        d = np.arange(-6, 7)
        blob = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2 * 1.5 ** 2))
        det = detect_centroids(blob, 0.2, 2)
        assert det.shape[0] == 1
        assert det[0, 0] == pytest.approx(6.0, abs=0.1)
        assert det[0, 1] == pytest.approx(6.0, abs=0.1)

    def test_zero_frame_no_detections(self):
        assert len(detect_centroids(np.zeros((8, 8)), 0.5, 2)) == 0

    @pytest.mark.parametrize("frame, n", [(np.zeros((8, 8)), 0), (np.eye(8), 8)])
    def test_returns_writable_float64_array(self, frame, n):
        det = detect_centroids(frame, 0.5, 1)
        assert type(det) is np.ndarray and det.dtype == np.float64
        assert det.shape == (n, 3) and det.flags.writeable

    def test_two_separated_blobs(self):
        frame = np.zeros((24, 24))
        d = np.arange(-3, 4)
        blob = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / 2.0)
        frame[2:9, 2:9] += blob
        frame[12:19, 12:19] += 0.8 * blob
        det = detect_centroids(frame, 0.3, 3)
        assert det.shape[0] == 2

    def test_count_non_increasing_in_threshold(self):
        rng = np.random.default_rng(1)
        frame = rng.random((20, 20))
        counts = [len(detect_centroids(frame, t, 1))
                  for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_merge_keeps_brighter(self):
        frame = np.zeros((10, 10))
        frame[4, 4] = 1.0
        frame[4, 5] = 0.9
        det = detect_centroids(frame, 0.5, 2)
        assert det.shape[0] == 1
        assert det[0, 2] == 1.0


class TestAccumulate:
    def test_zero_detections(self):
        assert not np.any(accumulate([], (8, 8)))

    def test_bin_count(self):
        dets = np.array([[2.2, 3.7, 1.0],
                         [2.9, 3.1, 2.0],
                         [5.0, 5.0, 1.0]])
        out = accumulate([dets], (8, 8))
        assert out[2, 3] == 2.0
        assert out[5, 5] == 1.0

    def test_conservation(self):
        rng = np.random.default_rng(2)
        sets = [np.column_stack([
            rng.uniform(-1, 9, 5), rng.uniform(-1, 9, 5), np.ones(5)])
            for _ in range(3)]
        out = accumulate(sets, (8, 8))
        assert out.sum() == 15.0

    def test_beyond_both_edges(self):
        # each coordinate is floored, then clipped to the grid, however far
        # off it lies; the counts are those of the per-detection loop
        dets = [np.array([[-1e300, 1e300, 1.0], [-0.5, 4.99, 1.0],
                          [3.0, -7.0, 1.0]]),
                np.array([[1e300, -1e300, 2.0], [4.0, 5.0, 1.0],
                          [2.5, 2.0, 1.0], [2.0, 2.999, 1.0]])]
        want = np.zeros((4, 5))
        want[0, 4] = 2.0
        want[3, 0] = 2.0
        want[3, 4] = 1.0
        want[2, 2] = 2.0
        out = accumulate(dets, (4, 5))
        assert out.dtype == np.float64
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("col", [0, 1])
    def test_non_finite_coordinate_raises(self, bad, col):
        det = np.array([[1.0, 2.0, 1.0], [3.0, 4.0, 1.0]])
        det[1, col] = bad
        with pytest.raises(ValueError, match="detections must be finite"):
            accumulate([np.zeros((0, 3)), det], (8, 8))


class TestScore:
    def test_perfect_match(self):
        truth = np.array([[1.0, 2.0], [5.0, 5.0]])
        det = np.column_stack([truth, np.ones(2)])
        p, r, e = score(det, truth, 1.0)
        assert (p, r, e) == (1.0, 1.0, 0.0)

    def test_empty_detections_convention(self):
        p, r, e = score(np.zeros((0, 3)), np.array([[1.0, 1.0]]), 1.0)
        assert p == 1.0 and r == 0.0 and e == 0.0

    def test_far_detection_matches_nothing(self):
        det = np.array([[9.0, 9.0, 1.0]])
        truth = np.array([[1.0, 1.0]])
        p, r, _ = score(det, truth, 1.0)
        assert p == 0.0 and r == 0.0

    def test_one_to_one_matching(self):
        truth = np.array([[0.0, 0.0], [0.0, 1.0]])
        det = np.array([[0.0, 0.4, 1.0], [0.0, 0.6, 1.0]])
        p, r, _ = score(det, truth, 1.0)
        assert p == 1.0 and r == 1.0

    def test_detection_order_invariance(self):
        rng = np.random.default_rng(3)
        truth = rng.uniform(0, 10, (6, 2))
        det = np.column_stack([truth + rng.normal(0, 0.1, (6, 2)), np.ones(6)])
        base = score(det, truth, 1.0)
        perm = rng.permutation(6)
        assert score(det[perm], truth, 1.0) == base
