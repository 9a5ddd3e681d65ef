"""Casorati construction, SVT, mixed-norm thresholding, RPCA separation."""

import numpy as np
import pytest

from oracles import group_threshold_where, nuclear_norm_direct, rpca_fista, svt_svd
from test_acceptance import rpca_synthetic
from usproc import clutter
from usproc import io as uio
from usproc import numerics
from usproc.cli import run
from usproc.clutter import (
    build_casorati,
    default_lambda1,
    mixed_l12_threshold,
    power_doppler,
    rpca,
    svt,
    unbuild_casorati,
)
from usproc.errors import DimensionMismatchError, ShapeMismatchError
from usproc.numerics import svd


class TestCasorati:
    def test_column_major_contract(self):
        frame = np.array([[1.0, 2.0], [3.0, 4.0]])
        cas = build_casorati([frame, frame * 0])
        assert np.array_equal(cas[:, 0], [1.0, 3.0, 2.0, 4.0])

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        frames = [rng.standard_normal((3, 5)) for _ in range(4)]
        back = unbuild_casorati(build_casorati(frames), (3, 5))
        assert back.shape == (4, 3, 5)
        for a, b in zip(frames, back):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("as_list", [False, True])
    def test_matches_per_frame_stacking(self, cplx, as_list):
        # oracle: each frame raveled column-major, stacked as a column
        rng = np.random.default_rng(11)
        frames = rng.standard_normal((5, 3, 4))
        if cplx:
            frames = frames + 1j * rng.standard_normal(frames.shape)
        want = np.stack([f.ravel(order="F") for f in frames], axis=1)
        got = build_casorati(list(frames) if as_list else frames)
        assert got.dtype == want.dtype and got.shape == (12, 5)
        assert got.tobytes() == want.tobytes()

    def test_single_frame_rejected(self):
        for frames in [np.zeros((2, 2))], np.zeros((1, 3, 3)), [], [np.zeros(3)]:
            with pytest.raises(DimensionMismatchError, match="need T >= 2 frames"):
                build_casorati(frames)

    @pytest.mark.parametrize("shape", [(3, 0, 5), (3, 4, 0), (2, 0, 0)])
    def test_frames_without_pixels_rejected(self, shape):
        with pytest.raises(DimensionMismatchError, match="frames of .* pixels"):
            build_casorati(np.zeros(shape))

    @pytest.mark.parametrize("frames", [
        [np.zeros((2, 2)), np.zeros((2, 3))], [np.zeros((2, 2)), np.zeros(3)],
        [np.zeros(3), np.zeros(3)], np.zeros((2, 3, 4, 5))])
    def test_ragged_or_not_2d_frames_rejected(self, frames):
        with pytest.raises(ShapeMismatchError, match="shape-mismatch"):
            build_casorati(frames)


class TestSvt:
    def test_diagonal(self):
        out = svt(np.diag([5.0, 1.0]), 2.0)
        assert np.allclose(out.real, np.diag([3.0, 0.0]), atol=1e-12)

    def test_threshold_above_top_singular_value(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((6, 4))
        smax = np.linalg.norm(y, 2)
        assert np.max(np.abs(svt(y, smax * 1.0001))) <= 1e-12

    def test_zero_threshold_reproduces_input(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((10, 6)) + 1j * rng.standard_normal((10, 6))
        fro = np.sqrt(np.sum(np.abs(y) ** 2))
        assert np.sqrt(np.sum(np.abs(svt(y, 0.0) - y) ** 2)) <= 1e-10 * fro

    def test_prox_objective_beats_perturbations(self):
        # svt(Y, lam) minimizes 0.5||Y-X||_F^2 + lam ||X||_*
        rng = np.random.default_rng(3)
        lam = 0.7
        for _ in range(5):
            y = rng.standard_normal((6, 5))
            x = svt(y, lam).real

            def objective(m):
                return 0.5 * np.sum((y - m) ** 2) + lam * nuclear_norm_direct(m)

            base = objective(x)
            for _ in range(100):
                delta = rng.standard_normal((6, 5)) * rng.choice([1e-3, 1e-1, 1.0])
                assert base <= objective(x + delta) + 1e-9

    @pytest.mark.parametrize("lam", [-1e-300, np.nan])
    def test_bad_threshold_rejected(self, lam):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            svt(np.eye(3), lam)

    def test_loading_free_hermitian_inputs_ok(self):
        y = np.array([[2.0, 1.0], [1.0, 2.0]])
        out = svt(y, 1.0)
        assert np.allclose(out, out.T.conj(), atol=1e-12)


class TestMixedThreshold:
    def test_row_shrink_example(self):
        out = mixed_l12_threshold(np.array([[3.0, 4.0]]), 2.5)
        assert np.allclose(out.real, [[1.5, 2.0]], atol=1e-14)

    def test_small_row_zeroed(self):
        out = mixed_l12_threshold(np.array([[0.3, 0.4]]), 2.5)
        assert not np.any(out)

    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 7))
        assert np.allclose(mixed_l12_threshold(x, 0.0).real, x, atol=1e-15)

    @pytest.mark.parametrize("lam", [-1e-300, np.nan, np.inf])
    def test_bad_threshold_rejected(self, lam):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            mixed_l12_threshold(np.eye(3), lam)

    def test_large_threshold_with_zero_row_is_quiet(self):
        # lam / 1e-300 overflows for a zero row: the row stays zero and
        # numpy's overflow warning (an error under this suite) is not raised
        x = np.ones((3, 4))
        x[1] = 0.0
        assert not np.any(mixed_l12_threshold(x, 1e9))

    @pytest.mark.parametrize("tau", [0.0, 0.7])
    def test_zero_row_and_bits_against_oracle(self, tau):
        # rows above tau keep the bits of 1 - tau / norm, rows at or below
        # it (a zero row among them) become zeros, and tau = 0 is the identity
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 5))
        x[2] = 0.0
        x[4] *= 0.05                 # a row below 0.7
        out, pen = clutter._group_threshold_with_norm(x, tau)
        want, _ = group_threshold_where(x, tau)
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
        assert not np.any(out[2]) and np.any(out[4]) == (tau == 0.0)
        if tau == 0.0:
            assert np.array_equal(out.view(np.uint64), x.view(np.uint64)) and out is not x
        assert abs(pen - np.sum(np.linalg.norm(out, axis=1))) <= 1e-12 * pen

    def test_penalty_is_mixed_norm_of_output(self):
        # the penalty comes from the input's row norms; the oracle
        # recomputes it from the thresholded rows
        rng = np.random.default_rng(12)
        for i in range(60):
            m, n = (int(d) for d in rng.integers(1, 30, 2))
            x = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
            if i % 2:
                x = x + 1j * rng.standard_normal((m, n))
            x[rng.random(m) < 0.2] = 0.0
            norms = np.linalg.norm(x, axis=1)
            for tau in (0.0, rng.uniform(0.0, 1.2) * norms.max(), 2.0 * norms.max()):
                out, pen = clutter._group_threshold_with_norm(x, tau)
                assert np.array_equal(out, mixed_l12_threshold(x, tau))
                want = np.sum(np.linalg.norm(out, axis=1))
                assert abs(pen - want) <= 1e-12 * want

    def test_prox_objective_beats_perturbations(self):
        rng = np.random.default_rng(5)
        lam = 0.9
        y = rng.standard_normal((6, 4))
        x = mixed_l12_threshold(y, lam).real

        def objective(m):
            return 0.5 * np.sum((y - m) ** 2) \
                + lam * np.sum(np.linalg.norm(m, axis=1))

        base = objective(x)
        for _ in range(100):
            delta = rng.standard_normal((6, 4)) * rng.choice([1e-3, 1e-1, 1.0])
            assert base <= objective(x + delta) + 1e-9


def flow_scene(seed=7, nm=60, t=24):
    """Rank-2 slow tissue plus four fast flow rows and a little noise."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((nm, 2)))
    tt = np.arange(t)
    v, _ = np.linalg.qr(np.column_stack([
        np.ones(t) + 0.1 * np.sin(2 * np.pi * tt / t),
        np.linspace(-1.0, 1.0, t)]))
    tissue = (u * np.array([12.0, 6.0])) @ v.T
    blood = np.zeros((nm, t))
    rows = rng.choice(nm, 4, replace=False)
    for n_row, i in enumerate(rows):
        blood[i] = rng.uniform(0.5, 1.0) * np.sin(
            2 * np.pi * (5 + n_row) * tt / t + rng.uniform(0, 2 * np.pi))
    y = tissue + blood + 1e-3 * rng.standard_normal((nm, t))
    return y, tissue, blood, rows


def benchmark_flow_scene():
    """The flow-rpca benchmark's Casorati scene: 10 x 10 pixels, 32 frames,
    rank-2 tissue, six flowing pixels and 1e-3 noise."""
    n, t, flows = 100, 32, 6
    rng = np.random.Generator(np.random.Philox(key=0xF10))
    u, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    tt = np.arange(t)
    v, _ = np.linalg.qr(np.column_stack(
        [1.0 + 0.1 * np.sin(2 * np.pi * tt / t), np.linspace(-1.0, 1.0, t)]))
    y = (u * np.array([30.0, 15.0])) @ v.T
    for k, row in enumerate(np.sort(rng.choice(n, flows, replace=False))):
        y[row] += rng.uniform(0.5, 1.0) * np.sin(
            2 * np.pi * (t // 8 + k) * tt / t + rng.uniform(0, 2 * np.pi))
    y += 1e-3 * rng.standard_normal((n, t))
    return np.stack([y[:, i].reshape((10, 10), order="F") for i in range(t)])


def test_rpca_svts_match_svd_oracle_on_flow_scene(tmp_path, monkeypatch):
    # every SVT that `usproc clutter --method rpca` takes of the benchmark's
    # scene, against numpy's SVD: each goes through the Gram, whose kept
    # right singular vectors must be orthonormal; only default_lambda1 takes
    # an SVD
    svts, grams, svds = [], [], []
    real_svt, real_gram_eigh = clutter._svt_with_nuclear, clutter.gram_eigh

    def recording_svt(y, tau):   # rpca's prox overwrites y with the result
        svts.append((y.copy(), tau) + real_svt(y, tau))
        return svts[-1][2:]

    def recording_gram_eigh(a):
        grams.append(real_gram_eigh(a))
        return grams[-1]

    def recording_svd(a):
        svds.append(svd(a))
        return svds[-1]

    monkeypatch.setattr(clutter, "_svt_with_nuclear", recording_svt)
    monkeypatch.setattr(clutter, "gram_eigh", recording_gram_eigh)
    monkeypatch.setattr(clutter, "svd", recording_svd)
    seq = tmp_path / "seq.uim1"
    uio.write_uim1_seq(seq, benchmark_flow_scene())
    assert run(["clutter", "--in", str(seq), "--method", "rpca",
                "--out", str(tmp_path / "flow")]) == 0
    assert len(svts) == len(grams) == 32 and len(svds) == 1
    for (y, tau, out, nuc), (w, v) in zip(svts, grams):
        want, want_nuc = svt_svd(y, tau)
        peak = np.max(np.abs(want))
        assert out.dtype == np.float64
        assert np.max(np.abs(out - want)) <= 1e-12 * peak
        assert abs(nuc - want_nuc) <= 1e-12 * want_nuc
        kept = v[:, w > tau * tau]
        assert kept.dtype == np.float64 and kept.shape[1] >= 1
        assert np.max(np.abs(kept.T @ kept - np.eye(kept.shape[1]))) <= 1e-10


def test_rpca_group_penalties_match_recomputed_norm_on_flow_scene(
        tmp_path, monkeypatch):
    # every group threshold of `usproc clutter --method rpca` on the
    # benchmark's scene hands back the mixed norm of its output
    steps = []
    real = clutter._group_threshold_with_norm

    def recording(x, tau):
        steps.append(real(x, tau))
        return steps[-1]

    monkeypatch.setattr(clutter, "_group_threshold_with_norm", recording)
    seq = tmp_path / "seq.uim1"
    uio.write_uim1_seq(seq, benchmark_flow_scene())
    assert run(["clutter", "--in", str(seq), "--method", "rpca",
                "--out", str(tmp_path / "flow")]) == 0
    assert len(steps) == 32
    assert sum(pen > 0.0 for _, pen in steps) >= 30
    for out, pen in steps:
        want = np.sum(np.linalg.norm(out, axis=1))
        assert abs(pen - want) <= 1e-12 * want


def spectrum_sweep(count, seed):
    """(y, s1) for ``count`` random matrices, tall and wide, real and
    complex: full rank, rank-deficient (the zero matrix among them), and
    with singular values spread from s1 down to 1e-9 s1, some of them near
    the Gram's resolution limit."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, n = (int(d) for d in rng.integers(1, 41, 2))
        cplx = i % 2 == 1

        def gaussian(a, b):
            g = rng.standard_normal((a, b))
            return g + 1j * rng.standard_normal((a, b)) if cplx else g

        r = min(m, n)
        kind = i % 3
        if kind == 0:
            y = gaussian(m, n)
        elif kind == 1:
            rank = int(rng.integers(0, r))
            y = gaussian(m, rank) @ gaussian(rank, n)
        else:
            s = np.sort(10.0 ** rng.uniform(-9.0, 0.0, r))[::-1]
            y = (np.linalg.qr(gaussian(m, r))[0] * s) \
                @ np.linalg.qr(gaussian(n, r))[0].conj().T
        y = y * 10.0 ** rng.uniform(-3.0, 3.0)
        yield y, np.linalg.svd(y, compute_uv=False)[0]


def test_svt_sweep_against_svd_oracle(monkeypatch):
    # Fallback: tau <= 8 sqrt(r u) s1 takes the SVD (u = float64's eps, r =
    # min(M, N), the Gram's order), agreeing with the oracle to r u s1.
    # Gram: each kept s - tau carries about r u s1^2 / tau, so the output
    # is held to r u s1 (1 + s1 / tau) and its nuclear norm to r times that.
    svd_calls = []

    def counting_svd(a):
        svd_calls.append(a.shape)
        return svd(a)

    monkeypatch.setattr(clutter, "svd", counting_svd)
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(271)
    paths = {True: 0, False: 0}
    for y, s1 in spectrum_sweep(200, 27):
        r = min(y.shape)
        bound = 8.0 * np.sqrt(r * eps) * s1
        taus = [0.0, 0.5 * bound, 0.999 * bound, 1.001 * bound,
                s1 * rng.uniform(1e-3, 1.0), 1.01 * s1, 1.0 + 2.0 * s1]
        for tau in taus:
            fallback = tau <= bound
            want, want_nuc = svt_svd(y, tau)
            tol = r * eps * s1 if fallback else r * eps * s1 * (1.0 + s1 / tau)
            del svd_calls[:]
            out, nuc = clutter._svt_with_nuclear(y, tau)
            assert len(svd_calls) == fallback, (y.shape, tau, bound)
            assert np.array_equal(svt(y, tau), out)
            assert out.dtype == y.dtype and out.shape == y.shape
            assert np.max(np.abs(out - want), initial=0.0) <= tol
            assert abs(nuc - want_nuc) <= r * tol
            if tau >= 1.01 * s1:
                assert not np.any(out) and nuc == 0.0
            paths[fallback] += 1
    assert paths[True] >= 400 and paths[False] >= 700, paths


class TestRealData:
    """Real data runs in float64, complex data in complex128; the oracle for
    the real path is the same function on the same data cast to complex."""

    def test_casorati_keeps_dtype(self):
        rng = np.random.default_rng(20)
        frames = rng.standard_normal((3, 4, 5))
        assert build_casorati(frames).dtype == np.float64
        iq = frames + 1j * rng.standard_normal(frames.shape)
        assert build_casorati(list(iq)).dtype == np.complex128

    def test_rpca_matches_complex_oracle(self):
        y = flow_scene()[0]
        lam1 = default_lambda1(y)
        real = rpca(y, lam1, 0.5 * lam1, 0.5, 0.5, 500, 1e-5)
        oracle = rpca(y.astype(complex), lam1, 0.5 * lam1, 0.5, 0.5, 500, 1e-5)
        assert real[2] == oracle[2] < 500
        for got, want in zip(real[:2], oracle[:2]):
            peak = np.max(np.abs(want))
            assert got.dtype == np.float64 and want.dtype == np.complex128
            assert np.max(np.abs(want.imag)) <= 1e-12 * peak
            assert np.max(np.abs(got - want)) <= 1e-12 * peak

    def test_svt_and_lambda_match_complex_oracle(self):
        rng = np.random.default_rng(21)
        y = rng.standard_normal((30, 8))
        lam = default_lambda1(y)
        assert lam == pytest.approx(default_lambda1(y.astype(complex)), rel=1e-13)
        got, want = svt(y, 0.5 * lam), svt(y.astype(complex), 0.5 * lam)
        assert got.dtype == np.float64 and want.dtype == np.complex128
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert svt(y + 1j * y, lam).dtype == np.complex128

    def test_mixed_threshold_keeps_dtype(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((6, 4))
        got = mixed_l12_threshold(x, 1.0)
        assert got.dtype == np.float64
        assert np.array_equal(got, mixed_l12_threshold(x.astype(complex), 1.0).real)
        assert mixed_l12_threshold(1j * x, 1.0).dtype == np.complex128


class TestRpca:
    def test_zero_input_one_iteration(self):
        xt, xb, iters = rpca(np.zeros((8, 4), complex), 1.0, 1.0)
        assert not np.any(xt) and not np.any(xb)
        assert iters == 1

    def test_zero_weights_on_zero_input_one_iteration(self):
        xt, xb, iters = rpca(np.zeros((8, 4), complex), 0.0, 0.0)
        assert not np.any(xt) and not np.any(xb)
        assert iters == 1

    @pytest.mark.parametrize("lam1,lam2", [(-1.0, 0.1), (0.1, -1e-300),
                                           (np.nan, 0.1), (0.1, np.inf)])
    def test_negative_weight_rejected(self, lam1, lam2):
        with pytest.raises(ValueError, match="lam1 and lam2 must be >= 0"):
            rpca(np.ones((6, 4), complex), lam1, lam2)

    @pytest.mark.parametrize("scene", ["flow", "flow-complex", "benchmark"])
    def test_matches_accelerated_oracle(self, scene):
        # the oracle thresholds singular values by numpy's full SVD, rpca
        # through the Gram: the same iterations and restarts, and both
        # blocks within 1e-12 of the oracle's peak (measured below 7e-15)
        if scene == "benchmark":
            y = build_casorati(benchmark_flow_scene())
            lam1 = default_lambda1(y)
            args = (lam1, 0.5 * lam1, 0.5, 0.5, 500, 1e-6)
        elif scene == "flow":
            y = flow_scene()[0]
            lam1 = default_lambda1(y)
            args = (lam1, 0.5 * lam1, 0.5, 0.5, 500, 1e-5)
        else:
            y = flow_scene()[0].astype(complex)
            args = (0.12, 0.1, 0.5, 0.5, 500, 1e-7)
        got, want = rpca(y, *args), rpca_fista(y, *args)
        assert got[2] == want[2] < 500
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype == y.dtype
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    def test_criterion_9_scene_stops_within_150_iterations(self):
        _, _, y = rpca_synthetic()
        _, _, iters = rpca(y.astype(complex), 0.3, 0.25, 0.5, 0.5, 500, 1e-6)
        assert iters <= 150

    def test_objective_never_rises_across_restarts(self, monkeypatch):
        y = flow_scene()[0]
        lam1 = default_lambda1(y)
        calls = []
        real_rose = numerics.rose

        def counting(*args):
            calls.append(1)
            return real_rose(*args)

        monkeypatch.setattr(numerics, "rose", counting)
        _, _, iters = rpca(y, lam1, 0.5 * lam1, 0.5, 0.5, 500, 1e-5)
        assert len(calls) - iters >= 2    # a second call per restart

        def objective(k):
            x_t, x_b, _ = rpca(y, lam1, 0.5 * lam1, 0.5, 0.5, k, 1e-5)
            return 0.5 * np.sum((y - x_t - x_b) ** 2) + lam1 * np.sum(
                np.linalg.svd(x_t, compute_uv=False)) \
                + 0.5 * lam1 * np.sum(np.linalg.norm(x_b, axis=1))

        objs = [objective(k) for k in range(1, iters + 1)]
        assert all(cur <= prev + 1e-12 * max(prev, 1.0)
                   for prev, cur in zip(objs, objs[1:]))

    def test_rank_one_fixed_point(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal(30)
        v = rng.standard_normal(8)
        y = np.outer(u, v)
        s1 = np.linalg.norm(u) * np.linalg.norm(v)
        lam1 = 0.04 * s1
        xt, xb, _ = rpca(y.astype(complex), lam1, 1e9 * s1, 0.5, 0.5, 800, 1e-10)
        assert np.max(np.abs(xb)) == 0.0
        rel = np.linalg.norm(y - xt) / np.linalg.norm(y)
        assert rel <= lam1 / s1 + 1e-6

    def test_synthetic_separation_small(self):
        # slow (DC + drift) tissue modes vs fast orthogonal-harmonic blood
        # rows: the separable regime the mixed-norm grouping encodes
        y, tissue, blood, rows = flow_scene()
        xt, xb, iters = rpca(y.astype(complex), 0.12, 0.1, 0.5, 0.5, 500, 1e-7)
        # structure: exactly the active rows carry flow, tissue stays rank 2
        found = np.any(np.abs(xb) > 1e-9, axis=1)
        assert set(np.flatnonzero(found)) == set(rows)
        s_t = np.linalg.svd(xt, compute_uv=False)
        assert s_t[2] <= 1e-3 * s_t[0]
        # loose error bounds at this miniature scale; the full-scale <=0.1
        # claim is exercised by acceptance criterion 9 on the 400x60 case
        assert np.linalg.norm(xt - tissue) / np.linalg.norm(tissue) <= 0.15
        assert np.linalg.norm(xb - blood) / np.linalg.norm(blood) <= 0.3

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((12, 6))
        xt1, xb1, _ = rpca(y.astype(complex), 0.4, 0.2, 0.5, 0.5, 200, 1e-9)
        c = 3.5
        xt2, xb2, _ = rpca((c * y).astype(complex), c * 0.4, c * 0.2,
                           0.5, 0.5, 200, 1e-9)
        assert np.allclose(xt2, c * xt1, atol=1e-8 * max(1, np.abs(xt2).max()))
        assert np.allclose(xb2, c * xb1, atol=1e-8 * max(1, np.abs(xb2).max()))

    @pytest.mark.parametrize("c", [1e-3, 1e-6])
    def test_small_scale_restarts_as_at_unit_scale(self, monkeypatch, c):
        # the restart rule's slack scales with the data: Y and the weights
        # scaled by c restart at the same iterations and give c times the
        # solution, also where 0.5 ||c Y||^2 is far below 1
        rng = np.random.default_rng(8)
        y = rng.standard_normal((12, 6)).astype(complex)
        real_rose = numerics.rose

        def solve(scale):
            log = []

            def recording(*args):
                out = real_rose(*args)
                log.append(bool(out[0]))
                return out

            monkeypatch.setattr(numerics, "rose", recording)
            return rpca(scale * y, scale * 0.4, scale * 0.2, 0.5, 0.5, 200, 1e-9), log

        (xt1, xb1, iters1), log1 = solve(1.0)
        (xtc, xbc, itersc), logc = solve(c)
        assert sum(log1) >= 3                 # restarts, each a second call
        assert logc == log1 and itersc == iters1
        for got, want in ((xtc, xt1), (xbc, xb1)):
            assert np.max(np.abs(got / c - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("tol", [np.nan, -1e-6, 0.0])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            rpca(np.ones((6, 4)), 0.1, 0.1, tol=tol)

    def test_negative_max_iters_rejected(self):
        with pytest.raises(ValueError, match="max_iters must be >= 0"):
            rpca(np.ones((6, 4)), 0.1, 0.1, max_iters=-1)

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(DimensionMismatchError, match="rpca expects a 2-D matrix"):
            rpca(np.ones(shape), 0.1, 0.1)

    def test_step_domain_validated(self):
        # mu outside (0, 1] is rejected up front.  Within the domain an
        # accelerated step that raises the objective is redone as a plain
        # step; step-too-large is raised only if that plain step rises too
        y = np.ones((6, 4), complex)
        with pytest.raises(ValueError):
            rpca(y, 0.1, 0.1, 1.5, 0.5)
        with pytest.raises(ValueError):
            rpca(y, 0.1, 0.1, 0.5, 0.0)


def test_power_doppler_is_temporal_l2():
    rng = np.random.default_rng(10)
    frames = rng.standard_normal((6, 2, 3))
    pd = power_doppler(build_casorati(frames), (2, 3))
    manual = np.sqrt(np.sum(frames ** 2, axis=0))
    assert np.allclose(pd, manual, atol=1e-12)
