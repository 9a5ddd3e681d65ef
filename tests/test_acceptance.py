"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line live.

Two sub-criteria are implemented faithfully but are expected to fail against
measured reality; their tests print the measured values next to the stated
bound:

* criterion 4's noise-floor bound asserts the linear mean-envelope ratio,
  which population statistics of the two-iteration shrinkage cap near -9 dB;
* criterion 10's twin-bubble clause asserts separation at 1.5 sigma of the
  PSF, below the resolution limit of the l1 recovery it exercises.
"""

import time

import numpy as np
import pytest

from oracles import nuclear_norm_direct
from usproc import beamform as bf
from usproc import clutter as cl
from usproc import metrics as mx
from usproc import tof, ulm
from usproc.cli import run as cli_run
from usproc.core import (
    RECTANGULAR,
    ApodizationWindow,
    FocusedTensor,
    ImagingGrid,
    ScattererField,
    TransducerArray,
    TransmitEvent,
)
from usproc.numerics import svd
from usproc.simulator import PulseModel, simulate
from usproc.sparse import ScanlineModel, SparseProblem, ista, recover_scanline

V = 1540.0
F0 = 5e6
FS = 8 * F0
WAVELENGTH = V / F0


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def focused_from(values, grid):
    return FocusedTensor(values, grid)


def identity_cov(neighborhood, cfg):
    return np.eye(cfg.subaperture_length, dtype=np.complex128)


def simulate_point(depth, c=64, noise=0.0, lat=0.0):
    array = TransducerArray.linear(c, WAVELENGTH / 2, F0, FS)
    events = [TransmitEvent.plane_wave(0.0)]
    field = ScattererField([[lat, depth, 1.0]])
    nt = int(np.ceil((2.2 * depth / V) * FS)) + 64
    cube = simulate(array, events, field, PulseModel(F0, 0.6), V, nt, noise, 0)
    return array, events, cube


def test_criterion_1_mv_das_reduction():
    t0 = time.time()
    rng = np.random.default_rng(1)
    grid = ImagingGrid.regular(-8e-3, 8e-3, 64, 5e-3, 21e-3, 64)
    c = 16
    vals = rng.standard_normal((c, 64, 64)) + 1j * rng.standard_normal((c, 64, 64))
    focused = focused_from(vals, grid)
    cfg = bf.CovarianceConfig(c, 0, 0.0)  # full aperture
    img_mv = bf.mv(focused, cfg, covariance_fn=identity_cov)
    img_das = bf.das(focused, ApodizationWindow(RECTANGULAR, c))
    diff = float(np.max(np.abs(img_mv.rf - img_das.rf)))
    elapsed = time.time() - t0
    ok = diff <= 1e-9 and elapsed < 5.0
    assert report(1, ok, f"identity-covariance MV vs rect DAS on 64x64: "
                         f"max|diff|={diff:.2e} (<=1e-9), {elapsed:.1f}s (<5s)")


def lateral_fwhm(image, grid):
    env = tof.detect_envelope(image).envelope
    ix, iz = np.unravel_index(np.argmax(env), env.shape)
    profile = env[:, iz]
    spacing = float(grid.lateral_coords[1] - grid.lateral_coords[0])
    return mx.fwhm(profile, spacing)


def test_criterion_2_resolution_ordering():
    t0 = time.time()
    depth = 30e-3
    array, events, cube = simulate_point(depth, c=64)
    grid = ImagingGrid.regular(-3e-3, 3e-3, 151, depth - 1e-3, depth + 1e-3, 53)
    delays = tof.compute_delays(array, events, grid, V)
    focused = tof.focus(cube, delays, grid)
    das_img = bf.das(focused, ApodizationWindow(RECTANGULAR, 64))
    mv_img = bf.mv(focused, bf.CovarianceConfig(32, 2, 0.01))
    w_das = lateral_fwhm(das_img, grid)
    w_mv = lateral_fwhm(mv_img, grid)
    elapsed = time.time() - t0
    ok = w_mv <= 0.9 * w_das and elapsed < 30.0
    assert report(2, ok, f"lateral FWHM: MV(L=32)={w_mv * 1e3:.3f}mm vs "
                         f"DAS={w_das * 1e3:.3f}mm (need <=0.9x), "
                         f"{elapsed:.1f}s (<30s)")


def cyst_phantom(seed=0, n=500, cyst=(0.0, 20e-3), radius=2e-3):
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    while len(rows) < n:
        x = rng.uniform(-8e-3, 8e-3)
        z = rng.uniform(14e-3, 26e-3)
        if (x - cyst[0]) ** 2 + (z - cyst[1]) ** 2 <= radius ** 2:
            continue
        rows.append([x, z, rng.standard_normal()])
    return ScattererField(np.asarray(rows))


def test_criterion_3_contrast_ordering():
    array = TransducerArray.linear(64, WAVELENGTH / 2, F0, FS)
    events = [TransmitEvent.plane_wave(0.0)]
    field = cyst_phantom()
    nt = int(np.ceil(2.2 * 27e-3 / V * FS)) + 64
    cube = simulate(array, events, field, PulseModel(F0, 0.6), V, nt, 0.0, 0)
    grid = ImagingGrid.regular(-6e-3, 6e-3, 79, 16e-3, 24e-3, 209)
    delays = tof.compute_delays(array, events, grid, V)
    focused = tof.focus(cube, delays, grid)
    apod = ApodizationWindow(RECTANGULAR, 64)
    cx, cz, radius = 0.0, 20e-3, 2e-3
    half = radius / np.sqrt(2.0) * 0.9
    cyst = mx.RegionSpec(cx - half, cz - half, cx + half, cz + half)
    bg = mx.RegionSpec(cx + radius + 1.2e-3, cz - half,
                       cx + radius + 1.2e-3 + 2 * half, cz + half)

    def contrast(image):
        env = tof.detect_envelope(image).envelope
        return mx.contrast_db(env, grid, bg, cyst)

    c_das = contrast(bf.das(focused, apod))
    c_cf = contrast(bf.cf_weighted_das(focused, apod))
    gain = c_cf - c_das
    ok = gain >= 3.0
    assert report(3, ok, f"anechoic-cyst contrast: CF-DAS={c_cf:.2f}dB vs "
                         f"DAS={c_das:.2f}dB, improvement {gain:.2f}dB (>=3dB)")


def test_criterion_4_imap_noise_suppression():
    # Noise-only region: simulate pure-noise channels, focus, compare the
    # mean envelope of 2-iteration iMAP against DAS.  The stated bound
    # (>=40 dB on the ratio of mean envelopes) is asserted faithfully; the
    # population math of the iMAP shrinkage caps this quantity near -9 dB,
    # so the measured values are printed for the record.
    array = TransducerArray.linear(32, WAVELENGTH / 2, F0, FS)
    events = [TransmitEvent.plane_wave(0.0)]
    nt = 1400
    cube = simulate(array, events, ScattererField(np.zeros((0, 3))),
                    PulseModel(F0, 0.6), V, nt, 1.0, 7)
    grid = ImagingGrid.regular(-2e-3, 2e-3, 17, 10e-3, 25e-3, 390)
    delays = tof.compute_delays(array, events, grid, V)
    focused = tof.focus(cube, delays, grid)
    env_das = tof.detect_envelope(
        bf.das(focused, ApodizationWindow(RECTANGULAR, 32))).envelope
    env_imap = tof.detect_envelope(bf.imap(focused, 2)).envelope
    ratio_db = 20.0 * np.log10(env_imap.mean() / env_das.mean())
    per_pixel_db = float(np.mean(20.0 * np.log10(
        env_imap / np.maximum(env_das, 1e-300))))
    raw_db = float(np.mean(20.0 * np.log10(
        (np.abs(bf.imap(focused, 2).rf) + 1e-300)
        / (np.abs(bf.das(focused, ApodizationWindow(RECTANGULAR, 32)).rf)
           + 1e-300))))
    ok = ratio_db <= -40.0
    assert report(4, ok,
                  f"iMAP(2) vs DAS on noise-only region: mean-envelope ratio "
                  f"{ratio_db:.1f}dB (stated bound <=-40dB); context: mean "
                  f"per-pixel envelope {per_pixel_db:.1f}dB, mean per-pixel "
                  f"raw-amplitude {raw_db:.1f}dB")


def test_criterion_5_wiener_imap_identity():
    rng = np.random.default_rng(5)
    grid = ImagingGrid.regular(-2e-3, 2e-3, 24, 5e-3, 9e-3, 24)
    c = 16
    vals = rng.standard_normal((c, 24, 24)) + 1j * rng.standard_normal((c, 24, 24))
    focused = focused_from(vals, grid)
    one_iter = bf.imap(focused, 1).rf
    x0 = vals.mean(axis=0)
    sig_x = np.abs(x0) ** 2
    sig_n = np.mean(np.abs(vals - x0[None]) ** 2, axis=0)
    wiener_das = sig_x / (sig_x + sig_n / c) * x0
    diff = float(np.max(np.abs(one_iter - wiener_das)))
    ok = diff <= 1e-12 * max(float(np.max(np.abs(one_iter))), 1.0)
    assert report(5, ok, f"one iMAP iteration vs plug-in Wiener-scaled DAS: "
                         f"max|diff|={diff:.2e} (<=1e-12 relative)")


def kkt_residual(a, y, x, lam):
    g = a.T @ (y - a @ x)
    res = 0.0
    for i in range(x.size):
        if abs(x[i]) > 1e-12:
            res = max(res, abs(g[i] - lam * np.sign(x[i].real)))
        else:
            res = max(res, max(abs(g[i]) - lam, 0.0))
    return res


def test_criterion_6_ista_optimality():
    lam = 0.01
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        a = rng.standard_normal((12, 30))
        truth = np.zeros(30)
        truth[rng.choice(30, 3, replace=False)] = rng.standard_normal(3)
        y = a @ truth
        # degenerate-face instances converge slowly under plain ISTA but
        # do reach their exact fixed point; budget accordingly
        prob = SparseProblem(lambda v: a @ v, lambda r: a.T @ r, y, lam,
                             np.linalg.norm(a, 2), max_iters=600000, tol=1e-15)
        x, _, _ = ista(prob)  # objective monotonicity asserted inside
        worst = max(worst, kkt_residual(a, y, np.real(x), lam))
        # lasso null test, exact: ||A^H y||_inf evaluated through the
        # solver's own (complex) adjoint path so the boundary comparison
        # is bitwise consistent
        lam_null = float(np.max(np.abs(a.T @ y.astype(complex))))
        x0, _, _ = ista(SparseProblem(lambda v: a @ v, lambda r: a.T @ r, y,
                                      lam_null, np.linalg.norm(a, 2)))
        assert not np.any(x0)
    ok = worst <= 1e-6 * lam
    assert report(6, ok, f"20 lasso instances (12x30): worst KKT residual "
                         f"{worst:.2e} (<= {1e-6 * lam:.0e}); objective "
                         f"monotone (asserted in solver); null test exact")


def test_criterion_7_scanline_recovery():
    n, m, k = 128, 43, 5
    passes = 0
    worst_nmse = 0.0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        bins = np.sort(rng.choice(n, m, replace=False))
        model = ScanlineModel(np.ones(m), bins, n)
        support = rng.choice(n, k, replace=False)
        x_true = np.zeros(n)
        x_true[support] = rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k)
        y = model.forward(x_true)
        sigma = np.sqrt(np.mean(np.abs(y) ** 2)) * 10 ** (-40 / 20)
        y = y + sigma / np.sqrt(2) * (rng.standard_normal(m)
                                      + 1j * rng.standard_normal(m))
        lam = 0.015 * float(np.max(np.abs(model.adjoint(y))))
        x = recover_scanline(model, y, lam)
        sup_ok = set(np.flatnonzero(np.abs(x) > 1e-9)) == set(support)
        nmse = float(np.sum((x - x_true) ** 2) / np.sum(x_true ** 2))
        worst_nmse = max(worst_nmse, nmse)
        if sup_ok and nmse <= 1e-3:
            passes += 1
    ok = passes >= 18
    assert report(7, ok, f"sub-Nyquist scanlines (N=128, M=43, 5-sparse, "
                         f"40dB): {passes}/20 trials with exact support and "
                         f"NMSE<=1e-3 (need >=18); worst NMSE {worst_nmse:.1e}")


def test_criterion_8_svt_prox_correctness():
    rng = np.random.default_rng(8)
    worst_recon = 0.0
    for trial in range(50):
        shape = rng.choice([5, 6, 7]), rng.choice([4, 5, 6])
        y = rng.standard_normal(shape) * rng.choice([0.5, 1.0, 3.0])
        u, s, vh = svd(y)
        fro = np.sqrt(np.sum(y ** 2))
        recon = float(np.sqrt(np.sum(np.abs((u * s) @ vh - y) ** 2)))
        worst_recon = max(worst_recon, recon / max(fro, 1e-300))
        lam = float(rng.uniform(0.2, 1.5))
        x = cl.svt(y, lam).real

        def objective(mat):
            return 0.5 * np.sum((y - mat) ** 2) + lam * nuclear_norm_direct(mat)

        base = objective(x)
        for _ in range(100):
            delta = rng.standard_normal(shape) * rng.choice([1e-3, 0.1, 1.0])
            if objective(x + delta) + 1e-9 < base:
                assert report(8, False, "perturbation beat the SVT prox")
    ok = worst_recon <= 1e-10
    assert report(8, ok, f"SVT prox optimal under 50x100 perturbations; "
                         f"worst SVD reconstruction error {worst_recon:.1e} "
                         f"(<=1e-10)")


def rpca_synthetic(seed=42):
    rng = np.random.default_rng(seed)
    nm, t, r = 400, 60, 2
    u, _ = np.linalg.qr(rng.standard_normal((nm, r)))
    tt = np.arange(t)
    v_raw = np.column_stack([np.ones(t) + 0.1 * np.sin(2 * np.pi * tt / t),
                             np.linspace(-1.0, 1.0, t)])
    v, _ = np.linalg.qr(v_raw)
    tissue = (u * np.array([30.0, 15.0])) @ v.T
    rows = np.sort(rng.choice(nm, 20, replace=False))  # 5% of pixels
    blood = np.zeros((nm, t))
    for n_row, i in enumerate(rows):
        # one integer harmonic per flowing pixel: fast, mutually orthogonal
        freq = 8 + n_row
        amp = rng.uniform(0.5, 1.0)
        blood[i] = amp * np.sin(2 * np.pi * freq * tt / t
                                + rng.uniform(0, 2 * np.pi))
    y = tissue + blood + 1e-3 * rng.standard_normal((nm, t))
    return tissue, blood, y


def test_criterion_9_rpca_separation():
    t0 = time.time()
    tissue, blood, y = rpca_synthetic()
    x_t, x_b, iters = cl.rpca(y.astype(complex), lam1=0.3, lam2=0.25, mu1=0.5,
                              mu2=0.5, max_iters=500, tol=1e-6)
    err_t = float(np.linalg.norm(x_t.real - tissue) / np.linalg.norm(tissue))
    err_b = float(np.linalg.norm(x_b.real - blood) / np.linalg.norm(blood))
    elapsed = time.time() - t0
    ok = err_t <= 0.1 and err_b <= 0.1 and iters <= 500 and elapsed < 60.0
    assert report(9, ok, f"RPCA on 400x60 Casorati: tissue err {err_t:.3f}, "
                         f"blood err {err_b:.3f} (<=0.1), {iters} iterations "
                         f"(<=500), {elapsed:.1f}s (<60s); objective monotone "
                         f"(asserted in solver)")


ULM_HR = (96, 96)
ULM_SIGMA = 2.0
ULM_FACTOR = 4
ULM_LAMBDA_FRAC = 0.05
ULM_THRESHOLD = 0.10
ULM_RADIUS = 1


def localize_frame(frame):
    model = ulm.LocalizationModel(frame.shape, ulm.gaussian_psf(ULM_SIGMA), ULM_FACTOR)
    lam = ULM_LAMBDA_FRAC * ulm.max_correlation(frame, model)
    hr = ulm.localize_sparse(frame, model, lam, max_iters=700, tol=1e-5)
    return hr, ulm.detect_centroids(hr, ULM_THRESHOLD, ULM_RADIUS)


def test_criterion_10a_ulm_precision_recall():
    frames = ulm.simulate_bubbles(ULM_HR, 50, 10.0, ULM_SIGMA, ULM_FACTOR,
                                  30.0, 7)
    matched = detected = truths = 0
    err_sum = 0.0
    for frame in frames:
        _, dets = localize_frame(frame.image)
        p, r, e = ulm.score(dets, frame.truth, 1.0)
        k, n = len(dets), len(frame.truth)
        m = round(p * k)
        matched += m
        detected += k
        truths += n
        err_sum += e * m
    precision = matched / max(detected, 1)
    recall = matched / max(truths, 1)
    mean_err = err_sum / max(matched, 1)
    ok = precision >= 0.9 and recall >= 0.9 and mean_err <= 0.5
    assert report("10a", ok,
                  f"ULM sparse localization (50 frames, ~10 bubbles/frame, "
                  f"30dB): precision {precision:.3f}, recall {recall:.3f} "
                  f"(>=0.9), mean error {mean_err:.3f} HR px (<=0.5) at "
                  f"radius 1")


def count_clusters(support):
    labels = np.zeros(support.shape, dtype=int)
    count = 0
    for i, j in np.argwhere(support):
        if labels[i, j]:
            continue
        count += 1
        stack = [(i, j)]
        labels[i, j] = count
        while stack:
            a, b = stack.pop()
            for da in (-1, 0, 1):
                for db in (-1, 0, 1):
                    na, nb = a + da, b + db
                    if 0 <= na < support.shape[0] and 0 <= nb < support.shape[1] \
                            and support[na, nb] and not labels[na, nb]:
                        labels[na, nb] = count
                        stack.append((na, nb))
    return count


def test_criterion_10b_ulm_twin_bubble_resolution():
    # Two bubbles 3 HR px apart (below the 4.7 px LR PSF FWHM), 10 noise
    # seeds; the stated bound (distinct support clusters in >=8/10) is
    # asserted faithfully.  At 1.5 sigma separation the l1 recovery merges
    # the pair for every lambda (signed-l1 resolution limit; the measured
    # boundary for this operator is near 3 sigma); measured count printed.
    psf = ulm.gaussian_psf(ULM_SIGMA)
    hr_shape = (48, 48)
    pos = np.array([[24.0, 22.0], [24.0, 25.0]])
    clean = ulm.block_average(ulm.render_frame(hr_shape, pos, ULM_SIGMA),
                              ULM_FACTOR)
    noise = ulm.reference_peak(ULM_SIGMA, ULM_FACTOR) * 10 ** (-30 / 20)
    model = ulm.LocalizationModel(clean.shape, psf, ULM_FACTOR)
    resolved = 0
    for seed in range(10):
        rng = np.random.Generator(np.random.Philox(key=seed))
        frame = clean + noise * rng.standard_normal(clean.shape)
        lam = ULM_LAMBDA_FRAC * ulm.max_correlation(frame, model)
        hr = ulm.localize_sparse(frame, model, lam, max_iters=2000, tol=1e-7)
        if count_clusters(hr > 0.1 * hr.max()) == 2:
            resolved += 1
    ok = resolved >= 8
    assert report("10b", ok,
                  f"twin bubbles 3 HR px apart (PSF FWHM 4.7 px): resolved "
                  f"in {resolved}/10 seeds (stated bound >=8/10)")


def test_criterion_11_determinism(tmp_path):
    conf = ["--set", "demo.num_scatterers", "120",
            "--set", "sim.num_elements", "16",
            "--set", "bf.grid_nx", "32", "--set", "bf.grid_nz", "48"]
    dirs = [tmp_path / n for n in ("r1", "r2", "r4")]
    assert cli_run(["demo", "--out", str(dirs[0]), "--seed", "7"] + conf) == 0
    assert cli_run(["demo", "--out", str(dirs[1]), "--seed", "7"] + conf) == 0
    assert cli_run(["demo", "--out", str(dirs[2]), "--seed", "7",
                    "--threads", "4"] + conf) == 0
    maps = [{p.name: p.read_bytes() for p in sorted(d.iterdir())} for d in dirs]
    same_names = list(maps[0]) == list(maps[1]) == list(maps[2])
    same_bytes = all(maps[0][n] == maps[1][n] == maps[2][n] for n in maps[0])
    ok = same_names and same_bytes
    assert report(11, ok, f"demo --seed 7: {len(maps[0])} artifacts "
                          f"byte-identical across two runs and threads 1 vs 4")
