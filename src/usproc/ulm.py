"""Ultrasound localization microscopy at desk scale.

Microbubbles are point scatterers on a high-resolution (HR) grid observed
through a Gaussian PSF and a block-averaging downsampler.  Localization is
either classic centroid detection on the low-resolution (LR) frame or sparse
coding: restart-accelerated ISTA (:func:`sparse.ista`) on the HR grid with
forward = convolve-then-downsample, which
is what resolves bubbles below the diffraction-limited PSF width.  That
model, a :class:`LocalizationModel` built once for a frame shape, PSF and
factor, applies the forward map as separable per-axis matrices, one pair
per rank-one term of the PSF, and a stack of frames is solved as one ISTA
batch whose every frame gets the bits of its solve alone.  ISTA takes its
step from the model's norm, in closed form from those matrices' norms.

Coordinates are (x, z) = (axis 0, axis 1) fractional HR pixel indices
throughout.  A frame's detections are a plain float64 (n, 3) array of rows
(x, z, intensity): :func:`detect_centroids` returns one, :func:`accumulate`
takes a sequence of them and :func:`score` one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .sparse import SparseProblem, ista, real_array


@dataclass(frozen=True)
class BubbleFrame:
    """One LR frame plus its ground-truth HR bubble positions."""

    image: np.ndarray   # (H0/f, H1/f) low-resolution frame
    truth: np.ndarray   # (n, 2) sub-pixel HR (x, z) positions

    def __post_init__(self):
        img = np.asarray(self.image, dtype=np.float64)
        tr = np.asarray(self.truth, dtype=np.float64).reshape(-1, 2)
        if not np.all(np.isfinite(tr)):
            raise ValueError("truth positions must be finite")
        img.flags.writeable = False
        tr.flags.writeable = False
        object.__setattr__(self, "image", img)
        object.__setattr__(self, "truth", tr)


def psf_radius(sigma: float) -> int:
    """Half-width r = ceil(4 sigma) of :func:`gaussian_psf`'s kernel."""
    return math.ceil(4.0 * sigma)


def gaussian_psf(sigma: float) -> np.ndarray:
    """Unit-peak Gaussian kernel on (2r+1)^2 pixels, r = :func:`psf_radius`."""
    if sigma <= 0:
        raise ValueError("psf sigma must be > 0")
    r = psf_radius(sigma)
    d = np.arange(-r, r + 1)
    return np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2.0 * sigma * sigma))


def block_average(x: np.ndarray, factor: int) -> np.ndarray:
    h0, h1 = x.shape
    if h0 % factor or h1 % factor:
        raise DimensionMismatchError(
            f"dimension-mismatch: shape {x.shape} not divisible by factor {factor}")
    return x.reshape(h0 // factor, factor, h1 // factor, factor).mean(axis=(1, 3))


def render_frame(hr_shape, positions, sigma) -> np.ndarray:
    """Ground-truth HR frame: unit Gaussians at sub-pixel positions."""
    frame = np.zeros(hr_shape)
    if positions.size == 0:
        return frame
    gi = np.arange(hr_shape[0])[:, None]
    gj = np.arange(hr_shape[1])[None, :]
    for px, pz in positions:
        frame += np.exp(-((gi - px) ** 2 + (gj - pz) ** 2) / (2.0 * sigma * sigma))
    return frame


def reference_peak(psf_sigma: float, downsample_factor: int) -> float:
    """LR peak of one centered unit bubble; the SNR reference amplitude."""
    r = psf_radius(psf_sigma) + downsample_factor
    size = 2 * r * downsample_factor
    hr = render_frame((size, size), np.array([[size / 2.0, size / 2.0]]), psf_sigma)
    return float(block_average(hr, downsample_factor).max())


def simulate_bubbles(hr_shape, n_frames: int, mean_bubbles_per_frame: float,
                     psf_sigma: float, downsample_factor: int,
                     snr_db: float | None, seed: int) -> list[BubbleFrame]:
    """Poisson bubble counts at uniform sub-pixel HR positions, PSF-blurred,
    block-averaged to LR, plus white Gaussian noise at the given SNR
    (referenced to the LR peak of a single unit bubble)."""
    if downsample_factor < 1:
        raise ValueError("downsample factor must be >= 1")
    if psf_sigma <= 0:
        raise ValueError("psf sigma must be > 0")
    h0, h1 = hr_shape
    if h0 % downsample_factor or h1 % downsample_factor:
        raise DimensionMismatchError(
            f"dimension-mismatch: hr_shape {hr_shape} not divisible by "
            f"factor {downsample_factor}")
    rng = np.random.Generator(np.random.Philox(
        key=((seed & 0xFFFFFFFFFFFFFFFF) << 64) | 0xB0BB1E5))
    if snr_db is not None and math.isfinite(snr_db):
        noise_std = reference_peak(psf_sigma, downsample_factor) \
            * 10.0 ** (-snr_db / 20.0)
    else:
        noise_std = 0.0
    frames = []
    for _ in range(n_frames):
        count = int(rng.poisson(mean_bubbles_per_frame))
        pos = np.column_stack([rng.uniform(0.0, h0, count),
                               rng.uniform(0.0, h1, count)])
        lr = block_average(render_frame(hr_shape, pos, psf_sigma), downsample_factor)
        if noise_std > 0.0:
            lr = lr + noise_std * rng.standard_normal(lr.shape)
        frames.append(BubbleFrame(lr, pos))
    return frames


def _axis_operators(taps, n: int, factor: int) -> np.ndarray:
    """(r, n/f, n) stack: per row of ``taps`` (r, k), 'same' 1-D convolution
    with that row (the full convolution cropped at offset (k-1)//2), then
    the mean of each f-sample block."""
    k = taps.shape[1]
    lag = np.arange(n)[:, None] + (k - 1) // 2 - np.arange(n)[None, :]
    conv = np.where((lag >= 0) & (lag < k),
                    taps[:, np.clip(lag, 0, k - 1)], 0.0)
    return conv.reshape(taps.shape[0], n // factor, factor, n).mean(axis=2)


class LocalizationModel:
    """The localization model: convolve the HR image with a unit-peak PSF,
    then block-average it by ``factor``, as forward and adjoint maps on
    flattened float64 frames.  The PSF must be real: a complex one raises a
    ``ValueError`` rather than losing its imaginary part, as do complex
    frames passed to :func:`max_correlation` or :func:`localize_sparse`.

    The PSF is split by SVD into its r numerically nonzero rank-one terms
    (numpy's ``matrix_rank`` tolerance); a Gaussian has r = 1.  Term k
    becomes one matrix per axis, A0_k (H/f, H) and A1_k (W/f, W), so
    forward(X) = sum_k A0_k X A1_k^T and adjoint(Y) = sum_k A0_k^T Y A1_k,
    added in k order.  Both maps take a (..., H*W) or (..., H/f*W/f) stack
    of flattened frames and map each frame as they map it alone: every term
    is a 2-D product of the same views, whatever the stack.
    """

    def __init__(self, lr_shape, psf, factor: int):
        self.lr_shape = tuple(lr_shape)
        psf = real_array(psf, "ULM psf")
        if factor < 1:
            raise ValueError("downsample factor must be >= 1")
        self.hr_shape = (self.lr_shape[0] * factor, self.lr_shape[1] * factor)
        if 0 in self.hr_shape or psf.size == 0:
            raise DimensionMismatchError(
                "dimension-mismatch: frame and psf need at least one pixel")
        if not np.all(np.isfinite(psf)):
            raise ValueError("psf must be finite")
        if abs(psf.max() - 1.0) > 1e-9:
            raise ValueError("psf must be normalized to unit peak")
        u, s, vh = np.linalg.svd(psf, full_matrices=False)
        rank = int(np.sum(s > s[0] * max(psf.shape) * np.finfo(np.float64).eps))
        self._a0 = _axis_operators((u[:, :rank] * s[:rank]).T, self.hr_shape[0], factor)
        self._a1 = _axis_operators(vh[:rank], self.hr_shape[1], factor)
        # transposed views, not copies: BLAS's transpose flag sets the bits
        self._a0_t = self._a0.transpose(0, 2, 1)
        self._a1_t = self._a1.transpose(0, 2, 1)

    @functools.cached_property
    def norm(self) -> float:
        """sum_k ||A0_k||_2 ||A1_k||_2 over terms A0_k (x) A1_k of these norms,
        on first use: the model's spectral norm for r = 1, a bound on it else."""
        return float(np.sum(np.linalg.norm(self._a0, 2, axis=(1, 2))
                            * np.linalg.norm(self._a1, 2, axis=(1, 2))))

    @staticmethod
    def _terms(left, v, right, shape):
        v = v.reshape(v.shape[:-1] + shape)
        out = left[0] @ v @ right[0]
        for k in range(1, left.shape[0]):
            out += left[k] @ v @ right[k]
        return out.reshape(v.shape[:-2] + (-1,))

    def forward(self, x):
        return self._terms(self._a0, x, self._a1_t, self.hr_shape)

    def adjoint(self, y):
        return self._terms(self._a0_t, y, self._a1, self.lr_shape)


def _flat_frames(frames, model: LocalizationModel) -> np.ndarray:
    """An (h, w) frame or an (F, h, w) stack as float64 rows of h*w values,
    checked against the model's LR shape; complex frames are rejected."""
    frames = real_array(frames, "ULM frames")
    if frames.shape[-2:] != model.lr_shape:
        raise DimensionMismatchError(f"dimension-mismatch: frames {frames.shape} "
                                     f"do not end in LR shape {model.lr_shape}")
    return frames.reshape(frames.shape[:-2] + (-1,))


def max_correlation(frames, model: LocalizationModel):
    """||A^H y||_inf of the localization model; the natural lambda scale.

    A float for one (h, w) frame; an (F,) array for an (F, h, w) stack,
    each entry equal to that frame's value alone.
    """
    scale = np.max(np.abs(model.adjoint(_flat_frames(frames, model))), axis=-1)
    return float(scale) if np.ndim(scale) == 0 else scale


def localize_sparse(frames, model: LocalizationModel, lam, *,
                    max_iters: int = 2000, tol: float = 1e-6) -> np.ndarray:
    """Sparse-coding localization: ISTA on the HR grid, nonneg-clamped.

    ISTA runs in float64 with its step from ``model.norm``; for a PSF of
    rank r > 1 that bound makes the step smaller than it need be (2.09 and
    2.70 times the dense model's norm for the tests' unit-peak 9 x 9 PSFs
    of rank 4 and 7, 8 x 8 frames, factor 2).  A model that maps everything
    to zero gives zeros.  An (F, h, w) stack of frames, with ``lam`` one
    weight or one per frame, is solved as one batch and gives (F, H, W)
    maps, each equal to that frame's solve alone.
    """
    y = _flat_frames(frames, model)
    problem = SparseProblem(model.forward, model.adjoint, y, lam, model.norm,
                            max_iters=max_iters, tol=tol, real=True)
    x, _, _ = ista(problem)
    return np.clip(x.reshape(y.shape[:-1] + model.hr_shape), 0.0, None)


def detect_centroids(frame, threshold_fraction: float,
                     window_radius: int) -> np.ndarray:
    """Thresholded local maxima refined to intensity-weighted centroids, as a
    new float64 (n, 3) array of (x, z, intensity) rows, (0, 3) for none.

    Maxima closer than ``window_radius`` (Euclidean) are merged keeping the
    brighter one; ties break to the smaller row then column index.  The
    merge and window arithmetic is in Python ints, so any radius >= 1 works.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError("threshold fraction must lie in (0, 1)")
    if window_radius < 1:
        raise ValueError("window radius must be >= 1")
    frame = np.asarray(frame, dtype=np.float64)
    peak = frame.max() if frame.size else 0.0
    pad = np.pad(frame, 1, mode="constant", constant_values=-np.inf)
    is_max = np.ones(frame.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = pad[1 + di:1 + di + frame.shape[0],
                          1 + dj:1 + dj + frame.shape[1]]
            is_max &= frame >= shifted
    cand = np.argwhere(is_max & (frame > threshold_fraction * peak))
    order = np.lexsort((cand[:, 1], cand[:, 0], -frame[cand[:, 0], cand[:, 1]]))
    r = window_radius
    kept: list[list[int]] = []
    for p in cand[order].tolist():
        if all((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 >= r * r for q in kept):
            kept.append(p)
    rows = []
    for px, pz in kept:
        xlo, xhi = max(px - r, 0), min(px + r + 1, frame.shape[0])
        zlo, zhi = max(pz - r, 0), min(pz + r + 1, frame.shape[1])
        win = np.clip(frame[xlo:xhi, zlo:zhi], 0.0, None)
        total = win.sum()
        if total > 0:
            gi = np.arange(xlo, xhi)[:, None]
            gj = np.arange(zlo, zhi)[None, :]
            cx = float((win * gi).sum() / total)
            cz = float((win * gj).sum() / total)
        else:
            cx, cz = float(px), float(pz)
        rows.append([cx, cz, frame[px, pz]])
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3)


def accumulate(sets, hr_shape) -> np.ndarray:
    """2-D histogram on the HR grid of a sequence of (n, 3) detection arrays;
    sums to the detection count.  A detection counts in the pixel nearest
    to it: pixel i's centre is coordinate i, so its bin is [i - 1/2, i + 1/2)
    and a half-integer coordinate rounds up.  A NaN or infinite coordinate
    raises ``ValueError``."""
    det = np.concatenate([np.zeros((0, 3))] + [
        np.asarray(d, dtype=np.float64).reshape(-1, 3) for d in sets])
    if not np.isfinite(det[:, :2]).all():
        raise ValueError("detections must be finite")
    # round and clip as floats, so a coordinate far off the grid casts safely
    i = np.clip(np.floor(det[:, 0] + 0.5), 0, hr_shape[0] - 1).astype(np.intp)
    j = np.clip(np.floor(det[:, 1] + 0.5), 0, hr_shape[1] - 1).astype(np.intp)
    counts = np.bincount(i * hr_shape[1] + j, minlength=hr_shape[0] * hr_shape[1])
    return counts.reshape(hr_shape).astype(np.float64)


def score(detections, truth, match_radius: float):
    """Greedy nearest-first one-to-one matching within ``match_radius``.

    Returns (precision, recall, mean_error).  Conventions: no detections
    means no false positives (precision 1); empty truth means nothing to
    miss (recall 1); mean_error is 0 when nothing matched.
    """
    if match_radius <= 0:
        raise ValueError("match radius must be > 0")
    det = np.asarray(detections, dtype=np.float64).reshape(-1, 3)
    tru = np.asarray(truth, dtype=np.float64).reshape(-1, 2)
    k, n = det.shape[0], tru.shape[0]
    if k == 0 or n == 0:
        return (1.0 if k == 0 else 0.0), (1.0 if n == 0 else 0.0), 0.0
    dist = np.sqrt((det[:, 0:1] - tru[None, :, 0]) ** 2
                   + (det[:, 1:2] - tru[None, :, 1]) ** 2)
    pairs = [(dist[i, j], i, j) for i in range(k) for j in range(n)
             if dist[i, j] <= match_radius]
    pairs.sort()
    used_d: set[int] = set()
    used_t: set[int] = set()
    errors = []
    for d, i, j in pairs:
        if i in used_d or j in used_t:
            continue
        used_d.add(i)
        used_t.add(j)
        errors.append(d)
    matched = len(errors)
    mean_error = float(np.mean(errors)) if errors else 0.0
    return matched / k, matched / n, mean_error
