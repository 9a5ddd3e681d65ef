"""Beamformers over TOF-corrected data: DAS, MV, Wiener, CF, iMAP, compounding.

Each estimator maps a pixel's focused channel vector y_r to a reflectivity
estimate.  DAS, CF and iMAP are array expressions over the whole image; MV,
Wiener and MV compounding build one lateral column's covariances as an
(Rz, L, L) stack and solve it in one batched Hermitian solve, which caps
memory at one column's stack.  Pixels whose focused vector is entirely zero
yield 0 (avoids 0/0 in the adaptive weights at empty corners), and so do the
adaptive estimators' pixels whose covariance trace is below
``_TINY_TRACE``: their data are so faint (|y| below about 1e-90) that the
diagonal loading eps * trace / L and the weights ~ 1 / trace would reach the
subnormal or the overflow range.  Real focused data (channel data from an
:class:`~usproc.core.RfDataCube`) is beamformed in float64, covariances and
solves included; complex (IQ) data in complex128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ApodizationWindow, BeamformedImage, FocusedTensor, working_dtype
from .errors import GridMismatchError, ShapeMismatchError
from .numerics import solve_hermitian

MEAN = "mean"
MV = "mv"
# adaptive estimators treat pixels whose covariance has a smaller trace as empty
_TINY_TRACE = 2.0 ** -600


@dataclass(frozen=True)
class CovarianceConfig:
    """Spatial-smoothing setup for the per-pixel covariance estimate."""

    subaperture_length: int      # L, 1 <= L <= C
    temporal_half_window: int = 2   # K axial neighbors on each side
    loading_fraction: float = 0.01  # epsilon, diagonal loading vs trace/L

    def __post_init__(self):
        if self.subaperture_length < 1:
            raise ValueError("subaperture length must be >= 1")
        if self.temporal_half_window < 0:
            raise ValueError("temporal half window must be >= 0")
        if self.loading_fraction < 0:
            raise ValueError("loading fraction must be >= 0")


def default_covariance_config(num_channels: int) -> CovarianceConfig:
    """L = C/2 (floor, min 1), with the field defaults K = 2, eps = 0.01."""
    return CovarianceConfig(max(num_channels // 2, 1))


def das(focused: FocusedTensor, apod: ApodizationWindow) -> BeamformedImage:
    """Delay-and-sum: per-pixel x_r = (1/C) w^H y_r."""
    vals = focused.values
    c = focused.num_channels
    if apod.weights.shape != (c,):
        raise ShapeMismatchError(
            f"shape-mismatch: {apod.weights.size} weights for {c} channels")
    rf = np.einsum("c,cxz->xz", np.conj(apod.weights), vals) / c
    return BeamformedImage(rf, focused.grid)


def estimate_covariance(neighborhood, cfg: CovarianceConfig) -> np.ndarray:
    """L x L covariance averaged over subapertures and axial neighbors.

    ``neighborhood`` is (C, n) with the pixel's own channel vector and its
    clamped 2K+1 axial neighbors as columns.  Diagonal loading adds
    eps * trace / L to every diagonal entry.
    """
    nb = np.asarray(neighborhood, dtype=working_dtype(neighborhood))
    if nb.ndim == 1:
        nb = nb[:, None]
    c = nb.shape[0]
    ell = cfg.subaperture_length
    if ell > c:
        raise ShapeMismatchError(f"shape-mismatch: L={ell} exceeds C={c}")
    wins = sliding_window_view(nb, ell, axis=0)
    rows = wins.reshape(-1, ell)
    gamma = (rows.T @ rows.conj()) / rows.shape[0]
    gamma = 0.5 * (gamma + gamma.conj().T)
    if cfg.loading_fraction > 0:
        gamma = gamma + (cfg.loading_fraction * np.trace(gamma).real / ell) \
            * np.eye(ell)
    return gamma


def _smoothed_covariances(rows, k: int, eps: float) -> np.ndarray:
    """Loaded covariances of a column's pixels from their snapshot rows.

    ``rows`` is (Rz, m, n): each pixel's m snapshot vectors (subapertures
    for MV, lateral neighbors for compounding).  Pixel z averages the outer
    products over its axial +-k window clamped to the column, as a sum of
    2k+1 shifted slices of a zero-padded stack: differences of a cumulative
    sum would lose faint pixels below a bright echo.  Loading adds
    eps * trace / n to the diagonal.
    """
    nz, m, n = rows.shape
    pad = np.pad(np.swapaxes(rows, 1, 2) @ np.conj(rows), ((k, k), (0, 0), (0, 0)))
    count = m * np.convolve(np.ones(nz), np.ones(2 * k + 1))[k:k + nz]
    gamma = sum(pad[d:d + nz] for d in range(2 * k + 1)) / count[:, None, None]
    gamma = 0.5 * (gamma + np.conj(np.swapaxes(gamma, 1, 2)))
    if eps > 0:
        load = eps * np.trace(gamma, axis1=1, axis2=2).real / n
        gamma = gamma + load[:, None, None] * np.eye(n)
    return gamma


def _column_weights(rows, block, live, cfg, covariance_fn):
    """Weights w = u / (1^H u), u = Gamma^-1 1, of one column's live pixels
    from one stacked solve, and their noise power w^H Gamma w = 1 / (1^H u).

    A custom ``covariance_fn`` is called per live pixel on its clamped axial
    +-K slice of the (n, ..., Rz) ``block``, flattened to (n, samples).
    Pixels whose covariance trace is below ``_TINY_TRACE`` are dropped: the
    returned copy of ``live`` marks the pixels the two arrays describe.
    """
    k = cfg.temporal_half_window
    if covariance_fn is None:
        gamma = _smoothed_covariances(rows, k, cfg.loading_fraction)[live]
    else:
        gamma = np.stack([covariance_fn(
            block[..., max(iz - k, 0):iz + k + 1].reshape(block.shape[0], -1), cfg)
            for iz in np.flatnonzero(live)])
    solvable = np.trace(gamma, axis1=1, axis2=2).real >= _TINY_TRACE
    live = live.copy()
    live[live] = solvable
    gamma = gamma[solvable]
    u = solve_hermitian(gamma, np.ones(gamma.shape[:-1], dtype=gamma.dtype))
    gain = np.sum(u, axis=-1, keepdims=True)
    return live, u / gain, 1.0 / gain[:, 0].real


def _capon(focused: FocusedTensor, cfg, covariance_fn, postfilter: bool):
    """MV (with ``postfilter``, Wiener) image, one batched solve per column."""
    if cfg is None:
        cfg = default_covariance_config(focused.num_channels)
    ell, c = cfg.subaperture_length, focused.num_channels
    if ell > c:
        raise ShapeMismatchError(f"shape-mismatch: L={ell} exceeds C={c}")
    rf = np.zeros(focused.grid.shape, dtype=focused.values.dtype)
    for ix in range(rf.shape[0]):
        col = focused.values[:, ix, :]
        live = np.any(col, axis=0)
        if not np.any(live):
            continue
        live, w, noise = _column_weights(
            sliding_window_view(col.T, ell, axis=1), col, live, cfg,
            covariance_fn)
        subs = sliding_window_view(col[:, live].T, w.shape[-1], axis=1)
        est = np.mean((subs @ np.conj(w)[:, :, None])[..., 0], axis=-1)
        if postfilter:  # noise > 0: 1^H Gamma^-1 1 > 0 for positive-definite Gamma
            sig = np.abs(est) ** 2
            est = sig / (sig + noise) * est
        # a complex custom covariance gives real data complex weights
        rf = rf.astype(np.result_type(rf, est), copy=False)
        rf[ix, live] = est
    return BeamformedImage(rf, focused.grid)


def mv(focused: FocusedTensor, cfg: CovarianceConfig | None = None,
       covariance_fn=None) -> BeamformedImage:
    """Minimum-variance (Capon) beamformer with spatial smoothing.

    Per pixel: w = Gamma^-1 1 normalized to unity gain (1^H w = 1), estimate
    averaged over the sliding subapertures, with Gamma the
    :func:`estimate_covariance` of the pixel's clamped axial +-K neighborhood
    (computed a column at a time).  A ``covariance_fn`` with that signature
    may replace it, e.g. for analysis with a known covariance.
    """
    return _capon(focused, cfg, covariance_fn, postfilter=False)


def wiener(focused: FocusedTensor, cfg: CovarianceConfig | None = None,
           covariance_fn=None) -> BeamformedImage:
    """MV beamformer followed by the Wiener post-filter.

    The unknown signal power uses the plug-in estimate |x_MV|^2, scaling the
    MV output by H = sigma_x^2 / (sigma_x^2 + w^H Gamma w).
    """
    return _capon(focused, cfg, covariance_fn, postfilter=True)


def coherence_factor(focused: FocusedTensor) -> np.ndarray:
    """CF = |1^H y_r|^2 / (C y_r^H y_r) in [0, 1]; defined as 0 where y = 0."""
    vals = focused.values
    c = focused.num_channels
    num = np.abs(vals.sum(axis=0)) ** 2
    den = c * np.sum(np.abs(vals) ** 2, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cf = np.where(den > 0.0, num / np.maximum(den, 1e-300), 0.0)
    return np.minimum(cf, 1.0)


def cf_weighted_das(focused: FocusedTensor,
                    apod: ApodizationWindow) -> BeamformedImage:
    """Coherence-factor post-filtered DAS: x_CF = CF * x_DAS."""
    base = das(focused, apod)
    return BeamformedImage(coherence_factor(focused) * base.rf, focused.grid)


def imap(focused: FocusedTensor, iterations: int = 2) -> BeamformedImage:
    """Iterative MAP beamformer with data-driven variance estimates.

    Starting from the DAS estimate, alternate
    sigma_x^2 = |x|^2, sigma_n^2 = ||y - 1 x||^2 / C and
    x <- sigma_x^2 / (C sigma_x^2 + sigma_n^2) * 1^H y.
    Two iterations are the standard operating point.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    vals = focused.values
    c = focused.num_channels
    total = vals.sum(axis=0)          # 1^H y, fixed across iterations
    x = total / c                     # DAS initialization
    for _ in range(iterations):
        sig_x = np.abs(x) ** 2
        sig_n = np.mean(np.abs(vals - x[None]) ** 2, axis=0)
        den = c * sig_x + sig_n
        with np.errstate(invalid="ignore", divide="ignore"):
            x = np.where(den > 0.0, sig_x / np.maximum(den, 1e-300) * total, 0.0)
    return BeamformedImage(x, focused.grid)


def compound(images, mode: str = MEAN, cfg: CovarianceConfig | None = None,
             covariance_fn=None) -> BeamformedImage:
    """Aggregate per-transmit images: coherent mean or MV over transmits.

    MV mode estimates the transmit covariance per pixel from its clamped
    (2K+1)^2 spatial neighborhood with diagonal loading eps, a column of
    pixels at a time as for :func:`mv`.
    """
    images = list(images)
    if not images:
        raise ShapeMismatchError("shape-mismatch: need at least one image")
    grid = images[0].grid
    for img in images[1:]:
        if not (np.array_equal(img.grid.lateral_coords, grid.lateral_coords)
                and np.array_equal(img.grid.axial_coords, grid.axial_coords)):
            raise GridMismatchError("grid-mismatch: images share no common grid")
    stack = np.stack([img.rf for img in images])  # (E, Rx, Rz)
    if mode == MEAN:
        return BeamformedImage(stack.mean(axis=0), grid)
    if mode != MV:
        raise ValueError(f"unknown compounding mode {mode!r}")

    if cfg is None:
        cfg = CovarianceConfig(stack.shape[0])
    k = cfg.temporal_half_window
    rf = np.zeros(grid.shape, dtype=stack.dtype)
    for ix in range(rf.shape[0]):
        center = stack[:, ix, :]
        live = np.any(center, axis=0)
        if not np.any(live):
            continue
        block = stack[:, max(ix - k, 0):ix + k + 1, :]   # (E, lateral, Rz)
        live, w, _ = _column_weights(block.transpose(2, 1, 0), block, live,
                                     cfg, covariance_fn)
        est = np.sum(np.conj(w) * center[:, live].T, axis=-1)
        rf = rf.astype(np.result_type(rf, est), copy=False)
        rf[ix, live] = est
    return BeamformedImage(rf, grid)
