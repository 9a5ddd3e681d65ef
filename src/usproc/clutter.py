"""Spatio-temporal clutter suppression: Casorati matrices, SVT, RPCA.

The RPCA solver splits a Casorati matrix Y into a low-rank tissue component
plus a row-sparse flow component by alternating proximal-gradient steps

    G         = Y - X_tissue - X_blood
    X_tissue <- SVT_{mu1 lam1}(X_tissue + mu1 G)
    X_blood  <- T12_{mu2 lam2}(X_blood + mu2 G)

minimizing 0.5||Y - X_t - X_b||_F^2 + lam1 ||X_t||_* + lam2 ||X_b||_{1,2}.
The mixed norm groups each spatial pixel's time series (l2 along time, l1
across pixels): a sparse set of flowing pixels, each temporally coherent.
Real frames (B-mode or RF sequences) stay float64 through every step, SVDs
included; complex (IQ) frames run in complex128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ShapeMismatchError, StepTooLargeError
from .numerics import svd, working_dtype


@dataclass(frozen=True)
class CasoratiMatrix:
    """Frames vectorized as columns of an (N*M, T) space-time matrix.

    ``data`` is float64 for real frames and complex128 for complex ones.
    """

    data: np.ndarray
    spatial_shape: tuple[int, int]
    num_frames: int

    def __post_init__(self):
        d = np.asarray(self.data, dtype=working_dtype(self.data))
        n, m = self.spatial_shape
        if d.ndim != 2 or d.shape != (n * m, self.num_frames):
            raise DimensionMismatchError(
                f"dimension-mismatch: data {d.shape} vs spatial {self.spatial_shape} "
                f"x T={self.num_frames}")
        if self.num_frames < 2:
            raise DimensionMismatchError("dimension-mismatch: need T >= 2 frames")
        d.flags.writeable = False
        object.__setattr__(self, "data", d)


def build_casorati(frames) -> CasoratiMatrix:
    """Stack equally-shaped frames column-major into a Casorati matrix."""
    frames = [np.asarray(f) for f in frames]
    if len(frames) < 2:
        raise DimensionMismatchError("dimension-mismatch: need T >= 2 frames")
    shape = frames[0].shape
    for f in frames:
        if f.shape != shape or f.ndim != 2:
            raise ShapeMismatchError("shape-mismatch: frames differ in shape")
    cols = np.stack([f.ravel(order="F") for f in frames], axis=1)
    return CasoratiMatrix(cols, shape, len(frames))


def unbuild_casorati(cas: CasoratiMatrix) -> list[np.ndarray]:
    """Inverse of :func:`build_casorati`; bit-exact round trip."""
    n, m = cas.spatial_shape
    return [cas.data[:, t].reshape((n, m), order="F")
            for t in range(cas.num_frames)]


def _svt_with_nuclear(y: np.ndarray, lam: float):
    res = svd(y)
    s = np.maximum(res.singular_values - lam, 0.0)
    out = (res.u * s) @ res.v.conj().T
    return out, float(np.sum(s))


def svt(y, lam: float) -> np.ndarray:
    """Singular value thresholding, the proximal operator of the nuclear norm."""
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    return _svt_with_nuclear(np.asarray(y, dtype=working_dtype(y)), lam)[0]


def mixed_l12_threshold(x, lam: float) -> np.ndarray:
    """Group soft threshold with one group per spatial row (time series)."""
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    x = np.asarray(x, dtype=working_dtype(x))
    norms = np.sqrt(np.sum(np.abs(x) ** 2, axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(norms > 0.0,
                         np.maximum(1.0 - lam / np.maximum(norms, 1e-300), 0.0), 0.0)
    return x * scale[:, None]


def mixed_l12_norm(x) -> float:
    return float(np.sum(np.sqrt(np.sum(np.abs(np.asarray(x)) ** 2, axis=1))))


def default_lambda1(y) -> float:
    """Scale-aware default: s_1(Y) / sqrt(max(NM, T))."""
    y = np.asarray(y, dtype=working_dtype(y))
    s1 = svd(y).singular_values[0]
    return float(s1 / np.sqrt(max(y.shape)))


def rpca(cas: CasoratiMatrix, lam1: float, lam2: float, mu1: float = 0.5,
         mu2: float = 0.5, max_iters: int = 500, tol: float = 1e-6):
    """Low-rank plus row-sparse separation of a Casorati matrix.

    Returns (x_tissue, x_blood, iterations), both of the Casorati data's
    dtype: a real Casorati matrix is separated in float64 throughout, its
    SVDs included, a complex one in complex128.  Both proximal steps threshold
    with mu_i * lam_i so the iteration is a proximal-gradient step on the
    joint objective, whose monotone descent is asserted every iteration
    (``step-too-large`` otherwise; mu1 = mu2 = 0.5 matches the Lipschitz
    bound of the coupled quadratic and always descends).  Zero weights are
    allowed: on Y = 0 every iterate is zero and the solve stops after one.
    """
    if not (lam1 >= 0 and lam2 >= 0):
        raise ValueError("lam1 and lam2 must be >= 0")
    if not (0 < mu1 <= 1 and 0 < mu2 <= 1):
        raise ValueError("mu1 and mu2 must lie in (0, 1]")
    y = cas.data
    x_t = np.zeros_like(y)
    x_b = np.zeros_like(y)
    obj = 0.5 * float(np.sum(np.abs(y) ** 2))
    resid = y                        # Y - X_t - X_b at X = 0
    iters = 0
    for _ in range(max_iters):
        x_t_new, nuc = _svt_with_nuclear(x_t + mu1 * resid, mu1 * lam1)
        x_b_new = mixed_l12_threshold(x_b + mu2 * resid, mu2 * lam2)
        iters += 1
        resid = y - x_t_new - x_b_new
        obj_new = 0.5 * float(np.sum(np.abs(resid) ** 2)) \
            + lam1 * nuc + lam2 * mixed_l12_norm(x_b_new)
        if obj_new > obj + 1e-12 * max(1.0, abs(obj)):
            raise StepTooLargeError(
                f"step-too-large: RPCA objective rose {obj:.6e} -> {obj_new:.6e} "
                f"at iteration {iters}")
        dt = np.sqrt(np.sum(np.abs(x_t_new - x_t) ** 2)) \
            / max(np.sqrt(np.sum(np.abs(x_t_new) ** 2)), 1e-30)
        db = np.sqrt(np.sum(np.abs(x_b_new - x_b) ** 2)) \
            / max(np.sqrt(np.sum(np.abs(x_b_new) ** 2)), 1e-30)
        x_t, x_b, obj = x_t_new, x_b_new, obj_new
        if dt < tol and db < tol:
            break
    return x_t, x_b, iters


def power_doppler(x_blood: CasoratiMatrix | np.ndarray,
                  spatial_shape=None) -> np.ndarray:
    """Per-pixel temporal l2 of the flow component, as a spatial map."""
    if isinstance(x_blood, CasoratiMatrix):
        data, shape = x_blood.data, x_blood.spatial_shape
    else:
        data, shape = np.asarray(x_blood), spatial_shape
    power = np.sqrt(np.sum(np.abs(data) ** 2, axis=1))
    if shape is None:
        return power
    return power.reshape(shape, order="F")
