"""Spatio-temporal clutter suppression: Casorati matrices, SVT, RPCA.

A Casorati matrix is a plain (N*M, T) array: column t is frame t raveled
column-major (:func:`build_casorati`; :func:`unbuild_casorati` undoes it).
The RPCA solver splits one, Y, into a low-rank tissue component plus a
row-sparse flow component, minimizing

    0.5||Y - X_t - X_b||_F^2 + lam1 ||X_t||_* + lam2 ||X_b||_{1,2}

on the loop of :func:`numerics.proximal_gradient`, as a one-row stack of
the blocks (X_t, X_b) (:func:`rpca`).  Each proximal step returns its
output's penalty, so that an iteration computes each norm once.  The mixed
norm groups each spatial pixel's time series (l2 along time, l1
across pixels): a sparse set of flowing pixels, each temporally coherent.
Singular value thresholding needs no left singular vectors: it takes V and
s^2 from the eigendecomposition of the small (frames x frames) Gram Y^H Y,
the temporal covariance of SVD clutter filtering, and falls back to a full
SVD only for a threshold too small for the Gram to resolve.  Real frames
(B-mode or RF sequences) stay float64 through every step, Gram and SVD
included; complex (IQ) frames run in complex128.
"""

from __future__ import annotations

import numpy as np

from .core import working_dtype
from .errors import DimensionMismatchError, ShapeMismatchError
from .numerics import gram_eigh, proximal_gradient, svd


def build_casorati(frames) -> np.ndarray:
    """The (N*M, T) Casorati matrix, float64 or complex128, of T >= 2 equal
    (N, M) frames given as a (T, N, M) array or a list of frames."""
    try:
        stack = np.asarray(frames)
    except ValueError:               # a ragged list
        raise ShapeMismatchError("shape-mismatch: frames differ in shape") from None
    if stack.ndim == 0 or len(stack) < 2:
        raise DimensionMismatchError("dimension-mismatch: need T >= 2 frames")
    if stack.ndim != 3:
        raise ShapeMismatchError("shape-mismatch: frames are not 2-D")
    t, n, m = stack.shape
    if n * m == 0:
        raise DimensionMismatchError(f"dimension-mismatch: frames of {n} x {m} pixels")
    return np.asarray(stack.transpose(2, 1, 0).reshape(n * m, t),
                      dtype=working_dtype(stack))


def unbuild_casorati(data, spatial_shape) -> np.ndarray:
    """Inverse of :func:`build_casorati` for (N*M, T) data, such as a
    Casorati matrix's or a component split from it: the (T, N, M) stack of
    its frames, a bit-exact round trip."""
    n, m = spatial_shape
    return np.asarray(data).reshape((n, m, -1), order="F").transpose(2, 0, 1)


# The Gram gives each squared singular value to about r u s_1^2 absolute (u
# float64's eps, r the Gram's order, s_1 the largest singular value): an s
# below about sqrt(r u) s_1 is lost, and a kept component's s - tau carries
# an error of about r u s_1^2 / (2 tau).  Thresholds tau <= _GRAM_MARGIN *
# sqrt(r u) s_1 take the SVD instead, which bounds that error by
# sqrt(r u) s_1 / (2 _GRAM_MARGIN) and keeps svt(y, 0) exact.
_GRAM_MARGIN = 8.0
_EPS = np.finfo(np.float64).eps


def _svt_with_nuclear(y: np.ndarray, tau: float):
    """SVT_tau(Y) and its nuclear norm, from the smaller Gram of Y.

    With V, s^2 the Gram Y^H Y's eigenpairs, SVT_tau(Y) =
    ((Y V) * (1 - tau/s)) V^H over the components with s > tau, and its
    nuclear norm is sum(s - tau) over them.  A wide Y is thresholded as
    SVT_tau(Y^H)^H, so the Gram is the smaller of Y^H Y and Y Y^H.
    """
    wide = y.shape[1] > y.shape[0]
    a = y.conj().T if wide else y
    w, v = gram_eigh(a)
    if tau <= _GRAM_MARGIN * np.sqrt(w.size * _EPS * max(w[-1], 0.0)):
        u, s, vh = svd(y)
        s = np.maximum(s - tau, 0.0)
        return (u * s) @ vh, float(np.add.reduce(s))
    keep = np.count_nonzero(w > tau * tau)   # w ascends: the last ones
    v = v[:, w.size - keep:]
    s = np.sqrt(w[w.size - keep:])
    out = ((a @ v) * (1.0 - tau / s)) @ v.conj().T
    return (out.conj().T if wide else out), float(np.add.reduce(s - tau))


def svt(y, lam: float) -> np.ndarray:
    """Singular value thresholding, the proximal operator of the nuclear norm.

    Computed from the smaller Gram of ``y`` to about r u s_1^2 / lam (r =
    min(M, N), u float64's eps, s_1 = ||y||_2); a threshold too small for
    that takes the SVD, so ``svt(y, 0)`` reproduces ``y`` to roundoff.
    """
    if not lam >= 0:                 # NaN included
        raise ValueError("threshold must be >= 0")
    return _svt_with_nuclear(np.asarray(y, dtype=working_dtype(y)), lam)[0]


def _group_threshold_with_norm(x: np.ndarray, tau: float):
    """T12_tau(X), each row shrunk by tau in l2, and its mixed norm.

    A row of norm n > tau scales by 1 - tau / n and one at or below tau by
    1 - tau / tau = 0 exactly, for a finite tau > 0; tau = 0 is the identity.
    """
    # x * x has the bits of |x|^2 for real x, in one pass
    norms = np.sqrt(np.add.reduce(np.abs(x) ** 2 if np.iscomplexobj(x) else x * x, axis=1))
    if not tau:
        return x.copy(), float(np.add.reduce(norms))
    scale = 1.0 - tau / np.maximum(norms, tau)
    return x * scale[:, None], float(np.add.reduce(norms * scale))


def mixed_l12_threshold(x, lam: float) -> np.ndarray:
    """Group soft threshold, the proximal operator of the mixed l1,2 norm:
    each row (one pixel's time series) shrinks by ``lam`` in l2, to zero if
    its norm is at most ``lam``."""
    if not 0 <= lam < np.inf:        # NaN included
        raise ValueError("threshold must be >= 0 and finite")
    return _group_threshold_with_norm(np.asarray(x, dtype=working_dtype(x)), lam)[0]


def default_lambda1(y) -> float:
    """Scale-aware default: s_1(Y) / sqrt(max(NM, T))."""
    y = np.asarray(y, dtype=working_dtype(y))
    _, s, _ = svd(y)
    return float(s[0] / np.sqrt(max(y.shape)))


def rpca(y, lam1: float, lam2: float, mu1: float = 0.5, mu2: float = 0.5,
         max_iters: int = 500, tol: float = 1e-6):
    """Low-rank plus row-sparse separation of an (N*M, T) Casorati matrix.

    Returns (x_tissue, x_blood, iterations), both (N*M, T) arrays of ``y``'s
    working dtype.  The loop runs on the one-row stack of the blocks (X_t,
    X_b): the forward map X_t + X_b, the step (mu1 R, mu2 R) and the prox
    (SVT_{mu1 lam1}, T12_{mu2 lam2}).  mu1 = mu2 = 0.5 matches the
    Lipschitz bound of the coupled quadratic and always descends; a plain
    step that raises the objective raises ``step-too-large``.  Stops when
    each block's change ||X' - X|| / max(||X||, 1e-30) drops below ``tol``,
    a test with no scale of its own.  Zero weights are allowed: on Y = 0
    every iterate is zero and the solve stops after one.
    """
    if not (0 <= lam1 < np.inf and 0 <= lam2 < np.inf):
        raise ValueError("lam1 and lam2 must be >= 0 and finite")
    if not (0 < mu1 <= 1 and 0 < mu2 <= 1):
        raise ValueError("mu1 and mu2 must lie in (0, 1]")
    y = np.asarray(y, dtype=working_dtype(y))
    if y.ndim != 2:
        raise DimensionMismatchError("dimension-mismatch: rpca expects a 2-D matrix")
    mu = np.array([mu1, mu2])[:, None, None]

    def forward(x):
        return x[:, 0] + x[:, 1]

    def step(r):
        return mu * r[:, None]

    def prox(z):
        z[0, 0], nuc = _svt_with_nuclear(z[0, 0], mu1 * lam1)
        z[0, 1], l12 = _group_threshold_with_norm(z[0, 1], mu2 * lam2)
        return lam1 * nuc + lam2 * l12

    x, iters, _ = proximal_gradient(forward, step, prox, y[None], (2,) + y.shape,
                                    max_iters, tol, blocks=2, floor=1e-60,
                                    detail=f" (mu1={mu1:.3e}, mu2={mu2:.3e})")
    return x[0, 0], x[0, 1], iters


def power_doppler(x_blood, spatial_shape) -> np.ndarray:
    """Per-pixel temporal l2 of an (N*M, T) flow component, as an (N, M) map."""
    power = np.sqrt(np.sum(np.abs(np.asarray(x_blood)) ** 2, axis=1))
    return power.reshape(spatial_shape, order="F")
