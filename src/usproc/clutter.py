"""Spatio-temporal clutter suppression: Casorati matrices, SVT, RPCA.

A Casorati matrix is a plain (N*M, T) array: column t is frame t raveled
column-major (:func:`build_casorati`; :func:`unbuild_casorati` undoes it).
The RPCA solver splits one, Y, into a low-rank tissue component plus a
row-sparse flow component by proximal-gradient steps on both blocks at
once, each taken from a point P = X + beta (X - X_prev) with FISTA's
momentum,

    G         = Y - P_tissue - P_blood
    X_tissue <- SVT_{mu1 lam1}(P_tissue + mu1 G)
    X_blood  <- T12_{mu2 lam2}(P_blood + mu2 G)

minimizing 0.5||Y - X_t - X_b||_F^2 + lam1 ||X_t||_* + lam2 ||X_b||_{1,2}.
A step that would raise that objective is redone from X as a plain step
and the momentum starts over (function-value restart), the rule the l1
solver in :mod:`sparse` follows too; both take it from :mod:`numerics`.
The mixed norm groups each spatial pixel's time series (l2 along time, l1
across pixels): a sparse set of flowing pixels, each temporally coherent.
Each proximal step also returns its output's penalty, so an iteration
computes each norm once.  Singular value thresholding needs no left
singular vectors: it takes V and s^2 from the eigendecomposition of the
small (frames x frames) Gram Y^H Y, the temporal covariance of SVD clutter
filtering, and falls back to a full SVD only for a threshold too small for
the Gram to resolve.  Real frames (B-mode or RF sequences) stay float64
through every step, Gram and SVD included; complex (IQ) frames run in
complex128.
"""

from __future__ import annotations

import numpy as np

from .core import working_dtype
from .errors import DimensionMismatchError, ShapeMismatchError, StepTooLargeError
from .numerics import gram_eigh, momentum, rose, svd


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
        return (u * s) @ vh, float(np.sum(s))
    keep = np.count_nonzero(w > tau * tau)   # w ascends: the last ones
    v = v[:, w.size - keep:]
    s = np.sqrt(w[w.size - keep:])
    out = ((a @ v) * (1.0 - tau / s)) @ v.conj().T
    return (out.conj().T if wide else out), float(np.sum(s - tau))


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
    norms = np.sqrt(np.sum(np.abs(x) ** 2, axis=1))
    if not tau:
        return x.copy(), float(np.sum(norms))
    scale = 1.0 - tau / np.maximum(norms, tau)
    return x * scale[:, None], float(np.sum(norms * scale))


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


def _sq_norm(a: np.ndarray) -> float:
    """||a||_F^2 in one pass."""
    return float(np.vdot(a, a).real)


def rpca(y, lam1: float, lam2: float, mu1: float = 0.5, mu2: float = 0.5,
         max_iters: int = 500, tol: float = 1e-6):
    """Low-rank plus row-sparse separation of an (N*M, T) Casorati matrix.

    Returns (x_tissue, x_blood, iterations), both (N*M, T) arrays of ``y``'s
    working dtype: a real matrix is separated in float64 throughout, its
    thresholding included, a complex one in complex128.  Both proximal steps
    threshold with mu_i * lam_i, so an iteration is a proximal-gradient step
    on the joint objective, taken from the point X + beta (X - X_prev) with
    FISTA's momentum (:func:`numerics.momentum`).  The objective never
    rises: an accelerated step that would raise it is redone from X as a
    plain step, with the momentum restarted (:func:`numerics.rose`), and a
    plain step that raises it raises ``step-too-large`` (mu1 = mu2 = 0.5
    matches the Lipschitz bound of the coupled quadratic and always
    descends).  Stops when both blocks' relative changes ||X' - X|| / ||X'||
    drop below ``tol``.  Zero weights are allowed: on Y = 0 every iterate is
    zero and the solve stops after one.
    """
    if not (0 <= lam1 < np.inf and 0 <= lam2 < np.inf):
        raise ValueError("lam1 and lam2 must be >= 0 and finite")
    if not (0 < mu1 <= 1 and 0 < mu2 <= 1):
        raise ValueError("mu1 and mu2 must lie in (0, 1]")
    y = np.asarray(y, dtype=working_dtype(y))
    if y.ndim != 2:
        raise DimensionMismatchError("dimension-mismatch: rpca expects a 2-D matrix")

    def descend(p_t, p_b):
        """The step from the point (p_t, p_b): the new blocks and their
        objective."""
        resid = y - p_t - p_b
        x_t, nuc = _svt_with_nuclear(p_t + mu1 * resid, mu1 * lam1)
        x_b, l12 = _group_threshold_with_norm(p_b + mu2 * resid, mu2 * lam2)
        resid = y - x_t - x_b
        return x_t, x_b, 0.5 * _sq_norm(resid) + lam1 * nuc + lam2 * l12

    x_t = x_b = d_t = d_b = np.zeros_like(y)   # replaced, never written in place
    obj = 0.5 * _sq_norm(y)
    t = 1.0
    iters = 0
    for _ in range(max_iters):
        t, beta = momentum(t)
        x_t_new, x_b_new, obj_new = descend(x_t + beta * d_t, x_b + beta * d_b)
        iters += 1
        rise = rose(obj_new, obj)
        if rise and beta > 0:                  # restart with a plain step
            x_t_new, x_b_new, obj_new = descend(x_t, x_b)
            t = momentum(1.0)[0]
            rise = rose(obj_new, obj)
        if rise:
            raise StepTooLargeError(
                f"step-too-large: RPCA objective rose {obj:.6e} -> {obj_new:.6e} "
                f"at iteration {iters}")
        d_t, d_b = x_t_new - x_t, x_b_new - x_b
        dt = (_sq_norm(d_t) / max(_sq_norm(x_t_new), 1e-60)) ** 0.5
        db = (_sq_norm(d_b) / max(_sq_norm(x_b_new), 1e-60)) ** 0.5
        x_t, x_b, obj = x_t_new, x_b_new, obj_new
        if dt < tol and db < tol:
            break
    return x_t, x_b, iters


def power_doppler(x_blood, spatial_shape) -> np.ndarray:
    """Per-pixel temporal l2 of an (N*M, T) flow component, as an (N, M) map."""
    power = np.sqrt(np.sum(np.abs(np.asarray(x_blood)) ** 2, axis=1))
    return power.reshape(spatial_shape, order="F")
