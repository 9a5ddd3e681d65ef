"""Proximal-gradient MAP solvers for l1-regularized least squares.

The core solver is plain ISTA,

    x^{k+1} = soft_threshold(x^k - mu A^H (A x^k - y), mu * lambda),

minimizing 0.5 ||y - A x||^2 + lambda ||x||_1.  FISTA-style acceleration is
deliberately not used.  One call solves a single problem or a stack of
independent ones that share the operator: each row of the stack keeps its
own objective, monotonicity check and stopping rule, and a row that stops
is frozen while the others go on, so every row ends with the bits it would
have had alone; a single problem is a one-row stack.  The step is
1 / (1.01 ||A||)^2, with ||A|| the spectral norm, or a bound on it, that
each model states in closed form: nothing is estimated.  On top of it sit
the Fourier-domain sub-Nyquist scanline recovery (partial DFT times pulse
spectrum, of norm sqrt(N) max|h|) and zero-padded image deconvolution (of
norm at most the kernel spectrum's peak).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AdjointMismatchError, DimensionMismatchError, StepTooLargeError
from .numerics import fft, working_dtype


def soft_threshold(x, lam: float):
    """Proximal operator of lam*||.||_1: shrink magnitudes by lam, clip at 0.

    Complex-safe (magnitude shrinkage); for reals equals sgn(x)(|x|-lam)_+.
    Computed in float64, or complex128 for complex x.
    """
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    x = np.array(x, dtype=working_dtype(x))
    with np.errstate(invalid="ignore", divide="ignore"):
        _shrink(x, lam, np.empty(x.shape))
    return x


def _shrink(z, lam, scale):
    """Soft-threshold ``z`` in place by ``lam`` (a scalar, or a column per
    row of z), with ``scale`` (float64, z's shape) as scratch.

    z * max(1 - lam / max(|z|, 1e-300), 0): where z = +-0 the factor is 0,
    or 1 when lam = 0, so z keeps its bits; a NaN stays NaN.  Call with
    invalid and divide-by-zero floating-point errors ignored.
    """
    np.abs(z, out=scale)
    np.maximum(scale, 1e-300, out=scale)
    np.divide(lam, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    np.maximum(scale, 0.0, out=scale)
    np.multiply(z, scale, out=z)


@dataclass
class SparseProblem:
    """One l1-regularized least-squares instance, or a stack of them, for
    :func:`ista`.

    ``forward``/``adjoint`` act on 1-D complex vectors, or on float64
    vectors when ``real`` is set: then ``y``, the iterate, the residual and
    the gradient stay real, which halves the arithmetic of a real operator.
    A 2-D ``y`` of shape (B, m) is B problems under one operator, solved
    together: ``lam`` is one weight or a (B,) array of them, and the maps
    must take (k, n) and (k, m) stacks row by row as well as 1-D vectors.
    ``norm`` is the operator's spectral norm ||A||, or a bound on it, as the
    model states it in closed form; :func:`ista` takes its step from it.
    """

    forward: callable
    adjoint: callable
    y: np.ndarray
    lam: float | np.ndarray
    norm: float
    max_iters: int = 5000
    tol: float = 1e-8
    real: bool = False

    def __post_init__(self):
        if self.real and np.iscomplexobj(self.y):
            raise ValueError("a real problem needs real measurements y")
        y = np.asarray(self.y, dtype=np.float64 if self.real else np.complex128)
        if y.ndim > 2 or y.ndim == 2 and not y.shape[0]:
            raise DimensionMismatchError(
                "dimension-mismatch: y must be a vector or a (B, m) stack, B >= 1")
        self.y = y if y.ndim == 2 else y.ravel()
        if np.ndim(self.lam):
            self.lam = np.array(self.lam, dtype=np.float64)
            if self.lam.shape != self.y.shape[:-1]:
                raise DimensionMismatchError(
                    "dimension-mismatch: lambda must be one weight or one per row of y")
        # 0 is least squares; on A^H y = 0 it stops at x = 0
        if not np.all(self.lam >= 0):
            raise ValueError("lambda must be >= 0")
        if not 0 <= self.norm < math.inf:
            raise ValueError("norm must be finite and >= 0")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


def _unit_normal(rng, n, real: bool):
    v = rng.standard_normal(n)
    if not real:
        v = v + 1j * rng.standard_normal(n)
    return v / np.sqrt(np.sum(np.abs(v) ** 2))


def _check_adjoint(forward, adjoint, dim: int, real: bool):
    """Raise ``adjoint-mismatch`` unless <A x, y> = <x, A^H y> to 1e-8
    relative on two pairs of random unit vectors, drawn in the problem's
    dtype: float64 for a real problem, whose maps must then return real
    arrays, and complex128 otherwise."""
    rng = np.random.Generator(np.random.Philox(key=0x15745EED))
    for _ in range(2):
        x = _unit_normal(rng, dim, real)
        ax = np.asarray(forward(x))
        y = _unit_normal(rng, ax.shape[0], real)
        aty = np.asarray(adjoint(y))
        if real and (np.iscomplexobj(ax) or np.iscomplexobj(aty)):
            raise ValueError("a real operator must map real vectors to real vectors")
        lhs, rhs = np.vdot(ax, y), np.vdot(x, aty)
        if abs(lhs - rhs) > 1e-8 * max(1.0, abs(lhs), abs(rhs)):
            raise AdjointMismatchError(
                f"adjoint-mismatch: <Ax,y>={lhs:.6e} vs <x,A^H y>={rhs:.6e}")


def _sum_squares(v, out, real: bool):
    """sum |v|^2 along the last axis, with ``out`` (float64, v's shape) as
    scratch: v * v for real v, which has the bits of np.abs(v) ** 2."""
    if real:
        np.multiply(v, v, out=out)
    else:
        np.abs(v, out=out)
        np.multiply(out, out, out=out)
    return np.add.reduce(out, axis=-1)


def ista(problem: SparseProblem):
    """Run ISTA from x = 0; returns (x_hat, iterations_used, final_objective).

    The step is mu = 1 / (1.01 ``norm``)^2: 1/L for the gradient's Lipschitz
    constant L = ||A||^2, with a 1.01 margin on the norm.  A zero norm, or
    one whose square underflows, gives x = 0 without iterating.  The
    objective is tracked every iterate and must never increase: a rise
    beyond roundoff raises ``step-too-large``.  Stops when the relative step
    ||x_{k+1} - x_k|| / max(||x_k||, 1) drops below ``tol``.

    Every solve runs as a stack.  A (B, m) stack gives a (B, n) ``x_hat``
    and a (B,) ``final_objective``.  Each row has its own objective, check
    and stop; a row that stops is frozen while the rest go on, so every row
    has the bits of its solve alone.  ``iterations_used`` is then the
    batch's loop count, the largest row count.  A vector ``y`` is a one-row
    stack whose maps see 1-D views; it gives a 1-D ``x_hat`` and a float
    ``final_objective``.
    """
    real, lam = problem.real, problem.lam
    dtype = np.float64 if real else np.complex128
    one = problem.y.ndim == 1
    y = problem.y[None] if one else problem.y

    def view(v):   # what the maps see of a (k, .) stack
        return v[0] if one else v

    def result(x, iters, obj):
        return (x[0], iters, float(obj[0])) if one else (x, iters, obj)

    dim = np.asarray(problem.adjoint(y[0])).size
    _check_adjoint(problem.forward, problem.adjoint, dim, real)
    x = np.zeros((y.shape[0], dim), dtype=dtype)
    residual = -y                    # A x - y at x = 0
    res_sq = np.empty(y.shape)
    obj = 0.5 * _sum_squares(residual, res_sq, real) + lam * 0.0
    # numpy's scalar pow has the bits of Python's, and overflows or
    # underflows to inf or 0 where Python's would raise
    with np.errstate(over="ignore", divide="ignore"):
        mu = float(1.0 / np.float64(1.01 * problem.norm) ** 2)
    if mu == math.inf:               # the zero operator: x = 0 minimizes for any y
        return result(x, 0, obj)

    rows = np.arange(y.shape[0])     # the unfinished rows
    lam = np.broadcast_to(lam, rows.shape)
    thresh = (mu * lam)[:, None]
    x_out, obj_out = np.empty_like(x), np.empty_like(obj)
    z, mag = np.empty_like(x), np.empty(x.shape)   # scratch, in place throughout
    x_norm = 0.0                     # ||x||
    iters = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(problem.max_iters):
            grad = np.asarray(problem.adjoint(view(residual)), dtype=dtype).reshape(x.shape)
            np.multiply(mu, grad, out=z)
            np.subtract(x, z, out=z)
            _shrink(z, thresh, mag)  # z is x_new from here on
            np.subtract(np.asarray(problem.forward(view(z))).reshape(y.shape), y,
                        out=residual)
            np.abs(z, out=mag)
            obj_new = 0.5 * _sum_squares(residual, res_sq, real) \
                + lam * np.add.reduce(mag, axis=-1)
            iters += 1
            rise = obj_new > obj + 1e-12 * np.maximum(obj, 1.0)   # obj >= 0
            if np.count_nonzero(rise):   # cheaper than .any() on a few rows
                i = rise.argmax()
                where = "" if one else f" in row {rows[i]}"
                raise StepTooLargeError(
                    f"step-too-large: objective rose {obj[i]:.6e} -> {obj_new[i]:.6e} "
                    f"at iteration {iters}{where} (mu={mu:.3e})")
            np.multiply(mag, mag, out=mag)           # ||x_new||, the next reference
            x_norm_new = np.sqrt(np.add.reduce(mag, axis=-1))
            np.subtract(z, x, out=x)                 # the old x is not needed again
            delta = np.sqrt(_sum_squares(x, x if real else mag, real))
            stop = delta / np.maximum(x_norm, 1.0) < problem.tol
            x, z, obj, x_norm = z, x, obj_new, x_norm_new
            if np.count_nonzero(stop):
                x_out[rows[stop]], obj_out[rows[stop]] = x[stop], obj[stop]
                keep = ~stop
                rows, x, obj, x_norm = rows[keep], x[keep], obj[keep], x_norm[keep]
                if not rows.size:
                    break
                y, residual = y[keep], residual[keep]
                lam, thresh = lam[keep], thresh[keep]
                z, mag, res_sq = np.empty_like(x), np.empty(x.shape), np.empty(y.shape)
    x_out[rows], obj_out[rows] = x, obj
    return result(x_out, iters, obj_out)


# ---------------------------------------------------------------------------
# Fourier-domain scanline recovery


@dataclass(frozen=True)
class ScanlineModel:
    """Sub-Nyquist scanline measurement: y = H F_u x with M <= N DFT bins."""

    pulse_spectrum: np.ndarray   # diagonal of H, length M
    selected_bins: np.ndarray    # M unique indices into the length-N DFT
    n: int

    def __post_init__(self):
        h = np.asarray(self.pulse_spectrum, dtype=np.complex128)
        bins = np.asarray(self.selected_bins, dtype=np.int64)
        if h.ndim != 1 or bins.shape != h.shape:
            raise DimensionMismatchError(
                "dimension-mismatch: pulse spectrum and bins must match 1-D")
        if bins.size > self.n or np.unique(bins).size != bins.size:
            raise ValueError("bins must be unique and at most N of them")
        if np.any(bins < 0) or np.any(bins >= self.n):
            raise ValueError("bin indices must lie in [0, N)")
        object.__setattr__(self, "pulse_spectrum", h)
        object.__setattr__(self, "selected_bins", bins)

    @property
    def norm(self) -> float:
        """||H F_u|| = sqrt(N) max|h|, exactly: the DFT's rows are orthogonal,
        each of norm sqrt(N).  0 with no bins."""
        return math.sqrt(self.n) * float(np.max(np.abs(self.pulse_spectrum), initial=0.0))

    def forward(self, x):
        return self.pulse_spectrum * fft(np.asarray(x).ravel())[self.selected_bins]

    def adjoint(self, y):
        """Zero-filled inverse DFT of conj(H) y, scaled to the true adjoint."""
        z = np.zeros(self.n, dtype=np.complex128)
        z[self.selected_bins] = np.conj(self.pulse_spectrum) * np.asarray(y).ravel()
        return self.n * fft(z, inverse=True)


def recover_scanline(model: ScanlineModel, y_tilde, lam: float,
                     max_iters: int = 5000, tol: float = 1e-8) -> np.ndarray:
    """MAP recovery of a sparse scanline from partial DFT measurements."""
    problem = SparseProblem(model.forward, model.adjoint, y_tilde, lam, model.norm,
                            max_iters=max_iters, tol=tol)
    x, _, _ = ista(problem)
    return np.real(x)


# ---------------------------------------------------------------------------
# 2-D convolution operators (zero padded) and deconvolution


class Conv2Same:
    """'Same'-size zero-padded 2-D convolution with a cached kernel spectrum.

    ``forward`` crops the full linear convolution to the image shape;
    ``adjoint`` is its exact adjoint (correlation with the kernel), realized
    by embedding at the crop offset and multiplying by the conjugate
    spectrum, so the adjoint identity holds to roundoff for any kernel size.

    When the kernel and the input are both real, both maps run over real
    FFTs and return float64; any complex operand takes the complex128 path.
    """

    def __init__(self, image_shape, kernel):
        kernel = np.asarray(kernel)
        self.shape = tuple(image_shape)
        if 0 in self.shape or kernel.size == 0:
            raise DimensionMismatchError(
                "dimension-mismatch: image and kernel need at least one pixel")
        self.full = (self.shape[0] + kernel.shape[0] - 1,
                     self.shape[1] + kernel.shape[1] - 1)
        self.offset = ((kernel.shape[0] - 1) // 2, (kernel.shape[1] - 1) // 2)
        self._kernel = kernel.astype(np.complex128)
        self.real_kernel = not np.iscomplexobj(kernel)
        if self.real_kernel:
            self.kernel_rfft = np.fft.rfft2(kernel.astype(np.float64), self.full)
            self.kernel_rfft_conj = np.conj(self.kernel_rfft)

    @functools.cached_property
    def kernel_fft(self):
        """Full complex spectrum, computed when a complex operand first needs it."""
        return np.fft.fft2(self._kernel, self.full)

    @functools.cached_property
    def norm(self) -> float:
        """max |kernel spectrum| on the ``full`` grid, a bound on the map's
        spectral norm: on that grid the linear convolution is a circular
        one, between a zero-padding embedding and a crop of norm 1 each."""
        spectrum = self.kernel_rfft if self.real_kernel else self.kernel_fft
        return float(np.max(np.abs(spectrum)))

    def _is_real(self, a) -> bool:
        return self.real_kernel and not np.iscomplexobj(a)

    def forward(self, x):
        x = np.asarray(x)
        if self._is_real(x):
            x = np.asarray(x, dtype=np.float64).reshape(self.shape)
            full = np.fft.irfft2(np.fft.rfft2(x, self.full) * self.kernel_rfft,
                                 self.full)
        else:
            x = np.asarray(x, dtype=np.complex128).reshape(self.shape)
            full = np.fft.ifft2(np.fft.fft2(x, self.full) * self.kernel_fft)
        o0, o1 = self.offset
        return full[o0:o0 + self.shape[0], o1:o1 + self.shape[1]]

    def adjoint(self, y):
        y = np.asarray(y)
        real = self._is_real(y)
        dtype = np.float64 if real else np.complex128
        y = np.asarray(y, dtype=dtype).reshape(self.shape)
        o0, o1 = self.offset
        ypad = np.zeros(self.full, dtype=dtype)
        ypad[o0:o0 + self.shape[0], o1:o1 + self.shape[1]] = y
        if real:
            full = np.fft.irfft2(np.fft.rfft2(ypad) * self.kernel_rfft_conj,
                                 self.full)
        else:
            full = np.fft.ifft2(np.fft.fft2(ypad) * np.conj(self.kernel_fft))
        return full[:self.shape[0], :self.shape[1]]


def conv2_same(x, h):
    """Zero-padded convolution cropped to x's shape ('same')."""
    x = np.asarray(x)
    return Conv2Same(x.shape, h).forward(x)


def corr2_same_adjoint(y, h):
    """Exact adjoint of :func:`conv2_same` (correlation with the kernel)."""
    y = np.asarray(y)
    return Conv2Same(y.shape, h).adjoint(y)


def deconvolve(y, psf, lam: float, max_iters: int = 5000,
               tol: float = 1e-8) -> np.ndarray:
    """l1-regularized deblurring of an image under a known PSF kernel.

    Real image and PSF: solved and returned in float64; else complex128."""
    y = np.asarray(y)
    psf = np.asarray(psf)
    if psf.shape[0] > y.shape[0] or psf.shape[1] > y.shape[1]:
        raise DimensionMismatchError(
            "dimension-mismatch: psf must be smaller than the image")
    shape = y.shape
    real_io = not (np.iscomplexobj(y) or np.iscomplexobj(psf))
    op = Conv2Same(shape, psf)

    def forward(x):
        return op.forward(x).ravel()

    def adjoint(r):
        return op.adjoint(r).ravel()

    problem = SparseProblem(forward, adjoint, y.ravel(), lam, op.norm,
                            max_iters=max_iters, tol=tol, real=real_io)
    x, _, _ = ista(problem)
    return x.reshape(shape)
