"""Proximal-gradient MAP solvers for l1-regularized least squares.

The core solver is plain ISTA,

    x^{k+1} = soft_threshold(x^k - mu A^H (A x^k - y), mu * lambda),

minimizing 0.5 ||y - A x||^2 + lambda ||x||_1.  FISTA-style acceleration is
deliberately not used.  On top of it sit the Fourier-domain sub-Nyquist
scanline recovery (partial DFT times pulse spectrum) and zero-padded
image deconvolution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, StepTooLargeError
from .numerics import _check_adjoint, fft, operator_norm

_POWER_ITERS = 100


def soft_threshold(x, lam: float):
    """Proximal operator of lam*||.||_1: shrink magnitudes by lam, clip at 0.

    Complex-safe (magnitude shrinkage); for reals equals sgn(x)(|x|-lam)_+.
    """
    if lam < 0:
        raise ValueError("threshold must be >= 0")
    x = np.asarray(x)
    mag = np.abs(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(mag > 0.0, np.maximum(1.0 - lam / np.maximum(mag, 1e-300), 0.0), 0.0)
    return x * scale


@dataclass
class SparseProblem:
    """One l1-regularized least-squares instance for :func:`ista`.

    ``forward``/``adjoint`` act on 1-D complex vectors, or on float64
    vectors when ``real`` is set: then ``y``, the iterate, the residual and
    the gradient stay real, which halves the arithmetic of a real operator.
    ``step=None`` auto-selects mu = 1/(1.01 ||A||^2) with :func:`ista_step`,
    guaranteeing descent; problems that share an operator can compute that
    step once and pass it in.
    """

    forward: callable
    adjoint: callable
    y: np.ndarray
    lam: float
    step: float | None = None
    max_iters: int = 5000
    tol: float = 1e-8
    real: bool = False

    def __post_init__(self):
        if self.real and np.iscomplexobj(self.y):
            raise ValueError("a real problem needs real measurements y")
        dtype = np.float64 if self.real else np.complex128
        self.y = np.asarray(self.y, dtype=dtype).ravel()
        if not self.lam >= 0:   # 0 is least squares; on A^H y = 0 it stops at x = 0
            raise ValueError("lambda must be >= 0")
        if self.step is not None and not 0 < self.step < math.inf:
            raise ValueError("step must be finite and > 0")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


def _objective(residual, x, lam):
    return 0.5 * float(np.sum(np.abs(residual) ** 2)) \
        + lam * float(np.sum(np.abs(x)))


def ista_step(forward, adjoint, dim: int, real: bool = False) -> float:
    """ISTA step mu = 1/||A||^2 from the safety-factored power iteration.

    This is the step :func:`ista` picks when ``step`` is None; it depends only
    on the operator, so problems sharing one can compute it once.  Returns
    inf for the zero operator, whose minimizer is x = 0 for any y.
    """
    norm = operator_norm(forward, adjoint, dim, _POWER_ITERS, real=real)
    return math.inf if norm == 0.0 else 1.0 / (norm * norm)


def ista(problem: SparseProblem):
    """Run ISTA from x = 0; returns (x_hat, iterations_used, final_objective).

    The objective is tracked every iterate and must never increase: a rise
    beyond roundoff raises ``step-too-large``.  Stops when the relative step
    ||x_{k+1} - x_k|| / max(||x_k||, 1) drops below ``tol``.
    """
    dtype = np.float64 if problem.real else np.complex128
    dim = np.asarray(problem.adjoint(problem.y)).size
    if problem.step is None:
        mu = ista_step(problem.forward, problem.adjoint, dim, problem.real)
        if mu == math.inf:
            return np.zeros(dim, dtype=dtype), 0, _objective(problem.y, 0, problem.lam)
    else:
        rng = np.random.Generator(np.random.Philox(key=0x15745EED))
        _check_adjoint(problem.forward, problem.adjoint, dim, rng, real=problem.real)
        mu = problem.step

    x = np.zeros(dim, dtype=dtype)
    residual = -problem.y            # A x - y at x = 0
    obj = _objective(residual, x, problem.lam)
    iters = 0
    for _ in range(problem.max_iters):
        grad = np.asarray(problem.adjoint(residual), dtype=dtype).ravel()
        x_new = soft_threshold(x - mu * grad, mu * problem.lam)
        residual = np.asarray(problem.forward(x_new)).ravel() - problem.y
        obj_new = _objective(residual, x_new, problem.lam)
        iters += 1
        if obj_new > obj + 1e-12 * max(1.0, abs(obj)):
            raise StepTooLargeError(
                f"step-too-large: objective rose {obj:.6e} -> {obj_new:.6e} "
                f"at iteration {iters} (mu={mu:.3e})")
        delta = np.sqrt(np.sum(np.abs(x_new - x) ** 2))
        ref = max(np.sqrt(np.sum(np.abs(x) ** 2)), 1.0)
        x, obj = x_new, obj_new
        if delta / ref < problem.tol:
            break
    return x, iters, obj


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

    def forward(self, x):
        return self.pulse_spectrum * fft(np.asarray(x).ravel())[self.selected_bins]

    def adjoint(self, y):
        """Zero-filled inverse DFT of conj(H) y, scaled to the true adjoint."""
        z = np.zeros(self.n, dtype=np.complex128)
        z[self.selected_bins] = np.conj(self.pulse_spectrum) * np.asarray(y).ravel()
        return self.n * fft(z, inverse=True)


def recover_scanline(model: ScanlineModel, y_tilde, lam: float,
                     step: float | None = None, max_iters: int = 5000,
                     tol: float = 1e-8) -> np.ndarray:
    """MAP recovery of a sparse scanline from partial DFT measurements."""
    problem = SparseProblem(model.forward, model.adjoint, y_tilde, lam,
                            step=step, max_iters=max_iters, tol=tol)
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


def deconvolve(y, psf, lam: float, step: float | None = None,
               max_iters: int = 5000, tol: float = 1e-8) -> np.ndarray:
    """l1-regularized deblurring of an image under a known PSF kernel."""
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

    problem = SparseProblem(forward, adjoint, y.ravel(), lam, step=step,
                            max_iters=max_iters, tol=tol)
    x, _, _ = ista(problem)
    x = x.reshape(shape)
    return np.real(x) if real_io else x
