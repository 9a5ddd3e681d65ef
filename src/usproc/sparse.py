"""Proximal-gradient MAP solvers for l1-regularized least squares.

:func:`ista` minimizes 0.5 ||y - A x||^2 + lambda ||x||_1 on the
restart-accelerated loop of :func:`numerics.proximal_gradient`, with the
step mu A^H r and the prox soft_threshold(z, mu lambda), mu = 1 / (1.01
||A||)^2.  ||A|| is the spectral norm, or a bound on it, that each model
states in closed form: nothing is estimated.  One call solves a single
problem or a stack of independent ones that share the operator, each row
with the bits of its solve alone.  A real problem soft-thresholds as z -
clip(z, -t, t), two passes, and a complex one shrinks magnitudes in six.
On top of it sit the Fourier-domain sub-Nyquist scanline recovery (partial
DFT times pulse spectrum, of norm sqrt(N) max|h|) and zero-padded
deconvolution of a real image under a real kernel (of norm at most the
kernel spectrum's peak).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import working_dtype
from .errors import AdjointMismatchError, DimensionMismatchError
from .numerics import proximal_gradient


def soft_threshold(x, lam: float):
    """Proximal operator of lam*||.||_1: shrink magnitudes by lam, clip at 0.

    Real x gives sgn(x)(|x|-lam)_+, as x - clip(x, -lam, lam), so that an
    entry it kills is +0; complex x is shrunk in magnitude.  Computed in
    float64, or complex128 for complex x.
    """
    if not lam >= 0:
        raise ValueError("threshold must be >= 0")
    x = np.array(x, dtype=working_dtype(x))
    with np.errstate(invalid="ignore", divide="ignore"):
        if np.iscomplexobj(x):
            _shrink(x, lam, np.empty(x.shape))
        else:
            _shrink_real(x, *_clip_bounds(lam), np.empty(x.shape))
    return x


def _clip_bounds(t):
    """The clip bounds (-t, t) of the real soft threshold by t >= 0 (a
    scalar or an array), with -0 for the upper bound where t = 0: both
    bounds are then -0, so a zero of either sign clips to -0 and leaves +0."""
    t = np.asarray(t, dtype=np.float64)
    return -t, np.where(t > 0, t, -0.0)


def _shrink_real(z, lo, hi, scratch):
    """Soft-threshold real ``z`` in place as z - clip(z, lo, hi), with the
    bounds from :func:`_clip_bounds` and ``scratch`` (float64, z's shape):
    two passes.  Where |z| > t that is z -+ t, rounded once; elsewhere
    z - z = +0.  A NaN stays NaN, and so does an infinite z when t = inf."""
    np.clip(z, lo, hi, out=scratch)
    np.subtract(z, scratch, out=z)


def _shrink(z, lam, scale):
    """Soft-threshold complex ``z`` in place by ``lam`` (a scalar, or a
    column per row of z), with ``scale`` (float64, z's shape) as scratch.

    z * max(1 - lam / max(|z|, 1e-300), 0), six passes: where z = +-0 the
    factor is 0, or 1 when lam = 0, so z keeps its bits; a NaN stays NaN.
    Real arrays take :func:`_shrink_real` instead.  Call with invalid and
    divide-by-zero floating-point errors ignored.
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
    ``norm`` is ||A||, or a bound on it, from which :func:`ista` takes its step.
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
        if not np.all(self.lam < math.inf):
            raise ValueError("lambda must be finite")
        if not 0 <= self.norm < math.inf:
            raise ValueError("norm must be finite and >= 0")


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


def ista(problem: SparseProblem):
    """Run restart-accelerated ISTA from x = 0 with the module's step and
    prox; returns (x_hat, iterations_used, final_objective).

    mu = 1 / (1.01 ``norm``)^2 is 1/L for the gradient's Lipschitz constant
    L = ||A||^2, with a 1.01 margin on the norm; a zero norm, or one whose
    square underflows, gives x = 0 without iterating.  Stops when the
    relative step ||x_{k+1} - x_k|| / max(||x_k||, 1) drops below ``tol``.
    A (B, m) stack gives a (B, n) ``x_hat`` and a (B,) ``final_objective``,
    and ``iterations_used`` is the largest row count; a vector ``y`` is a
    one-row stack whose maps see 1-D views, and gives a 1-D ``x_hat`` and a
    float ``final_objective``.
    """
    real = problem.real
    one = problem.y.ndim == 1
    y = problem.y[None] if one else problem.y

    def view(v):   # what the maps see of a (k, .) stack
        return v[0] if one else v

    dim = np.asarray(problem.adjoint(y[0])).size
    _check_adjoint(problem.forward, problem.adjoint, dim, real)
    lam = np.broadcast_to(problem.lam, y.shape[:1])
    # numpy's scalar pow has the bits of Python's, and overflows or
    # underflows to inf or 0 where Python's would raise
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mu = float(1.0 / np.float64(1.01 * problem.norm) ** 2)
        thresh = (mu * lam)[:, None]
    # the zero operator: x = 0 minimizes for any y (a negative cap still fails)
    max_iters = problem.max_iters if mu < math.inf else min(problem.max_iters, 0)
    shrink, bounds = (_shrink_real, _clip_bounds(thresh)) if real else (_shrink, (thresh,))

    def forward(v):
        return np.asarray(problem.forward(view(v))).reshape(len(v), -1)

    def step(r):
        return mu * np.asarray(problem.adjoint(view(r)), dtype=y.dtype).reshape(len(r), -1)

    def prox(z, lam, *bounds):
        mag = np.empty(z.shape)
        shrink(z, *bounds, mag)
        np.abs(z, out=mag)
        return lam * np.add.reduce(mag, axis=-1)

    x, iters, obj = proximal_gradient(forward, step, prox, y, (dim,), max_iters,
                                      problem.tol, params=(lam, *bounds),
                                      detail=f" (mu={mu:.3e})")
    return (x[0], iters, float(obj[0])) if one else (x, iters, obj)


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
        if h.ndim != 1 or bins.shape != h.shape or self.n < 1:
            raise DimensionMismatchError(
                "dimension-mismatch: pulse spectrum and bins must match 1-D, N >= 1")
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
        x = np.asarray(x, dtype=np.complex128).ravel()
        return self.pulse_spectrum * np.fft.fft(x)[self.selected_bins]

    def adjoint(self, y):
        """Zero-filled inverse DFT of conj(H) y, scaled to the true adjoint."""
        z = np.zeros(self.n, dtype=np.complex128)
        z[self.selected_bins] = np.conj(self.pulse_spectrum) * np.asarray(y).ravel()
        return self.n * np.fft.ifft(z)


def recover_scanline(model: ScanlineModel, y_tilde, lam: float,
                     max_iters: int = 5000, tol: float = 1e-8) -> np.ndarray:
    """MAP recovery of a sparse scanline from partial DFT measurements."""
    problem = SparseProblem(model.forward, model.adjoint, y_tilde, lam, model.norm,
                            max_iters=max_iters, tol=tol)
    x, _, _ = ista(problem)
    return np.real(x)


# ---------------------------------------------------------------------------
# 2-D convolution operators (zero padded) and deconvolution


def real_array(a, what: str) -> np.ndarray:
    """``a`` as float64; a complex array is rejected, not cast."""
    if np.iscomplexobj(a):
        raise ValueError(f"{what} must be real")
    return np.asarray(a, dtype=np.float64)


class Conv2Same:
    """'Same'-size zero-padded 2-D convolution with a real kernel, over real
    FFTs with the kernel's spectrum cached.

    ``forward`` crops the full linear convolution to the image shape;
    ``adjoint`` is its exact adjoint (correlation with the kernel), realized
    by embedding at the crop offset and multiplying by the conjugate
    spectrum, so the adjoint identity holds to roundoff for any kernel size.
    The kernel and the operands must be real; both maps return float64.
    """

    def __init__(self, image_shape, kernel):
        kernel = real_array(kernel, "convolution kernel")
        self.shape = tuple(image_shape)
        if 0 in self.shape or kernel.size == 0:
            raise DimensionMismatchError(
                "dimension-mismatch: image and kernel need at least one pixel")
        self.full = (self.shape[0] + kernel.shape[0] - 1,
                     self.shape[1] + kernel.shape[1] - 1)
        self.offset = ((kernel.shape[0] - 1) // 2, (kernel.shape[1] - 1) // 2)
        self.kernel_rfft = np.fft.rfft2(kernel, self.full)
        self.kernel_rfft_conj = np.conj(self.kernel_rfft)
        # max |kernel spectrum| on the ``full`` grid, a bound on the map's
        # spectral norm: on that grid the linear convolution is a circular
        # one, between a zero-padding embedding and a crop of norm 1 each
        self.norm = float(np.max(np.abs(self.kernel_rfft)))

    def forward(self, x):
        x = real_array(x, "convolution operand").reshape(self.shape)
        full = np.fft.irfft2(np.fft.rfft2(x, self.full) * self.kernel_rfft,
                             self.full)
        o0, o1 = self.offset
        return full[o0:o0 + self.shape[0], o1:o1 + self.shape[1]]

    def adjoint(self, y):
        y = real_array(y, "convolution operand").reshape(self.shape)
        o0, o1 = self.offset
        ypad = np.zeros(self.full)
        ypad[o0:o0 + self.shape[0], o1:o1 + self.shape[1]] = y
        full = np.fft.irfft2(np.fft.rfft2(ypad) * self.kernel_rfft_conj,
                             self.full)
        return full[:self.shape[0], :self.shape[1]]


def deconvolve(y, psf, lam: float, max_iters: int = 5000,
               tol: float = 1e-8) -> np.ndarray:
    """l1-regularized deblurring of a real image under a known real PSF
    kernel, solved and returned in float64."""
    y = np.asarray(y)
    psf = np.asarray(psf)
    if psf.shape[0] > y.shape[0] or psf.shape[1] > y.shape[1]:
        raise DimensionMismatchError(
            "dimension-mismatch: psf must be smaller than the image")
    op = Conv2Same(y.shape, psf)

    def forward(x):
        return op.forward(x).ravel()

    def adjoint(r):
        return op.adjoint(r).ravel()

    problem = SparseProblem(forward, adjoint, y.ravel(), lam, op.norm,
                            max_iters=max_iters, tol=tol, real=True)
    x, _, _ = ista(problem)
    return x.reshape(y.shape)
