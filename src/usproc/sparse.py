"""Proximal-gradient MAP solvers for l1-regularized least squares.

The core solver is ISTA with FISTA's momentum (Beck & Teboulle 2009) and
function-value restart (O'Donoghue & Candes 2015),

    p       = x^k + beta_k (x^k - x^{k-1})
    x^{k+1} = soft_threshold(p - mu A^H (A p - y), mu * lambda),

minimizing 0.5 ||y - A x||^2 + lambda ||x||_1.  A step that would raise the
objective is redone from x^k as a plain step with the momentum started
over, so the objective never rises; the coefficient beta_k and that rule
come from :mod:`numerics`, shared with the clutter filter's RPCA.  A p is
formed by linearity from the last two forward images, so an iteration makes
one adjoint and one forward map, and only a restart pays a second pair.
One call solves a single problem or a stack of independent ones that share
the operator: each row of the stack keeps its own momentum, restart,
objective check and stopping rule, and a row that stops is frozen while
the others go on, so every row ends with the bits it would have had alone;
a single problem is a one-row stack.  The step is 1 / (1.01 ||A||)^2, with
||A|| the spectral norm, or a bound on it, that each model states in
closed form: nothing is estimated.  Each iteration makes few passes over
the stack: a real problem soft-thresholds as z - clip(z, -t, t), two
passes, and a complex one shrinks magnitudes in six; the stop test
compares squares, each one BLAS dot product per row, with ||x^k||^2
carried from the iteration before.  On top of it sit the Fourier-domain
sub-Nyquist scanline recovery (partial DFT times pulse spectrum, of norm
sqrt(N) max|h|) and zero-padded deconvolution of a real image under a real
kernel (of norm at most the kernel spectrum's peak).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import working_dtype
from .errors import AdjointMismatchError, DimensionMismatchError, StepTooLargeError
from .numerics import momentum, rose


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
        if not np.all(self.lam < math.inf):
            raise ValueError("lambda must be finite")
        if not 0 <= self.norm < math.inf:
            raise ValueError("norm must be finite and >= 0")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not self.max_iters >= 0:
            raise ValueError("max_iters must be >= 0")


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


def _dot_views(v):
    """The (k, 1, 2n) and (k, 2n, 1) views of a C-ordered (k, n) stack whose
    product is ||v||^2 per row, one BLAS dot product each; a complex row is
    read as its 2n float64 parts."""
    w = v.view(np.float64)
    return w[:, None, :], w[:, :, None]


def ista(problem: SparseProblem):
    """Run restart-accelerated ISTA from x = 0; returns (x_hat,
    iterations_used, final_objective).

    Each iteration is a proximal-gradient step with FISTA's momentum from
    :func:`numerics.momentum`: from the point p = x_k + beta_k (x_k -
    x_{k-1}), x_{k+1} = soft_threshold(p - mu A^H (A p - y), mu lambda).
    A p comes by linearity from the last two forward images, so A p - y =
    r_k + beta_k (r_k - r_{k-1}) with r_k = A x_k - y, and an iteration
    makes one adjoint and one forward map.  The step is mu = 1 / (1.01
    ``norm``)^2: 1/L for the gradient's Lipschitz constant L = ||A||^2,
    with a 1.01 margin on the norm.  A zero norm, or one whose square
    underflows, gives x = 0 without iterating.  The objective is tracked
    every iterate and never rises: an accelerated step that would raise it
    beyond roundoff (:func:`numerics.rose`) is redone from x_k as a plain
    step, with the momentum restarted, which costs that row a second
    adjoint and forward map; a plain step that raises it raises
    ``step-too-large``.  Stops when the relative step ||x_{k+1} - x_k|| /
    max(||x_k||, 1) drops below ``tol``, compared on squares,
    ||x_{k+1} - x_k||^2 < tol^2 max(||x_k||^2, 1), each square one BLAS dot
    product per row and ||x_k||^2 carried from the step before; that step
    is the next iteration's momentum direction.  A real problem
    soft-thresholds as z - clip(z, -t, t), two passes, so an entry it kills
    is +0; a complex one shrinks magnitudes in six.

    Every solve runs as a stack.  A (B, m) stack gives a (B, n) ``x_hat``
    and a (B,) ``final_objective``.  Each row has its own momentum, restart,
    objective check and stop; a row that stops is frozen while the rest go
    on, so every row has the bits of its solve alone.  ``iterations_used``
    is then the batch's loop count, the largest row count; a redone step is
    not counted again.  A vector ``y`` is a one-row stack whose maps see 1-D
    views; it gives a 1-D ``x_hat`` and a float ``final_objective``.
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
        # a tol whose square underflows still stops on a zero step
        tol_sq = max(float(np.float64(problem.tol) ** 2), 5e-324)
    if mu == math.inf:               # the zero operator: x = 0 minimizes for any y
        return result(x, 0, obj)

    def descend(p, r_p, y, lam, bounds, z, mag, r_new, res_sq):
        """The step from p, whose residual A p - y is r_p: x_{k+1} into z,
        its residual into r_new (r_p's buffer may be reused); returns its
        objective.  ``mag`` and ``res_sq`` are float64 scratch."""
        grad = np.asarray(problem.adjoint(view(r_p)), dtype=dtype).reshape(p.shape)
        np.multiply(mu, grad, out=z)
        np.subtract(p, z, out=z)
        shrink(z, *bounds, mag)
        np.subtract(np.asarray(problem.forward(view(z))).reshape(y.shape), y,
                    out=r_new)
        np.abs(z, out=mag)
        return 0.5 * _sum_squares(r_new, res_sq, real) + lam * np.add.reduce(mag, axis=-1)

    rows = np.arange(y.shape[0])     # the unfinished rows
    lam = np.broadcast_to(lam, rows.shape)
    thresh = (mu * lam)[:, None]
    shrink, bounds = (_shrink_real, _clip_bounds(thresh)) if real else (_shrink, (thresh,))
    x_out, obj_out = np.empty_like(x), np.empty_like(obj)
    # scratch, in place throughout: d holds x_k - x_{k-1}, then the point p;
    # dres holds r_k - r_{k-1}, and r_new A p - y, then r_{k+1}
    d, z, mag = np.zeros_like(x), np.empty_like(x), np.empty(x.shape)
    dres, r_new = np.zeros_like(y), np.empty_like(y)
    t = np.ones(rows.shape)
    x_sq = 0.0                       # ||x||^2
    xv, zv, dv = _dot_views(x), _dot_views(z), _dot_views(d)
    iters = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(problem.max_iters):
            t, beta = momentum(t)
            col = beta[:, None]
            np.multiply(col, d, out=d)
            np.add(x, d, out=d)
            np.multiply(col, dres, out=r_new)
            np.add(residual, r_new, out=r_new)
            obj_new = descend(d, r_new, y, lam, bounds, z, mag, r_new, res_sq)
            iters += 1
            rise = rose(obj_new, obj)
            if np.count_nonzero(rise):   # rare: a restart or a step too large
                redo = rise & (beta > 0)
                if np.count_nonzero(redo):   # a plain step from x_k on these rows
                    z_k, r_k = np.empty_like(x[redo]), np.empty_like(y[redo])
                    obj_new[redo] = descend(x[redo], residual[redo], y[redo], lam[redo],
                                            tuple(b[redo] for b in bounds), z_k,
                                            np.empty(z_k.shape), r_k, np.empty(r_k.shape))
                    z[redo], r_new[redo] = z_k, r_k
                    t[redo] = momentum(1.0)[0]
                    rise = rose(obj_new, obj)
                if np.count_nonzero(rise):
                    i = rise.argmax()
                    where = "" if one else f" in row {rows[i]}"
                    raise StepTooLargeError(
                        f"step-too-large: objective rose {obj[i]:.6e} -> {obj_new[i]:.6e} "
                        f"at iteration {iters}{where} (mu={mu:.3e})")
            x_sq_new = (zv[0] @ zv[1])[:, 0, 0]      # the next reference
            np.subtract(z, x, out=d)
            np.subtract(r_new, residual, out=dres)
            stop = (dv[0] @ dv[1])[:, 0, 0] < tol_sq * np.maximum(x_sq, 1.0)
            x, z, xv, zv, residual, r_new = z, x, zv, xv, r_new, residual
            obj, x_sq = obj_new, x_sq_new
            if np.count_nonzero(stop):
                x_out[rows[stop]], obj_out[rows[stop]] = x[stop], obj[stop]
                keep = ~stop
                rows = rows[keep]
                if not rows.size:
                    return result(x_out, iters, obj_out)
                x, d, y = x[keep], d[keep], y[keep]
                residual, dres = residual[keep], dres[keep]
                obj, x_sq, t, lam = obj[keep], x_sq[keep], t[keep], lam[keep]
                bounds = tuple(b[keep] for b in bounds)
                z, mag = np.empty_like(x), np.empty(x.shape)
                r_new, res_sq = np.empty_like(y), np.empty(y.shape)
                xv, zv, dv = _dot_views(x), _dot_views(z), _dot_views(d)
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
