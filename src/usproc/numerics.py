"""Numerical kernels: Hermitian solve, SVD, Gram eigendecomposition.

All kernels are pure functions with no global state.  The solve, the SVD
and the Gram's eigendecomposition are numpy's own (``numpy.linalg``, backed
by LAPACK); this module keeps the toolkit's input checks, maps LAPACK
failures onto the toolkit's named errors and takes LAPACK's results as they
come.  The Hermitian solve's Cholesky is only its positive-definite test:
one LU solve gives x.  Singular value thresholding takes the singular
values and right singular vectors it needs from :func:`gram_eigh`, the
eigendecomposition of the small Gram A^H A; :func:`svd` serves the
thresholds too small for the Gram to resolve, the clutter filter's default
weight and the tests.  Every kernel works in float64 on real operands and
in complex128 as soon as one operand is complex (``core.working_dtype``), so
real data never pays for complex arithmetic.  FFTs are ``numpy.fft``,
called where they are needed.  The module also holds
:func:`proximal_gradient`, the restart-accelerated proximal-gradient loop
that the l1 solver and RPCA both run, with FISTA's momentum coefficient and
the function-value restart rule.
"""

from __future__ import annotations

import math

import numpy as np

from .core import all_finite, working_dtype
from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    SingularMatrixError,
    StepTooLargeError,
)


# ---------------------------------------------------------------------------
# Hermitian solve


def solve_hermitian(a, b) -> np.ndarray:
    """Solve A x = b for Hermitian positive-definite A.

    ``a`` is one (n, n) matrix with ``b`` of shape (n,), or a stack
    (..., n, n) with ``b`` of shape (..., n) solved in one batched call;
    each matrix of a stack is checked for symmetry against its own scale.
    A Cholesky factorization, not kept, tests each matrix for positive
    definiteness and one LU solve gives x; either failing raises
    ``singular-matrix``.  A caller that wants diagonal loading adds it first.
    Real ``a`` and ``b`` (a symmetric system) are solved in float64 and give
    a float64 ``x``; a complex operand makes it complex128.
    """
    dtype = working_dtype(a, b)
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or b.shape != a.shape[:-1]:
        raise DimensionMismatchError("dimension-mismatch: need square A and matching b")
    a_h = np.conj(np.swapaxes(a, -1, -2))
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1), initial=0.0))
    if np.any(np.max(np.abs(a - a_h), axis=(-2, -1), initial=0.0) > 1e-10 * scale):
        raise ValueError("matrix is not Hermitian to 1e-10")
    try:
        np.linalg.cholesky(a)
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular-matrix: {exc}") from exc


# ---------------------------------------------------------------------------
# SVD and the Gram's eigendecomposition


def _finite_matrix(a, name: str) -> np.ndarray:
    """``a`` as a nonempty finite 2-D matrix of its working dtype."""
    a = np.asarray(a, dtype=working_dtype(a))
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatchError(f"dimension-mismatch: {name} expects a 2-D matrix")
    if not all_finite(a):
        raise ValueError(f"{name} input must be finite")
    return a


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD A = (U * s) @ V^H of a finite 2-D matrix, as numpy's
    ``(u, s, vh)`` with r = min(M, N) columns in U and rows in V^H.

    A real matrix is decomposed in float64 with real factors, a complex one
    in complex128.  Raises ``no-convergence`` when LAPACK's SVD does not
    converge, which signals pathological input.  It serves the clutter
    filter's default weight, thresholds below what :func:`gram_eigh`
    resolves, and the tests; thresholding otherwise goes through the Gram.
    """
    a = _finite_matrix(a, "svd")
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"no-convergence: SVD failed ({exc})") from exc


def gram_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Gram A^H A of a finite (M, N) matrix, as
    numpy's ``(w, v)``: N ascending eigenvalues, A's squared singular values,
    and the orthonormal eigenvectors, A's right singular vectors, as columns.

    Forming the Gram squares the condition number: each w carries an
    absolute error of a few N u ||A||_2^2 (u float64's eps), so singular
    values below about sqrt(N u) ||A||_2 are not resolved.  A caller with a
    wide matrix passes A^H for the smaller Gram.  The dtype and the input
    checks are :func:`svd`'s; raises ``no-convergence`` when LAPACK's
    eigensolver does not converge.
    """
    a = _finite_matrix(a, "gram_eigh")
    try:
        return np.linalg.eigh(a.conj().T @ a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"no-convergence: eigh failed ({exc})") from exc


# ---------------------------------------------------------------------------
# Accelerated proximal gradient: the loop that the l1 solver and RPCA share


def momentum(t: float):
    """FISTA's momentum (Beck & Teboulle, SIAM J. Imaging Sci. 2009):
    t_{j+1} = (1 + sqrt(1 + 4 t_j^2)) / 2 and beta_j = (t_j - 1) / t_{j+1},
    the weight of x_k - x_{k-1} in the point of a step j steps after the
    solve's start or its last restart.  t_0 = 1, whose beta is 0: a plain
    step.
    """
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
    return t_next, (t - 1.0) / t_next


def rose(obj_new, obj, slack):
    """The restart rule (function-value restart, O'Donoghue & Candes, Found.
    Comput. Math. 2015): true where an objective ``obj_new`` exceeds its
    predecessor ``obj`` beyond roundoff, by more than ``slack``.
    :func:`proximal_gradient` takes 1e-12 of a row's starting objective
    0.5 ||y||^2 as its slack.  The objective never rises above its start,
    so that bounds the rounding error of every objective of the solve, and
    it scales with the data: a problem scaled by c > 0 restarts at the same
    iterations.  A rise within roundoff does not count: near the minimum
    the objective changes by less than its rounding error, and restarts on
    such changes would follow the rounding, so that the same problem in real
    and in complex arithmetic would restart at different iterations.
    """
    return obj_new > obj + slack


def _sum_squares(v, out):
    """sum |v|^2 over each row of a (k, ...) stack, with ``out`` (float64,
    v's shape) as scratch: v * v for real v, which has the bits of
    np.abs(v) ** 2."""
    if np.iscomplexobj(v):
        np.abs(v, out=out)
        np.multiply(out, out, out=out)
    else:
        np.multiply(v, v, out=out)
    return np.add.reduce(out.reshape(len(out), -1), axis=-1)


def _dot_views(v, blocks: int):
    """The (k, blocks, 1, L) and (k, blocks, L, 1) views of a C-ordered
    (k, ...) stack whose product is ||v_b||^2 per block b of each row, one
    BLAS dot product each; a complex block is read as its float64 parts."""
    w = v.view(np.float64).reshape(len(v), blocks, -1)
    return w[..., None, :], w[..., :, None]


def proximal_gradient(forward, step, prox, y, shape, max_iters: int, tol: float,
                      *, params=(), blocks: int = 1, floor: float = 1.0,
                      detail: str = ""):
    """Restart-accelerated proximal gradient from x = 0 on a stack of k
    problems min_x 0.5 ||A x - y||^2 + g(x) that share A; returns (x,
    iterations, objective), x of shape (k, *shape) in ``y``'s dtype and the
    objective (k,).

    ``y`` is the (k, ...) stack of measurements, float64 or complex128.
    ``forward`` maps a (j, *shape) stack of iterates to its (j, ...) stack
    of images A x; ``step(r)`` maps a stack of residuals r = A p - y to the
    scaled gradient M A^H r, M the step; ``prox(z, *params)`` applies the
    prox of M g to z in place and returns the penalties g of the result,
    one per row (a float serves one row).  ``params`` are arrays of one
    entry per row, such as the rows' thresholds, and the prox sees the
    entries of z's rows: the loop takes them out with the rows that stop,
    not on every call.

    Each iteration is a proximal-gradient step with FISTA's momentum
    (:func:`momentum`): from the point p = x_k + beta_k (x_k - x_{k-1}),
    x_{k+1} = prox(p - step(A p - y)).  A p comes by linearity from the last
    two images, so A p - y = r_k + beta_k (r_k - r_{k-1}) with r_k = A x_k -
    y, and an iteration makes one ``step`` and one ``forward``.  The
    objective never rises: an accelerated step that would raise it beyond
    roundoff (:func:`rose`) is redone from x_k as a plain step, with the
    momentum restarted, which costs that row a second ``step`` and
    ``forward``; a plain step that raises it raises ``step-too-large``, with
    ``detail`` at the end of its message.

    x is cut into ``blocks`` equal blocks per row, and a row stops when each
    block's step is small against the block it started from:
    ||x_{k+1,b} - x_{k,b}||^2 < tol^2 max(||x_{k,b}||^2, ``floor``), each
    square one BLAS dot product per block and ||x_{k,b}||^2 carried from the
    step before; that step is the next iteration's momentum direction.  A
    row that stops is frozen while the others go on, so every row ends with
    the bits it would have had alone; ``iterations`` is the loop count, the
    largest row count, and a redone step is not counted again.  The maps
    run with invalid and divide-by-zero floating-point errors ignored.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if not max_iters >= 0:
        raise ValueError("max_iters must be >= 0")
    x = np.zeros((len(y),) + tuple(shape), dtype=y.dtype)
    residual = -y                    # A x - y at x = 0
    res_sq = np.empty(y.shape)
    obj = 0.5 * _sum_squares(residual, res_sq)
    slack = 1e-12 * obj              # roundoff, for :func:`rose`
    # a tol whose square underflows still stops on a zero step
    with np.errstate(over="ignore"):
        tol_sq = max(float(np.float64(tol) ** 2), 5e-324)
    x_col, y_col = ((-1,) + (1,) * (a.ndim - 1) for a in (x, y))   # a value per row

    def descend(p, r_p, y, params, z, r_new, res_sq):
        """The step from p, whose residual A p - y is r_p: x_{k+1} into z,
        its residual into r_new (r_p's buffer may be reused); returns its
        objective.  ``res_sq`` is float64 scratch."""
        np.subtract(p, step(r_p), out=z)
        penalty = prox(z, *params)
        np.subtract(forward(z), y, out=r_new)
        return 0.5 * _sum_squares(r_new, res_sq) + penalty

    rows = np.arange(len(y))         # the unfinished rows
    x_out, obj_out = np.empty_like(x), np.empty_like(obj)
    # scratch, in place throughout: d holds x_k - x_{k-1}, then the point p;
    # dres holds r_k - r_{k-1}, and r_new A p - y, then r_{k+1}
    d, z = np.zeros_like(x), np.empty_like(x)
    dres, r_new = np.zeros_like(y), np.empty_like(y)
    betas = np.empty(16)             # beta_j, j steps after a (re)start
    t_j, began = 1.0, np.zeros(rows.shape, dtype=np.intp)   # each row's (re)start
    x_sq = 0.0                       # ||x_b||^2
    xv, zv, dv = (_dot_views(a, blocks) for a in (x, z, d))
    iters = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(max_iters):
            if iters == len(betas):
                betas = np.concatenate((betas, np.empty_like(betas)))
            t_j, betas[iters] = momentum(t_j)
            beta = betas[iters - began]
            np.multiply(beta.reshape(x_col), d, out=d)
            np.add(x, d, out=d)
            np.multiply(beta.reshape(y_col), dres, out=r_new)
            np.add(residual, r_new, out=r_new)
            obj_new = descend(d, r_new, y, params, z, r_new, res_sq)
            iters += 1
            rise = rose(obj_new, obj, slack)
            if np.count_nonzero(rise):   # rare: a restart or a step too large
                redo = rise & (beta > 0)
                # a plain step from x_k on these rows, in place if on all
                if redo.all():
                    obj_new = descend(x, residual, y, params, z, r_new, res_sq)
                elif np.count_nonzero(redo):
                    z_k, r_k = np.empty_like(x[redo]), np.empty_like(y[redo])
                    obj_new[redo] = descend(x[redo], residual[redo], y[redo],
                                            [a[redo] for a in params], z_k, r_k,
                                            np.empty(r_k.shape))
                    z[redo], r_new[redo] = z_k, r_k
                began[redo] = iters - 1
                rise = rose(obj_new, obj, slack)
                if np.count_nonzero(rise):
                    i = rise.argmax()
                    where = f" in row {rows[i]}" if len(x_out) > 1 else ""
                    raise StepTooLargeError(
                        f"step-too-large: objective rose {obj[i]:.6e} -> {obj_new[i]:.6e} "
                        f"at iteration {iters}{where}{detail}")
            x_sq_new = (zv[0] @ zv[1])[..., 0, 0]    # the next reference
            np.subtract(z, x, out=d)
            np.subtract(r_new, residual, out=dres)
            small = (dv[0] @ dv[1])[..., 0, 0] < tol_sq * np.maximum(x_sq, floor)
            x, z, xv, zv, residual, r_new = z, x, zv, xv, r_new, residual
            obj, x_sq = obj_new, x_sq_new
            # rows whose every block is small; most iterations none is
            if np.count_nonzero(small) and np.count_nonzero(stop := small.all(axis=1)):
                x_out[rows[stop]], obj_out[rows[stop]] = x[stop], obj[stop]
                keep = ~stop
                rows = rows[keep]
                if not rows.size:
                    return x_out, iters, obj_out
                x, d, y, residual, dres, obj, slack, x_sq, began, *params = (
                    a[keep] for a in (x, d, y, residual, dres, obj, slack, x_sq, began,
                                      *params))
                z, r_new, res_sq = np.empty_like(x), np.empty_like(y), np.empty(y.shape)
                xv, zv, dv = (_dot_views(a, blocks) for a in (x, z, d))
    x_out[rows], obj_out[rows] = x, obj
    return x_out, iters, obj_out
