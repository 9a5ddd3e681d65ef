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
called where they are needed.
"""

from __future__ import annotations

import numpy as np

from .core import all_finite, working_dtype
from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    SingularMatrixError,
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
