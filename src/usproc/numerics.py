"""Numerical kernels: FFT, Hermitian solve, SVD.

All kernels are pure functions with no global state.  The FFT, the Cholesky
factorization and the SVD are numpy's own (``numpy.fft`` and
``numpy.linalg``, backed by pocketfft and LAPACK); this module keeps the
toolkit's input checks and maps LAPACK failures onto the toolkit's named
errors, and it takes LAPACK's factors as they come rather than checking
them again on every call.  The solve and the SVD work in float64 on real
operands and in complex128 as soon as one operand is complex
(:func:`working_dtype`), so real data never pays for complex arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    SingularMatrixError,
)


def working_dtype(*arrays) -> type:
    """complex128 if any operand is complex, float64 otherwise."""
    return np.complex128 if any(map(np.iscomplexobj, arrays)) else np.float64


# ---------------------------------------------------------------------------
# FFT


def fft(signal, inverse: bool = False) -> np.ndarray:
    """Exact DFT (or IDFT with the 1/N factor) of a 1-D sequence of any length.

    Forward: X[k] = sum_n x[n] exp(-2i pi k n / N).
    """
    x = np.asarray(signal, dtype=np.complex128)
    if x.ndim != 1 or x.size < 1:
        raise DimensionMismatchError("dimension-mismatch: fft expects a 1-D sequence")
    return np.fft.ifft(x) if inverse else np.fft.fft(x)


# ---------------------------------------------------------------------------
# Hermitian solve


def solve_hermitian(a, b) -> np.ndarray:
    """Solve A x = b for Hermitian A via Cholesky.

    ``a`` is one (n, n) matrix with ``b`` of shape (n,), or a stack
    (..., n, n) with ``b`` of shape (..., n) solved in one batched call;
    each matrix of a stack is checked for symmetry against its own scale.
    Raises ``singular-matrix`` when the Cholesky factorization of any matrix
    fails, which for a Hermitian matrix signals that it is not positive
    definite; a caller that wants diagonal loading adds it to ``a`` first.
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
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular-matrix: Cholesky failed ({exc})") from exc
    # forward then backward substitution through the two triangular factors
    y = np.linalg.solve(low, b[..., None])
    return np.linalg.solve(np.conj(np.swapaxes(low, -1, -2)), y)[..., 0]


# ---------------------------------------------------------------------------
# SVD


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = U diag(s) V^H with r = min(M, N) columns.

    Only the singular values' sign and order are checked; U and V are
    LAPACK's."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        s = self.singular_values
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ValueError("singular values must be nonnegative, descending")

    def compose(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.v.conj().T


def svd(a) -> SvdResult:
    """Thin singular value decomposition of a finite 2-D matrix.

    A real matrix is decomposed in float64 with real factors, a complex one
    in complex128.  Raises ``no-convergence`` when LAPACK's SVD does not
    converge, which signals pathological input.
    """
    a = np.asarray(a, dtype=working_dtype(a))
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatchError("dimension-mismatch: svd expects a 2-D matrix")
    from .core import all_finite   # core imports this module
    if not all_finite(a):
        raise ValueError("svd input must be finite")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"no-convergence: SVD failed ({exc})") from exc
    return SvdResult(u, s, vh.conj().T)
