"""Numerical kernels: FFT, Hermitian solve, SVD, operator norm.

All kernels are pure functions with no global state.  The FFT, the Cholesky
factorization and the SVD are numpy's own (``numpy.fft`` and
``numpy.linalg``, backed by pocketfft and LAPACK); this module keeps the
toolkit's input checks and maps LAPACK failures onto the toolkit's named
errors.  The operator norm is a power iteration over caller-supplied maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AdjointMismatchError,
    DimensionMismatchError,
    NoConvergenceError,
    SingularMatrixError,
)


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


def solve_hermitian(a, b, loading: float = 0.0) -> np.ndarray:
    """Solve (A + loading*I) x = b for Hermitian A via Cholesky.

    Raises ``singular-matrix`` when the Cholesky factorization fails after
    loading, which for a Hermitian matrix signals that it is not positive
    definite.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise DimensionMismatchError("dimension-mismatch: need square A and matching b")
    if loading < 0:
        raise ValueError("loading must be >= 0")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if np.max(np.abs(a - a.conj().T)) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian to 1e-10")
    try:
        low = np.linalg.cholesky(a + loading * np.eye(a.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular-matrix: Cholesky failed ({exc})") from exc
    # forward then backward substitution through the two triangular factors
    return np.linalg.solve(low.conj().T, np.linalg.solve(low, b))


# ---------------------------------------------------------------------------
# SVD


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = U diag(s) V^H with r = min(M, N) columns."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        s = self.singular_values
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ValueError("singular values must be nonnegative, descending")
        for q in (self.u, self.v):
            gram = q.conj().T @ q
            if np.max(np.abs(gram - np.eye(q.shape[1]))) > 1e-10:
                raise ValueError("SVD factor is not column-orthonormal to 1e-10")

    def compose(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.v.conj().T


def svd(a) -> SvdResult:
    """Thin singular value decomposition of a finite 2-D matrix.

    Raises ``no-convergence`` when LAPACK's SVD does not converge, which
    signals pathological input.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatchError("dimension-mismatch: svd expects a 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("svd input must be finite")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"no-convergence: SVD failed ({exc})") from exc
    return SvdResult(u, s, vh.conj().T)


# ---------------------------------------------------------------------------
# Operator norm


def _check_adjoint(forward, adjoint, dim, rng, trials=2):
    for _ in range(trials):
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x /= np.sqrt(np.sum(np.abs(x) ** 2))
        ax = np.asarray(forward(x))
        y = rng.standard_normal(ax.shape[0]) + 1j * rng.standard_normal(ax.shape[0])
        y /= np.sqrt(np.sum(np.abs(y) ** 2))
        lhs = np.vdot(ax, y)
        rhs = np.vdot(x, np.asarray(adjoint(y)))
        if abs(lhs - rhs) > 1e-8 * max(1.0, abs(lhs), abs(rhs)):
            raise AdjointMismatchError(
                f"adjoint-mismatch: <Ax,y>={lhs:.6e} vs <x,A^H y>={rhs:.6e}")


def operator_norm(forward, adjoint, dim: int, iters: int = 100) -> float:
    """Estimate the largest singular value of a linear map by power iteration.

    ``forward``/``adjoint`` act on 1-D complex vectors of length ``dim``.
    The adjoint is verified probabilistically first; the returned estimate
    includes a 1.01 overestimate-safety factor.
    """
    rng = np.random.Generator(np.random.Philox(key=0x75B5C0DE))
    _check_adjoint(forward, adjoint, dim, rng)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.sqrt(np.sum(np.abs(vec) ** 2))
    for _ in range(iters):
        vec = np.asarray(adjoint(np.asarray(forward(vec))), dtype=np.complex128)
        nrm = np.sqrt(np.sum(np.abs(vec) ** 2))
        if nrm == 0.0:
            return 0.0
        vec /= nrm
    top = np.sqrt(np.sum(np.abs(np.asarray(forward(vec))) ** 2))
    return 1.01 * float(top)
