"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths: the DFT is a direct
O(N^2) summation, the linear solve is Gaussian elimination with full
pivoting, and eigenvalues come from a two-sided Jacobi sweep.  The
simulator and focusing references keep the plain whole-array formulas that
the production code computes piecewise, in the same floating-point order,
so the two must agree bit for bit.  The sparse-localization reference is
the complex128 ISTA that ULM ran before its solve moved to real arithmetic,
kept whole (operator, power iteration, solver) so that it cannot drift with
the production code.  The real ULM operator's reference is the FFT
composition it ran before it became separable per-axis matrices.  The
ISTA reference solves one problem on 1-D vectors with a fresh array per
step and the ``np.where`` form of the soft threshold, as the solver did
before it took stacks of problems; a real problem thresholds as
np.where(|v| > t, v - copysign(t, v), 0), which the solver's two-pass
clip form must match bit for bit.  A linear map's norm is the top
singular value of its dense matrix, built from the map one identity column
at a time.  Singular value thresholding's reference takes numpy's full SVD,
the form the clutter filter computed before it went through the Gram.
"""

import math

import numpy as np

from usproc.sparse import Conv2Same
from usproc.ulm import block_average


def dft_direct(x, inverse=False):
    """O(N^2) DFT by explicit summation."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    sign = 1.0 if inverse else -1.0
    k = np.arange(n)
    mat = np.exp(sign * 2j * np.pi * np.outer(k, k) / n)
    out = mat @ x
    return out / n if inverse else out


def analytic_direct(x):
    """x + i Hilbert(x) via the dense DFT: mask negative frequencies."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    spec = dft_direct(x)
    h = np.zeros(n)
    h[0] = 1.0
    if n % 2 == 0:
        h[n // 2] = 1.0
        h[1:n // 2] = 2.0
    else:
        h[1:(n + 1) // 2] = 2.0
    return dft_direct(spec * h, inverse=True)


def solve_full_pivot(a, b):
    """Gaussian elimination with full pivoting (row and column swaps)."""
    a = np.array(a, dtype=np.complex128)
    b = np.array(b, dtype=np.complex128)
    n = a.shape[0]
    perm = np.arange(n)
    for k in range(n):
        sub = np.abs(a[k:, k:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        i, j = i + k, j + k
        a[[k, i], :] = a[[i, k], :]
        b[[k, i]] = b[[i, k]]
        a[:, [k, j]] = a[:, [j, k]]
        perm[[k, j]] = perm[[j, k]]
        for r in range(k + 1, n):
            f = a[r, k] / a[k, k]
            a[r, k:] -= f * a[k, k:]
            b[r] -= f * b[k]
    y = np.zeros(n, dtype=np.complex128)
    for r in range(n - 1, -1, -1):
        y[r] = (b[r] - a[r, r + 1:] @ y[r + 1:]) / a[r, r]
    x = np.zeros(n, dtype=np.complex128)
    x[perm] = y
    return x


def eigvals_jacobi_hermitian(h, sweeps=100):
    """Two-sided cyclic Jacobi eigenvalues of a Hermitian matrix."""
    a = np.array(h, dtype=np.complex128)
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                off = max(off, abs(apq))
                if abs(apq) < 1e-16 * np.sqrt(abs(a[p, p] * a[q, q]) + 1e-300):
                    continue
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                j = np.eye(n, dtype=np.complex128)
                j[p, p] = c
                j[p, q] = s * phase
                j[q, p] = -s * np.conj(phase)
                j[q, q] = c
                a = j.conj().T @ a @ j
        if off < 1e-14 * max(np.abs(np.diag(a)).max(), 1e-300):
            break
    return np.sort(np.diag(a).real)[::-1]


def nuclear_norm_direct(a):
    """Sum of singular values via the Jacobi eigensolver on A^H A."""
    a = np.asarray(a, dtype=np.complex128)
    gram = a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T
    lam = eigvals_jacobi_hermitian(gram)
    return float(np.sum(np.sqrt(np.clip(lam, 0.0, None))))


def svt_svd(y, tau):
    """Singular value thresholding and its nuclear norm from numpy's SVD:
    (U * (s - tau)_+) V^H and sum (s - tau)_+, in y's dtype."""
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ vh, float(np.sum(s))


def simulate_full_trace(array, events, field, pulse, v, nt, chunk=32):
    """Noise-free (E, C, Nt) echo sum, every pulse over the whole trace.

    Scatterers are taken in chunks of ``chunk``; a chunk's echoes are summed
    in scatterer order and each chunk's sum is added to the trace.
    """
    fs = array.sampling_frequency
    elem = array.element_positions
    xs, zs, amps = (field.scatterers[:, i] for i in range(3))
    rx_dist = np.sqrt((elem[:, 0:1] - xs[None, :]) ** 2
                      + (elem[:, 1:2] - zs[None, :]) ** 2)
    sigma = pulse.sigma_t
    t_axis = np.arange(nt) / fs
    samples = np.zeros((len(events), elem.shape[0], nt))
    for e, event in enumerate(events):
        if event.scheme == "plane_wave":
            tx_dist = xs * math.sin(event.angle) + zs * math.cos(event.angle)
        else:
            ox, oz = event.origin
            tx_dist = np.sqrt((xs - ox) ** 2 + (zs - oz) ** 2)
        for lo in range(0, xs.size, chunk):
            hi = min(lo + chunk, xs.size)
            tau = (tx_dist[None, lo:hi] + rx_dist[:, lo:hi]) / v
            t = t_axis[None, None, :] - tau[:, :, None]
            echoes = pulse.amplitude * np.exp(-(t * t) / (2.0 * sigma * sigma)) \
                * np.cos(2.0 * np.pi * pulse.f0 * t) * amps[None, lo:hi, None]
            samples[e] += echoes.sum(axis=1)
    return samples


def delays_per_pixel(array, events, grid, v):
    """(E, C, Rx, Rz) two-way delays [s], one pixel at a time in scalars.

    Transmit leg (planar arrival x sin + z cos for plane waves, distance
    from the origin otherwise) plus the distance to the receiving element,
    over v.
    """
    elem = array.element_positions
    xs, zs = grid.lateral_coords, grid.axial_coords
    out = np.empty((len(events), elem.shape[0], xs.size, zs.size))
    for e, event in enumerate(events):
        for c in range(elem.shape[0]):
            ex, ez = float(elem[c, 0]), float(elem[c, 1])
            for ix, x in enumerate(map(float, xs)):
                for iz, z in enumerate(map(float, zs)):
                    if event.scheme == "plane_wave":
                        tx = x * math.sin(event.angle) + z * math.cos(event.angle)
                    else:
                        dx, dz = x - event.origin[0], z - event.origin[1]
                        tx = math.sqrt(dx * dx + dz * dz)
                    dx, dz = ex - x, ez - z
                    out[e, c, ix, iz] = (tx + math.sqrt(dx * dx + dz * dz)) / v
    return out


def delays_whole_array(array, events, grid, v):
    """(E, C, Rx, Rz) delays from the whole-array formula that
    ``compute_delays`` once stored: (tx_leg + rx_leg) / v per event."""
    px = grid.lateral_coords[:, None]
    pz = grid.axial_coords[None, :]
    elem = array.element_positions
    rx_leg = np.sqrt((elem[:, 0, None, None] - px[None]) ** 2
                     + (elem[:, 1, None, None] - pz[None]) ** 2)
    delays = np.empty((len(events), elem.shape[0]) + grid.shape)
    for e, event in enumerate(events):
        if event.scheme == "plane_wave":
            tx_leg = px * math.sin(event.angle) + pz * math.cos(event.angle)
        else:
            ox, oz = event.origin
            tx_leg = np.sqrt((px - ox) ** 2 + (pz - oz) ** 2)
        delays[e] = (tx_leg[None, :, :] + rx_leg) / v
    return delays


def delays_from_legs(delays):
    """The (E, C, Rx, Rz) delays [s] of a :class:`usproc.tof.DelayTensor`,
    formed from its public legs as (tx_leg + rx_leg) / v in one broadcast."""
    return (delays.tx_legs[:, None] + delays.rx_leg[None]) / delays.v


def focus_per_trace(samples, fs, delays, per_event=False):
    """Linear-interpolation focusing, one (event, channel) trace at a time.

    ``delays`` is (E, C, Rx, Rz) in seconds; a delay outside the recording
    window gives 0.  Returns (E, C, Rx, Rz) or its sum over events, float64
    for real samples and complex128 for complex ones.
    """
    e_count, c_count, nt = samples.shape
    idx = delays * fs
    inside = (idx >= 0.0) & (idx <= nt - 1)
    i0 = np.clip(np.floor(idx).astype(np.int64), 0, max(nt - 2, 0))
    frac = idx - i0
    out = np.zeros(delays.shape, dtype=np.complex128
                   if np.iscomplexobj(samples) else np.float64)
    for e in range(e_count):
        for c in range(c_count):
            trace = samples[e, c]
            if nt == 1:
                val = np.where(inside[e, c], trace[0], 0.0)
            else:
                lo = trace[i0[e, c]]
                hi = trace[np.minimum(i0[e, c] + 1, nt - 1)]
                val = np.where(inside[e, c],
                               (1.0 - frac[e, c]) * lo + frac[e, c] * hi, 0.0)
            out[e, c] = val
    return out if per_event else out.sum(axis=0)


def block_expand(y: np.ndarray, factor: int) -> np.ndarray:
    """Exact adjoint of :func:`usproc.ulm.block_average`: upsample and
    divide by f^2."""
    return np.repeat(np.repeat(y, factor, axis=0), factor, axis=1) / (factor * factor)


def ulm_model_fft(lr_shape, psf, factor: int):
    """Forward (convolve, then block-average) and adjoint maps of the
    localization model on flattened float64 vectors, and the HR shape."""
    lr_shape = tuple(lr_shape)
    hr_shape = (lr_shape[0] * factor, lr_shape[1] * factor)
    op = Conv2Same(hr_shape, psf)

    def forward(x):
        return block_average(op.forward(x), factor).ravel()

    def adjoint(y):
        return op.adjoint(block_expand(y.reshape(lr_shape), factor)).ravel()

    return forward, adjoint, hr_shape


def ulm_model_complex(lr_shape, psf, factor):
    """Complex128 convolve-then-block-average map of the ULM model and its
    adjoint on flattened vectors, as full complex FFTs."""
    h0, h1 = lr_shape[0] * factor, lr_shape[1] * factor
    kernel = np.asarray(psf, dtype=np.complex128)
    full = (h0 + kernel.shape[0] - 1, h1 + kernel.shape[1] - 1)
    o0, o1 = (kernel.shape[0] - 1) // 2, (kernel.shape[1] - 1) // 2
    kernel_fft = np.fft.fft2(kernel, full)

    def forward(x):
        x = np.asarray(x, dtype=np.complex128).reshape(h0, h1)
        conv = np.fft.ifft2(np.fft.fft2(x, full) * kernel_fft)[o0:o0 + h0, o1:o1 + h1]
        return conv.reshape(h0 // factor, factor, h1 // factor, factor) \
            .mean(axis=(1, 3)).ravel()

    def adjoint(y):
        y = np.asarray(y).reshape(lr_shape)
        up = np.repeat(np.repeat(y, factor, axis=0), factor, axis=1) \
            / (factor * factor)
        ypad = np.zeros(full, dtype=np.complex128)
        ypad[o0:o0 + h0, o1:o1 + h1] = np.asarray(up, dtype=np.complex128)
        return np.fft.ifft2(np.fft.fft2(ypad) * np.conj(kernel_fft))[:h0, :h1].ravel()

    return forward, adjoint


def dense_norm(forward, dim):
    """Spectral norm of a linear map on length-``dim`` vectors: the top
    singular value of its matrix, whose column j is forward(e_j)."""
    matrix = np.stack([np.asarray(forward(e)) for e in np.eye(dim)], axis=1)
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def localize_sparse_complex(frame, psf, lam, factor, mu,
                            max_iters=2000, tol=1e-6):
    """ULM sparse localization with complex128 ISTA from x = 0 at step mu.

    Returns the nonneg-clamped (H, W) HR map and the iterations used.
    """
    frame = np.asarray(frame, dtype=np.float64)
    forward, adjoint = ulm_model_complex(frame.shape, psf, factor)
    y = frame.astype(np.complex128).ravel()
    dim = y.size * factor * factor
    x = np.zeros(dim, dtype=np.complex128)
    residual = -y
    iters = 0
    for _ in range(max_iters):
        grad = np.asarray(adjoint(residual), dtype=np.complex128)
        z = x - mu * grad
        mag = np.abs(z)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(mag > 0.0, np.maximum(
                1.0 - mu * lam / np.maximum(mag, 1e-300), 0.0), 0.0)
        x_new = z * scale
        residual = forward(x_new) - y
        iters += 1
        delta = np.sqrt(np.sum(np.abs(x_new - x) ** 2))
        ref = max(np.sqrt(np.sum(np.abs(x) ** 2)), 1.0)
        x = x_new
        if delta / ref < tol:
            break
    shape = (frame.shape[0] * factor, frame.shape[1] * factor)
    return np.clip(np.real(x).reshape(shape), 0.0, None), iters


def soft_threshold_where(x, lam):
    """Soft threshold with the explicit zero branch np.where(|x| > 0, ..., 0)."""
    x = np.asarray(x)
    mag = np.abs(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(mag > 0.0, np.maximum(
            1.0 - lam / np.maximum(mag, 1e-300), 0.0), 0.0)
    return x * scale


def soft_threshold_real(v, t):
    """Real soft threshold sgn(v)(|v| - t)_+ as np.where(|v| > t,
    v - copysign(t, v), 0): an entry it kills is +0.  A NaN stays NaN, and
    an infinite v at t = inf is NaN, as the solver's inf - clip(inf) is."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        out = np.where(np.abs(v) > t, v - np.copysign(t, v), 0.0)
    return np.where(np.isnan(v) | (np.isinf(v) & (t == math.inf)), np.nan, out)


def ista_single(forward, adjoint, y, lam, norm, max_iters=5000,
                tol=1e-8, real=False):
    """ISTA on one problem, one 1-D vector at a time, as the solver ran
    before it took stacks: returns (x, iterations, objective).

    The step is 1 / (1.01 norm)^2, as in the solver.
    """
    dtype = np.float64 if real else np.complex128
    shrink = soft_threshold_real if real else soft_threshold_where
    y = np.asarray(y, dtype=dtype).ravel()

    def objective(residual, x):
        return 0.5 * float(np.sum(np.abs(residual) ** 2)) \
            + lam * float(np.sum(np.abs(x)))

    mu = 1.0 / (1.01 * norm) ** 2
    x = np.zeros(np.asarray(adjoint(y)).size, dtype=dtype)
    residual = -y
    obj = objective(residual, x)
    iters = 0
    for _ in range(max_iters):
        grad = np.asarray(adjoint(residual), dtype=dtype).ravel()
        x_new = shrink(x - mu * grad, mu * lam)
        residual = np.asarray(forward(x_new)).ravel() - y
        obj_new = objective(residual, x_new)
        iters += 1
        if obj_new > obj + 1e-12 * max(1.0, abs(obj)):
            raise AssertionError("objective rose")
        delta = np.sqrt(np.sum(np.abs(x_new - x) ** 2))
        ref = max(np.sqrt(np.sum(np.abs(x) ** 2)), 1.0)
        x, obj = x_new, obj_new
        if delta / ref < tol:
            break
    return x, iters, obj
