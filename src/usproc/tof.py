"""Geometry-based delays, delay-and-interpolate focusing, envelope utilities.

Focusing migrates the recorded time-domain traces onto the imaging grid by
sampling each channel at its two-way time of flight (linear interpolation
between adjacent samples; contributions whose delay falls outside the
recording window are zero, not an error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PLANE_WAVE,
    BeamformedImage,
    FocusedTensor,
    ImagingGrid,
    RfDataCube,
    TransducerArray,
    _Handover,
)
from .errors import (
    AllZeroEnvelopeError,
    DimensionMismatchError,
    NonFiniteSampleError,
    NonPositiveSpeedError,
    ShapeMismatchError,
)


@dataclass(frozen=True)
class DelayTensor:
    """Two-way delays [s] of shape (E, C, Rx, Rz).

    Delays must be finite but may be negative: a steered plane wave reaches
    pixels on one side of the array before it crosses the origin at t = 0.
    Like any delay outside the recording window, a negative one contributes
    zero when focusing.
    """

    delays: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=np.float64)
        if d.ndim != 4:
            raise DimensionMismatchError(
                "dimension-mismatch: delays must be (E, C, Rx, Rz)")
        if not np.all(np.isfinite(d)):
            raise NonFiniteSampleError("non-finite-sample: delays")
        d.flags.writeable = False
        object.__setattr__(self, "delays", d)


def compute_delays(array: TransducerArray, events, grid: ImagingGrid,
                   v: float) -> DelayTensor:
    """Total time of flight (||r_e - r|| + ||r_c - r||) / v per pixel.

    Plane-wave transmits replace the point-source leg by the planar arrival
    time (x sin(theta) + z cos(theta)) / v, referenced so the wavefront
    crosses the array origin at t = 0.
    """
    if v <= 0:
        raise NonPositiveSpeedError(f"non-positive-speed: v={v}")
    events = tuple(events)
    px = grid.lateral_coords[:, None]   # (Rx, 1)
    pz = grid.axial_coords[None, :]     # (1, Rz)
    elem = array.element_positions
    rx_leg = np.sqrt((elem[:, 0, None, None] - px[None]) ** 2
                     + (elem[:, 1, None, None] - pz[None]) ** 2)  # (C, Rx, Rz)
    delays = np.empty((len(events), array.num_elements) + grid.shape)
    for e, event in enumerate(events):
        if event.scheme == PLANE_WAVE:
            tx_leg = px * math.sin(event.angle) + pz * math.cos(event.angle)
        else:
            ox, oz = event.origin
            tx_leg = np.sqrt((px - ox) ** 2 + (pz - oz) ** 2)
        delays[e] = (tx_leg[None, :, :] + rx_leg) / v
    return DelayTensor(delays)


def focus(cube: RfDataCube, delays: DelayTensor, grid: ImagingGrid,
          per_event: bool = False) -> FocusedTensor:
    """Delay-and-interpolate the cube onto the grid (time-to-space migration).

    Returns per-pixel channel vectors; events are coherently summed unless
    ``per_event`` is set, in which case they are stacked.  Events are
    focused one at a time, so the summed form never holds more than one
    event's (C, Rx, Rz) slab besides the running sum.
    """
    e_count, c_count, nt = cube.samples.shape
    if delays.delays.shape[:2] != (e_count, c_count) \
            or delays.delays.shape[2:] != grid.shape:
        raise ShapeMismatchError(
            f"shape-mismatch: delays {delays.delays.shape} vs cube "
            f"(E={e_count}, C={c_count}) and grid {grid.shape}")
    if per_event:
        out = np.empty((e_count, c_count) + grid.shape, dtype=np.complex128)
        for e in range(e_count):
            out[e] = _focus_event(cube.samples[e], delays.delays[e], cube.fs)
        return FocusedTensor(_Handover(out), grid, per_event=True)
    # a zero start and event-by-event adds give np.sum(axis=0)'s bits
    total = np.zeros((c_count,) + grid.shape)
    for e in range(e_count):
        total += _focus_event(cube.samples[e], delays.delays[e], cube.fs)
    return FocusedTensor(total, grid, per_event=False)


def _focus_event(traces: np.ndarray, delays: np.ndarray,
                 fs: float) -> np.ndarray:
    """Linear interpolation of (C, Nt) traces at (C, Rx, Rz) delays [s].

    Delays outside [0, (Nt - 1) / fs] give 0.  The arithmetic runs in place
    but in the same order as (1 - frac) * lo + frac * hi, and temporaries are
    released once used, so the peak stays near five (C, Rx, Rz) arrays.
    """
    c_count, nt = traces.shape
    idx = delays * fs
    outside = (idx < 0.0) | (idx > nt - 1)
    if nt == 1:
        val = np.broadcast_to(traces[:, :1, None], idx.shape).copy()
    else:
        i0 = np.floor(idx).astype(np.int64)
        np.clip(i0, 0, nt - 2, out=i0)
        frac = idx - i0
        del idx
        flat = i0.reshape(c_count, -1)
        val = np.take_along_axis(traces, flat, axis=1).reshape(i0.shape)
        flat += 1
        hi = np.take_along_axis(traces, flat, axis=1).reshape(i0.shape)
        del i0, flat
        hi *= frac
        np.subtract(1.0, frac, out=frac)
        val *= frac
        val += hi
    val[outside] = 0.0
    return val


def _analytic_spectrum_mask(n: int) -> np.ndarray:
    """Analytic-signal weights: DC/Nyquist kept, positive doubled, negative 0."""
    h = np.zeros(n)
    h[0] = 1.0
    if n % 2 == 0:
        h[n // 2] = 1.0
        h[1:n // 2] = 2.0
    else:
        h[1:(n + 1) // 2] = 2.0
    return h


def envelope(rf_image, axis: int = -1) -> np.ndarray:
    """Magnitude of the analytic signal, computed line by line along ``axis``.

    For B-mode images the lines are axial (the default last axis).
    """
    return np.abs(analytic_signal(rf_image, axis))


def analytic_signal(rf_image, axis: int = -1) -> np.ndarray:
    """Complex analytic signal along ``axis``, one FFT per line."""
    x = np.asarray(rf_image, dtype=np.complex128)
    moved = np.moveaxis(x, axis, -1)
    n = moved.shape[-1]
    if n < 4:
        raise DimensionMismatchError(
            "dimension-mismatch: analytic signal needs length >= 4")
    spec = np.fft.fft(moved) * _analytic_spectrum_mask(n)
    return np.moveaxis(np.fft.ifft(spec), -1, axis)


def log_compress(env, dynamic_range_db: float) -> np.ndarray:
    """20 log10(env / max), clamped to [-dynamic_range_db, 0]."""
    env = np.asarray(env, dtype=np.float64)
    if dynamic_range_db <= 0:
        raise ValueError("dynamic range must be positive")
    if np.any(env < 0):
        raise ValueError("envelope must be nonnegative")
    peak = env.max() if env.size else 0.0
    if peak == 0.0:
        raise AllZeroEnvelopeError("all-zero-envelope: cannot log-compress")
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(env / peak)
    return np.clip(db, -dynamic_range_db, 0.0)


def detect_envelope(image: BeamformedImage) -> BeamformedImage:
    """B-mode view: replace rf by its per-line analytic signal, add envelope."""
    analytic = analytic_signal(image.rf, axis=-1)
    return BeamformedImage(analytic, image.grid, envelope=np.abs(analytic))


def log_view(image: BeamformedImage, dynamic_range_db: float) -> BeamformedImage:
    """Attach a normalized log-compressed view (computes envelope if absent)."""
    img = image if image.envelope is not None else detect_envelope(image)
    return BeamformedImage(img.rf, img.grid, envelope=img.envelope,
                           log_db=log_compress(img.envelope, dynamic_range_db))
