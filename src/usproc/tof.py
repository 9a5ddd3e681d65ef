"""Geometry-based delays, delay-and-interpolate focusing, envelope utilities.

Focusing migrates the recorded time-domain traces onto the imaging grid by
sampling each channel at its two-way time of flight (linear interpolation
between adjacent samples; contributions whose delay falls outside the
recording window are zero, not an error).  Delays are kept factored into a
receive leg per channel and a transmit leg per event; focusing forms one
event's (C, Rx, Rz) delays at a time, so no (E, C, Rx, Rz) array is built
unless a caller asks for :attr:`DelayTensor.delays`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    PLANE_WAVE,
    BeamformedImage,
    FocusedTensor,
    ImagingGrid,
    RfDataCube,
    TransducerArray,
    _frozen,
    _Handover,
)
from .errors import (
    AllZeroEnvelopeError,
    DimensionMismatchError,
    NonFiniteSampleError,
    NonPositiveSpeedError,
    ShapeMismatchError,
)


class DelayTensor:
    """Two-way delays [s] of shape (E, C, Rx, Rz).

    ``DelayTensor(delays)`` holds a full (E, C, Rx, Rz) array.
    :func:`compute_delays` builds the factored form instead: the (E, Rx, Rz)
    transmit legs, the (C, Rx, Rz) receive leg and the speed v, from which
    :meth:`event` forms event e's delays as ``(tx_leg[e] + rx_leg) / v``.
    :attr:`delays` gives the full array either way.

    Delays must be finite but may be negative: a steered plane wave reaches
    pixels on one side of the array before it crosses the origin at t = 0.
    Like any delay outside the recording window, a negative one contributes
    zero when focusing.
    """

    __slots__ = ("_full", "_tx_legs", "_rx_leg", "_v")

    def __init__(self, delays):
        d = _frozen(delays, dtype=np.float64)
        if d.ndim != 4:
            raise DimensionMismatchError(
                "dimension-mismatch: delays must be (E, C, Rx, Rz)")
        if not np.all(np.isfinite(d)):
            raise NonFiniteSampleError("non-finite-sample: delays")
        self._full = d
        self._tx_legs = self._rx_leg = self._v = None

    @classmethod
    def factored(cls, tx_legs, rx_leg, v: float) -> DelayTensor:
        """Delays ``(tx_legs[e] + rx_leg) / v`` from (E, Rx, Rz) transmit
        legs and a (C, Rx, Rz) receive leg [m].

        Like ``DelayTensor(delays)``, this copies a caller's arrays; a
        ``core._Handover`` leg is frozen in place instead.
        """
        if v <= 0:
            raise NonPositiveSpeedError(f"non-positive-speed: v={v}")
        tx_legs = _frozen(tx_legs, dtype=np.float64)
        rx_leg = _frozen(rx_leg, dtype=np.float64)
        if tx_legs.ndim != 3 or rx_leg.ndim != 3 \
                or tx_legs.shape[1:] != rx_leg.shape[1:]:
            raise DimensionMismatchError(
                "dimension-mismatch: legs must be (E, Rx, Rz) and (C, Rx, Rz)")
        self = cls.__new__(cls)
        self._full = None
        self._tx_legs, self._rx_leg, self._v = tx_legs, rx_leg, float(v)
        if not self._all_finite():
            raise NonFiniteSampleError("non-finite-sample: delays")
        return self

    def _all_finite(self) -> bool:
        # |tx + rx| / v is at most the sum of |max| and |min| of both legs
        # over v, and rounding keeps that order, so a finite bound proves
        # every delay finite; otherwise check event by event
        if self._tx_legs.size == 0:
            return True
        bound = sum(abs(float(f(leg))) for leg in (self._tx_legs, self._rx_leg)
                    for f in (np.max, np.min)) / self._v
        return math.isfinite(bound) or all(
            np.all(np.isfinite(self.event(e))) for e in range(self.shape[0]))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        if self._full is not None:
            return self._full.shape
        return (self._tx_legs.shape[0],) + self._rx_leg.shape

    def event(self, e: int) -> np.ndarray:
        """Event e's (C, Rx, Rz) delays [s]."""
        if self._full is not None:
            return self._full[e]
        return (self._tx_legs[e][None, :, :] + self._rx_leg) / self._v

    @property
    def delays(self) -> np.ndarray:
        """The full (E, C, Rx, Rz) delays, read-only."""
        if self._full is not None:
            return self._full
        out = np.empty(self.shape)
        for e in range(self.shape[0]):
            out[e] = self.event(e)
        out.flags.writeable = False
        return out


def compute_delays(array: TransducerArray, events, grid: ImagingGrid,
                   v: float) -> DelayTensor:
    """Total time of flight (||r_e - r|| + ||r_c - r||) / v per pixel.

    Plane-wave transmits replace the point-source leg by the planar arrival
    time (x sin(theta) + z cos(theta)) / v, referenced so the wavefront
    crosses the array origin at t = 0.  Returns the factored tensor: the legs
    are computed once here, the division by v per event when it is read.
    """
    events = tuple(events)
    px = grid.lateral_coords[:, None]   # (Rx, 1)
    pz = grid.axial_coords[None, :]     # (1, Rz)
    elem = array.element_positions
    rx_leg = ((elem[:, 0, None, None] - px[None]) ** 2
              + (elem[:, 1, None, None] - pz[None]) ** 2)         # (C, Rx, Rz)
    np.sqrt(rx_leg, out=rx_leg)
    tx_legs = np.empty((len(events),) + grid.shape)
    for e, event in enumerate(events):
        if event.scheme == PLANE_WAVE:
            tx_legs[e] = px * math.sin(event.angle) + pz * math.cos(event.angle)
        else:
            ox, oz = event.origin
            tx_legs[e] = np.sqrt((px - ox) ** 2 + (pz - oz) ** 2)
    return DelayTensor.factored(_Handover(tx_legs), _Handover(rx_leg), v)


def focus(cube: RfDataCube, delays: DelayTensor, grid: ImagingGrid,
          per_event: bool = False) -> FocusedTensor:
    """Delay-and-interpolate the cube onto the grid (time-to-space migration).

    Returns per-pixel channel vectors; events are coherently summed unless
    ``per_event`` is set, in which case they are stacked.  Events are
    focused one at a time from :meth:`DelayTensor.event`, so the summed form
    never holds more than one event's (C, Rx, Rz) slabs besides the running
    sum.
    """
    e_count, c_count, nt = cube.samples.shape
    if delays.shape[:2] != (e_count, c_count) or delays.shape[2:] != grid.shape:
        raise ShapeMismatchError(
            f"shape-mismatch: delays {delays.shape} vs cube "
            f"(E={e_count}, C={c_count}) and grid {grid.shape}")
    if per_event:
        out = np.empty((e_count, c_count) + grid.shape, dtype=np.complex128)
        for e in range(e_count):
            out[e] = _focus_event(cube.samples[e], delays.event(e) * cube.fs)
        return FocusedTensor(_Handover(out), grid, per_event=True)
    # a zero start and event-by-event adds give np.sum(axis=0)'s bits
    total = np.zeros((c_count,) + grid.shape)
    for e in range(e_count):
        total += _focus_event(cube.samples[e], delays.event(e) * cube.fs)
    return FocusedTensor(total, grid, per_event=False)


def _focus_event(traces: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Linear interpolation of (C, Nt) traces at (C, Rx, Rz) sample indices.

    ``idx`` is delay times fs; indices outside [0, Nt - 1] give 0.  Both
    samples around each index come from one ``take`` each on the flattened
    traces, at c Nt + floor(idx) and one past it.  The arithmetic runs in
    place but in the same order as (1 - frac) * lo + frac * hi, and
    temporaries are released once used, so the peak stays near five
    (C, Rx, Rz) arrays.
    """
    c_count, nt = traces.shape
    outside = (idx < 0.0) | (idx > nt - 1)
    if nt == 1:
        val = np.broadcast_to(traces[:, :1, None], idx.shape).copy()
    else:
        flat = np.floor(idx).astype(np.int64)
        np.clip(flat, 0, nt - 2, out=flat)
        frac = idx - flat
        del idx
        flat += np.arange(0, c_count * nt, nt)[:, None, None]
        samples = traces.ravel()
        val = samples.take(flat)
        flat += 1
        hi = samples.take(flat)
        del flat
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
