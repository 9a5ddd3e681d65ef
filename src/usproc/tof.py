"""Geometry-based delays, delay-and-interpolate focusing, envelope utilities.

Focusing migrates the recorded time-domain traces onto the imaging grid by
sampling each channel at its two-way time of flight (linear interpolation
between adjacent samples; contributions whose delay falls outside the
recording window are zero, not an error).  It gives one (C, Rx, Rz) tensor:
the coherent sum over the events, or one event alone, so per-transmit
images are compounded one event at a time.  Delays are kept as a receive
leg per channel and a transmit leg per event; focusing forms the delays of
one event and one block of receive channels at a time, as many channels as
keep a (channels, Rx, Rz) array within ``core.BLOCK_ELEMENTS`` float64
values, so its temporaries stay cache-sized and no (E, C, Rx, Rz) array is
built.  Each channel still sums its events in the order 0..E-1, so the
block size never changes a bit.

Reciprocal synthetic aperture: in a full SA set recorded without noise,
trace (e, c) equals trace (c, e) and so do their delays, because the
transmit leg of event e is element e's receive leg.  The summed focus then
gathers each element pair once (C(C+1)/2 of C^2 slab rows) and adds the
slab to both channels, each channel still summing its events in the order
0..E-1, so the output keeps the event-by-event loop's bits.  The path is
taken only when the input proves it exact (E == C, legs equal by
``array_equal``, cube symmetric by exact comparison); any other input, such
as plane waves, noise, a shuffled or partial SA set, takes the loop (Jensen
et al., "Synthetic aperture ultrasound imaging", Ultrasonics 44, 2006).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BeamformedImage,
    FocusedTensor,
    ImagingGrid,
    RfDataCube,
    TransducerArray,
    _frozen,
    _Handover,
    row_blocks,
)
from .errors import (
    AllZeroEnvelopeError,
    DimensionMismatchError,
    NonFiniteSampleError,
    NonPositiveSpeedError,
    ShapeMismatchError,
)
from .simulator import transmit_distances


@dataclass(frozen=True, eq=False)
class DelayTensor:
    """Two-way delays [s] of shape (E, C, Rx, Rz), kept as their legs [m].

    Event e's delays are ``(tx_legs[e] + rx_leg) / v``: the (E, Rx, Rz)
    transmit legs, the (C, Rx, Rz) receive leg and the speed v.
    :meth:`event` forms them for every receive channel or for a block of
    them.  The constructor copies a caller's legs; a ``core._Handover`` leg
    is frozen in place instead.

    Delays must be finite but may be negative: a steered plane wave reaches
    pixels on one side of the array before it crosses the origin at t = 0.
    Like any delay outside the recording window, a negative one contributes
    zero when focusing.
    """

    tx_legs: np.ndarray
    rx_leg: np.ndarray
    v: float

    def __post_init__(self):
        if self.v <= 0:
            raise NonPositiveSpeedError(f"non-positive-speed: v={self.v}")
        tx_legs = _frozen(self.tx_legs, dtype=np.float64)
        rx_leg = _frozen(self.rx_leg, dtype=np.float64)
        if tx_legs.ndim != 3 or rx_leg.ndim != 3 \
                or tx_legs.shape[1:] != rx_leg.shape[1:]:
            raise DimensionMismatchError(
                "dimension-mismatch: legs must be (E, Rx, Rz) and (C, Rx, Rz)")
        object.__setattr__(self, "tx_legs", tx_legs)
        object.__setattr__(self, "rx_leg", rx_leg)
        object.__setattr__(self, "v", float(self.v))
        if not self._all_finite():
            raise NonFiniteSampleError("non-finite-sample: delays")

    def _all_finite(self) -> bool:
        # |tx + rx| / v is at most the sum of |max| and |min| of both legs
        # over v, and rounding keeps that order, so a finite bound proves
        # every delay finite; otherwise check event by event
        if self.tx_legs.size == 0:
            return True
        bound = sum(abs(float(f(leg))) for leg in (self.tx_legs, self.rx_leg)
                    for f in (np.max, np.min)) / self.v
        return math.isfinite(bound) or all(
            np.all(np.isfinite(self.event(e))) for e in range(self.shape[0]))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.tx_legs.shape[0],) + self.rx_leg.shape

    def event(self, e: int, rows=slice(None)) -> np.ndarray:
        """Event e's (C, Rx, Rz) delays [s], or those of the receive
        channels ``rows`` selects."""
        return (self.tx_legs[e][None, :, :] + self.rx_leg[rows]) / self.v


def compute_delays(array: TransducerArray, events, grid: ImagingGrid,
                   v: float) -> DelayTensor:
    """Total time of flight (||r_e - r|| + ||r_c - r||) / v per pixel.

    Plane-wave transmits replace the point-source leg by the planar arrival
    time (x sin(theta) + z cos(theta)) / v, referenced so the wavefront
    crosses the array origin at t = 0.  The transmit legs are the
    simulator's :func:`~usproc.simulator.transmit_distances`, so a delay and
    the echo simulated for it share their bits.  The legs are computed once
    here, the division by v per event when it is read.
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
        tx_legs[e] = transmit_distances(event, px, pz)
    return DelayTensor(_Handover(tx_legs), _Handover(rx_leg), v)


def focus(cube: RfDataCube, delays: DelayTensor, grid: ImagingGrid,
          event: int | None = None) -> FocusedTensor:
    """Delay-and-interpolate the cube onto the grid (time-to-space migration).

    Returns the (C, Rx, Rz) per-pixel channel vectors, float64 like the
    cube's samples and handed to the tensor without a copy: the coherent
    sum over all events, or with ``event`` set that event's alone.  Each
    event is focused one block of channels (:func:`core.row_blocks`) at a
    time from :meth:`DelayTensor.event` and added to a zero start, so
    besides the output only one block's slabs are held.  When the sum over
    all events is asked for and :func:`_reciprocal` shows slab (e, c) equals
    slab (c, e), event i is gathered for channels i..C-1 only and row k is
    added both to channel i + k and, in event order, to channel i: half the
    gathers, the same bits.
    """
    e_count, c_count, nt = cube.samples.shape
    if delays.shape[:2] != (e_count, c_count) or delays.shape[2:] != grid.shape:
        raise ShapeMismatchError(
            f"shape-mismatch: delays {delays.shape} vs cube "
            f"(E={e_count}, C={c_count}) and grid {grid.shape}")
    samples, fs = cube.samples, cube.fs
    pixels = grid.shape[0] * grid.shape[1]
    # a zero start and event-by-event adds give np.sum(axis=0)'s bits
    total = np.zeros((c_count,) + grid.shape)
    if event is None and _reciprocal(samples, delays):
        for i in range(c_count):
            for rb in row_blocks(c_count - i, pixels):
                # slab row k is pair (i, i + rb.start + k): term i of that
                # channel, and by symmetry the term of channel i for event
                # i + rb.start + k, added in event order
                rows = slice(i + rb.start, i + rb.stop)
                slab = _focus_event(samples[i, rows], delays.event(i, rows) * fs)
                total[rows] += slab
                for k in range(1 if rb.start == 0 else 0, len(slab)):
                    total[i] += slab[k]
                del slab    # before the next block's indices are built
    else:
        events = range(e_count) if event is None else (event,)
        for rb in row_blocks(c_count, pixels):
            for e in events:
                total[rb] += _focus_event(samples[e, rb], delays.event(e, rb) * fs)
    return FocusedTensor(_Handover(total), grid)


def _reciprocal(samples: np.ndarray, delays: DelayTensor) -> bool:
    """Whether slab (e, c) of a summed focus equals slab (c, e) bit for bit.

    True for a full synthetic-aperture set recorded without noise: delays
    whose (E, Rx, Rz) transmit legs equal the (C, Rx, Rz) receive leg, so
    E == C, and ``samples[e, c] == samples[c, e]``.  Exact comparisons
    only, so any other input takes the event-by-event loop.  A zero's sign,
    which ``==`` ignores, cannot reach the sum: it starts at +0.0 and so is
    never -0.0, and a zero of either sign added to any other value leaves it
    as it is.
    """
    legs = delays.tx_legs, delays.rx_leg
    return (legs[0].shape == legs[1].shape
            and all(map(np.array_equal, *legs))
            and all(np.array_equal(samples[i, i + 1:], samples[i + 1:, i])
                    for i in range(samples.shape[1] - 1)))


def _focus_event(traces: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Linear interpolation of (C, Nt) traces at (C, Rx, Rz) sample indices.

    ``idx`` is delay times fs; indices outside [0, Nt - 1] give 0.  Both
    samples around each index come from one ``take`` each on the flattened
    traces, at c Nt + floor(idx) and one past it.  The arithmetic runs in
    place but in the same order as (1 - frac) * lo + frac * hi, and
    temporaries are released once used, so the peak stays near five arrays
    of the shape of ``idx``: one channel block's worth when called from
    :func:`focus`.
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
