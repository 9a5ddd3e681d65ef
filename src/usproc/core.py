"""Domain types shared by all modules.

Geometry convention: coordinates are 2-D ``(lateral x, axial z)`` in meters,
origin at the array's lateral center, ``z = 0`` at the array face, ``z``
increasing into the medium.  Samples are ``float64`` for real data and
``complex128`` (an explicit pair of 64-bit floats) for complex data: focused
channel vectors and images keep the dtype of what they were made from.  That
rule is :func:`working_dtype`, which the numerics, beamforming, clutter and
sparse modules import from here; this module imports no other usproc module
but ``errors``.  The one exception is an :class:`RfDataCube` of float32
samples, as URF1 stores them: it keeps them as float32, and its consumers
widen them to float64 before they compute.  All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyEventsError,
    NonFiniteSampleError,
    NonPositiveSpeedError,
)

PLANE_WAVE = "plane_wave"
SYNTHETIC_APERTURE = "synthetic_aperture"

RECTANGULAR = "rectangular"
HANNING = "hanning"
HAMMING = "hamming"

#: float64 values (256 KiB) in one block of a kernel's per-channel
#: temporaries; the simulator and focusing work on that many channels at a
#: time, so their temporaries stay cache-sized whatever the channel count
BLOCK_ELEMENTS = 1 << 15


def row_blocks(rows: int, row_size: int):
    """Slices covering ``range(rows)`` in order, each of as many rows of
    ``row_size`` values as fit in :data:`BLOCK_ELEMENTS`, and at least one."""
    step = max(1, BLOCK_ELEMENTS // max(row_size, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def working_dtype(*arrays) -> type:
    """complex128 if any operand is complex, float64 otherwise."""
    return np.complex128 if any(map(np.iscomplexobj, arrays)) else np.float64


def all_finite(a) -> bool:
    """``np.isfinite(a).all()`` without a mask the size of ``a``.

    Scans the values in :func:`row_blocks` of one value each, in memory
    order (a view for any contiguous array), and stops at the first block
    holding a NaN or an infinity.
    """
    flat = np.asarray(a).ravel(order="K")
    return all(np.isfinite(flat[block]).all() for block in row_blocks(flat.size, 1))


class _Handover:
    """An array passed to a constructor by the code that just built it and
    keeps no reference to it, so :func:`_frozen` may take it without a copy."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen(a, dtype=None):
    """Copy into a read-only ndarray so dataclass instances stay immutable.

    A :class:`_Handover` array of the right dtype is frozen in place instead.
    """
    out = np.asarray(a.array, dtype=dtype) if isinstance(a, _Handover) \
        else np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _frozen_samples(a):
    """:func:`_frozen` as float64 for real data, complex128 for complex."""
    return _frozen(a, dtype=working_dtype(a.array if isinstance(a, _Handover) else a))


@dataclass(frozen=True)
class TransducerArray:
    """Linear transducer: element positions, pitch and timing parameters."""

    element_positions: np.ndarray  # (C, 2) [m], columns (lateral, axial)
    pitch: float                   # [m]
    num_elements: int
    center_frequency: float        # f0 [Hz]
    sampling_frequency: float      # fs [Hz]

    def __post_init__(self):
        pos = _frozen(self.element_positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise DimensionMismatchError(
                "dimension-mismatch: element_positions must be (C, 2)")
        object.__setattr__(self, "element_positions", pos)
        if self.num_elements < 2 or pos.shape[0] != self.num_elements:
            raise DimensionMismatchError(
                "dimension-mismatch: need C >= 2 elements matching positions")
        if not 0 < self.pitch < math.inf:
            raise ValueError("pitch must be finite and > 0")
        if not self.sampling_frequency > 2.0 * self.center_frequency:
            raise ValueError("sampling_frequency must exceed 2*f0")
        lat = pos[:, 0]
        if np.any(np.diff(lat) <= 0):
            raise ValueError("element lateral positions must be strictly increasing")

    @classmethod
    def linear(cls, num_elements, pitch, center_frequency, sampling_frequency):
        """Uniform linear array centered on the origin at z = 0."""
        xs = (np.arange(num_elements) - (num_elements - 1) / 2.0) * pitch
        pos = np.column_stack([xs, np.zeros(num_elements)])
        return cls(pos, float(pitch), int(num_elements),
                   float(center_frequency), float(sampling_frequency))


@dataclass(frozen=True)
class TransmitEvent:
    """One transmit event: a scheme plus its spatial origin.

    ``origin`` is the point source of the transmit leg of the time-of-flight
    computation in the synthetic-aperture scheme; plane waves use the
    steering ``angle`` instead (referenced so that the wavefront crosses the
    array origin at t = 0).
    """

    scheme: str                      # PLANE_WAVE | SYNTHETIC_APERTURE
    origin: tuple[float, float] = (0.0, 0.0)   # r_e [m]
    angle: float = 0.0               # [rad], plane wave only
    element_index: int = 0           # synthetic aperture only

    def __post_init__(self):
        if self.scheme not in (PLANE_WAVE, SYNTHETIC_APERTURE):
            raise ValueError(f"unknown transmit scheme {self.scheme!r}")
        if self.scheme == PLANE_WAVE and not -math.pi / 2 < self.angle < math.pi / 2:
            raise ValueError("plane-wave angle must lie in (-pi/2, pi/2)")

    @classmethod
    def plane_wave(cls, angle):
        return cls(PLANE_WAVE, origin=(0.0, 0.0), angle=float(angle))

    @classmethod
    def synthetic_aperture(cls, element_index, array: TransducerArray):
        pos = tuple(array.element_positions[element_index])
        return cls(SYNTHETIC_APERTURE, origin=pos, element_index=int(element_index))


@dataclass(frozen=True)
class RfDataCube:
    """Raw channel recordings of shape (E, C, Nt) plus acquisition metadata."""

    # (E, C, Nt): float32 kept as float32 (as read from URF1), any other
    # real input as float64; consumers widen to float64 as they compute
    samples: np.ndarray
    fs: float                   # [Hz]
    speed_of_sound: float       # v [m/s]
    events: tuple[TransmitEvent, ...]

    def __post_init__(self):
        a = self.samples.array if isinstance(self.samples, _Handover) else self.samples
        dtype = np.float32 if getattr(a, "dtype", None) == np.float32 else np.float64
        object.__setattr__(self, "samples", _frozen(self.samples, dtype=dtype))
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def num_events(self):
        return self.samples.shape[0]

    @property
    def num_channels(self):
        return self.samples.shape[1]

    @property
    def num_samples(self):
        return self.samples.shape[2]


def validate(cube: RfDataCube) -> None:
    """Check every RfDataCube invariant; raise naming the violated one.

    Pure and idempotent: no state is read or written besides the argument.
    """
    s = cube.samples
    if s.ndim != 3:
        raise DimensionMismatchError(
            f"dimension-mismatch: samples must be 3-D (E, C, Nt), got {s.ndim}-D")
    e, c, nt = s.shape
    if nt < 1:
        raise DimensionMismatchError("dimension-mismatch: Nt must be >= 1")
    if len(cube.events) == 0:
        raise EmptyEventsError("empty-events: cube carries no transmit events")
    if len(cube.events) != e:
        raise DimensionMismatchError(
            f"dimension-mismatch: len(events)={len(cube.events)} != E={e}")
    if not all_finite(s):
        raise NonFiniteSampleError("non-finite-sample: samples contain NaN/Inf")
    if not cube.speed_of_sound > 0:
        raise NonPositiveSpeedError(
            f"non-positive-speed: v={cube.speed_of_sound} must be > 0")
    for ev in cube.events:
        if ev.scheme == SYNTHETIC_APERTURE and not 0 <= ev.element_index < c:
            raise DimensionMismatchError(
                f"dimension-mismatch: SA element index {ev.element_index} >= C={c}")


@dataclass(frozen=True)
class ImagingGrid:
    """Rectilinear pixel grid in front of the array."""

    lateral_coords: np.ndarray  # r_x, strictly increasing [m]
    axial_coords: np.ndarray    # r_z, strictly increasing [m], all > 0

    def __post_init__(self):
        lat = _frozen(self.lateral_coords, dtype=np.float64)
        ax = _frozen(self.axial_coords, dtype=np.float64)
        if lat.ndim != 1 or ax.ndim != 1 or lat.size < 1 or ax.size < 1:
            raise DimensionMismatchError("dimension-mismatch: grid must be >= 1x1")
        # written so that a nan coordinate fails too
        if not (np.all(np.diff(lat) > 0) and np.all(np.diff(ax) > 0)):
            raise ValueError("grid coordinates must be strictly increasing")
        if not np.all(ax > 0):
            raise ValueError("axial coordinates must be > 0 (in front of the array)")
        object.__setattr__(self, "lateral_coords", lat)
        object.__setattr__(self, "axial_coords", ax)

    @property
    def shape(self):
        return (self.lateral_coords.size, self.axial_coords.size)

    @classmethod
    def regular(cls, lat_min, lat_max, n_lat, ax_min, ax_max, n_ax):
        return cls(np.linspace(lat_min, lat_max, n_lat),
                   np.linspace(ax_min, ax_max, n_ax))


@dataclass(frozen=True)
class FocusedTensor:
    """TOF-corrected per-pixel channel vectors y_r over an imaging grid.

    ``values`` has shape (C, Rx, Rz): one event's, or the coherent sum of
    several events' made during focusing.  It is float64 for real channel
    data, as focused from an :class:`RfDataCube`, and complex128 for complex
    (IQ) data; a ``_Handover`` array already of that dtype is frozen in
    place, without a copy.
    """

    values: np.ndarray
    grid: ImagingGrid

    def __post_init__(self):
        v = _frozen_samples(self.values)
        if v.ndim != 3 or v.shape[1:] != self.grid.shape:
            raise DimensionMismatchError(
                f"dimension-mismatch: values shape {v.shape} inconsistent with "
                f"grid {self.grid.shape}")
        if not all_finite(v):
            raise NonFiniteSampleError("non-finite-sample: focused values")
        object.__setattr__(self, "values", v)

    @property
    def num_channels(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class BeamformedImage:
    """Per-pixel reflectivity estimates plus an optional envelope.

    When ``envelope`` is present it must equal ``|rf|``; build it with
    :func:`usproc.tof.detect_envelope`, which replaces ``rf`` by the
    per-line analytic signal so that this invariant carries the B-mode
    meaning.  ``rf`` is float64 when the estimate is real (a beamformer fed
    real channel data) and complex128 otherwise.
    """

    rf: np.ndarray              # (Rx, Rz) float64 or complex128
    grid: ImagingGrid
    envelope: np.ndarray | None = None

    def __post_init__(self):
        rf = _frozen_samples(self.rf)
        if rf.shape != self.grid.shape:
            raise DimensionMismatchError(
                f"dimension-mismatch: rf shape {rf.shape} != grid {self.grid.shape}")
        object.__setattr__(self, "rf", rf)
        if self.envelope is not None:
            env = _frozen(self.envelope, dtype=np.float64)
            if env.shape != rf.shape:
                raise DimensionMismatchError("dimension-mismatch: envelope shape")
            if not np.allclose(env, np.abs(rf), rtol=1e-12, atol=1e-300):
                raise ValueError("envelope must equal |rf|")
            object.__setattr__(self, "envelope", env)


@dataclass(frozen=True)
class ScattererField:
    """Point-scatterer ground truth for the simulator."""

    scatterers: np.ndarray  # (N, 3): lateral [m], axial [m], amplitude

    def __post_init__(self):
        sc = np.atleast_2d(np.asarray(self.scatterers, dtype=np.float64))
        if sc.size == 0:
            sc = np.zeros((0, 3))
        if sc.shape[1] != 3:
            raise DimensionMismatchError(
                "dimension-mismatch: scatterers must be (N, 3)")
        if not np.all(np.isfinite(sc)):
            raise NonFiniteSampleError("non-finite-sample: scatterer table")
        if sc.shape[0] and np.any(sc[:, 1] <= 0):
            raise ValueError("scatterer axial positions must be > 0")
        object.__setattr__(self, "scatterers", _frozen(sc))

    def __len__(self):
        return self.scatterers.shape[0]


def apodization_weights(kind: str, num_elements: int) -> np.ndarray:
    """Deterministic per-channel taper weights for a given window kind.

    Hanning: w[c] = 0.5 - 0.5 cos(2 pi c / (C-1));
    Hamming: 0.54 - 0.46 cos(2 pi c / (C-1)); Rectangular: all ones.
    """
    c = np.arange(num_elements, dtype=np.float64)
    if kind == RECTANGULAR:
        return np.ones(num_elements)
    if kind == HANNING:
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * c / (num_elements - 1))
    if kind == HAMMING:
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * c / (num_elements - 1))
    raise ValueError(f"unknown apodization kind {kind!r}")


@dataclass(frozen=True)
class ApodizationWindow:
    """Named taper plus its realized weights for a C-element aperture."""

    kind: str
    num_elements: int
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        w = apodization_weights(self.kind, self.num_elements)
        object.__setattr__(self, "weights", _frozen(w))
