"""Linear point-scatterer forward model producing raw channel data.

The simulator realizes exactly the linear measurement model the estimators
downstream assume: impulse scatterers, a Gaussian-envelope transmit pulse
evaluated analytically at the exact two-way delay, constant speed of sound,
no attenuation or directivity, plus optional white Gaussian noise.  Noise is
drawn from a counter-based generator keyed per (event, channel) with
Box-Muller sampling, so results are bit-reproducible for a given seed
regardless of evaluation order.

Each echo is evaluated only where float32 can see it.  URF1 stores float32,
which rounds every magnitude below 2^-150 (half its smallest subnormal) to
+-0.  At an offset of x standard deviations from its delay, an echo is at
most peak * exp(-x^2 / 2), with peak = |pulse amplitude| * max |scatterer
amplitude|, so beyond x = sqrt(2 (ln peak + 150 ln 2)) sigma_t (about 14.5
for a peak of 1 to 4) every sample is below 2^-150 and is not evaluated.
The half-width is capped at ``_SUPPORT_SIGMAS`` = 38.7, where the float64
envelope itself rounds to 0.0 (x^2 / 2 > 745.13), which also covers a peak
that overflows to inf.  A trace therefore differs from the whole-trace sum
by less than (scatterers) * 2^-150 plus the rounding of its kept sum.  Its
float32 samples are the whole-trace sum's up to the sign of zero, except
where that difference carries a sum near float32's underflow across a
rounding midpoint: such a sample moves by one float32 step.  The echoes of
a scatterer chunk are still added in scatterer order; the first chunk's sum
is the trace and each later chunk's sum is added to it.

A synthetic-aperture set is reciprocal: the echo sent from element i and
received on element j equals the echo sent from j and received on i (Prada &
Fink, Wave Motion 1994).  For an SA event transmitting from its own element
the transmit leg is that element's receive leg bit for bit, since
(x - o)^2 = (o - x)^2 exactly, and the sum of the two legs is commutative, so
each pair's noise-free trace is computed once and copied to its mirrored
(event, channel) slot.  A full SA set evaluates C(C+1)/2 of its C^2 traces.

Echoes are evaluated a block of receive channels at a time, as many as keep
one (channels, scatterer chunk, window) temporary and the block's two
(channels, Nt) trace buffers within ``core.BLOCK_ELEMENTS`` float64 values,
so the working set stays in cache whatever the channel count or Nt.
Traces are independent, and each one still sums its echoes in scatterer
order, so the block size never changes a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PLANE_WAVE,
    SYNTHETIC_APERTURE,
    RfDataCube,
    ScattererField,
    TransducerArray,
    TransmitEvent,
    _Handover,
    row_blocks,
)
from .errors import DepthExceedsWindowError, EmptyEventsError

_SCATTERER_CHUNK = 32
# offset, in pulse standard deviations, beyond which the float64 envelope
# is 0.0: the widest echo window
_SUPPORT_SIGMAS = 38.7


@dataclass(frozen=True)
class PulseModel:
    """Gaussian-envelope transmit pulse parameterized by center frequency."""

    f0: float                      # [Hz]
    fractional_bandwidth: float    # of f0, in (0, 2)
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.f0 > 0:
            raise ValueError("pulse center frequency must be > 0")
        if not 0.0 < self.fractional_bandwidth < 2.0:
            raise ValueError("fractional bandwidth must lie in (0, 2)")

    @property
    def sigma_t(self) -> float:
        """Envelope standard deviation: sqrt(2 ln 2) / (pi f0 bw)."""
        return math.sqrt(2.0 * math.log(2.0)) / (
            math.pi * self.f0 * self.fractional_bandwidth)


def gaussian_pulse(pulse: PulseModel, t) -> np.ndarray:
    """Evaluate the pulse amplitude*exp(-t^2/(2 sigma_t^2))*cos(2 pi f0 t)."""
    t = np.asarray(t, dtype=np.float64)
    sigma = pulse.sigma_t
    return pulse.amplitude * np.exp(-(t * t) / (2.0 * sigma * sigma)) * np.cos(
        2.0 * np.pi * pulse.f0 * t)


def _gauss_stream(key: int, n: int) -> np.ndarray:
    """n standard-normal samples via Box-Muller on a Philox counter stream."""
    rng = np.random.Generator(np.random.Philox(key=key))
    m = (n + 1) // 2
    u = rng.random(2 * m)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:m]))
    ang = 2.0 * np.pi * u[m:]
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(ang)
    out[1::2] = r * np.sin(ang)
    return out[:n]


def _noise_key(seed: int, event: int, channel: int) -> int:
    return ((seed & 0xFFFFFFFFFFFFFFFF) << 64) | (event << 32) | channel


def transmit_distances(event: TransmitEvent, xs, zs) -> np.ndarray:
    """Transmit-leg path length [m] from the event to each scatterer."""
    if event.scheme == PLANE_WAVE:
        return xs * math.sin(event.angle) + zs * math.cos(event.angle)
    ox, oz = event.origin
    return np.sqrt((xs - ox) ** 2 + (zs - oz) ** 2)


def _visible_sigmas(peak: float) -> float:
    """Offset x, in pulse standard deviations, beyond which an echo of
    magnitude at most ``peak`` stays below 2^-150, where float32 rounds it
    to +-0: peak exp(-x^2 / 2) = 2^-150 at x = sqrt(2 (ln peak + 150 ln 2)).
    Capped at ``_SUPPORT_SIGMAS``; 0 for a peak of 0 or below 2^-150."""
    if not peak > 0:
        return 0.0
    x2 = 2.0 * (math.log(peak) + 150.0 * math.log(2.0))
    return min(math.sqrt(max(x2, 0.0)), _SUPPORT_SIGMAS)


def _own_element(event: TransmitEvent, elem: np.ndarray) -> int | None:
    """Index i of the element an SA event transmits from when its origin is
    exactly element i's position, else None."""
    i = event.element_index
    if (event.scheme == SYNTHETIC_APERTURE and 0 <= i < len(elem)
            and event.origin == tuple(elem[i])):
        return i
    return None


# an overflow gives an inf or nan sample, which core.validate reports as
# non-finite-sample
@np.errstate(over="ignore", invalid="ignore")
def simulate(array: TransducerArray, events, field: ScattererField,
             pulse: PulseModel, v: float, nt: int, noise_std: float,
             seed: int) -> RfDataCube:
    """Synthesize an (E, C, Nt) RF data cube from point scatterers.

    sample[e, c, t] = sum_s amp_s * pulse(t/fs - tau(e, c, s)) + noise,
    with tau the two-way time of flight (plane-wave transmits use the planar
    arrival time x sin(theta) + z cos(theta) in place of a point-source
    distance).  Raises ``depth-exceeds-window`` if the deepest scatterer's
    round trip does not fit in the nt-sample window.

    Each echo is evaluated within x sigma_t of its delay, x from the float32
    bound 2^-150 and the largest echo the call can make (module docstring),
    so a sample is within (scatterers) * 2^-150 of the whole-trace sum plus
    rounding, and its float32 cast is that sum's up to the sign of zero or
    one step near float32's underflow.

    By reciprocity, an SA event transmitting from its own element i copies
    trace (e', i) into channel c for every earlier such event e' sent from
    element c, and evaluates only its other channels; the copy is bit for
    bit what evaluating would give.  Noise is added afterwards, keyed per
    (event, channel), so noisy traces are not mirrored.  Channels are
    evaluated and copied in blocks (:func:`core.row_blocks`), so besides
    the cube only one block's temporaries are held.
    """
    events = tuple(events)
    if not events:
        raise EmptyEventsError("empty-events: need at least one transmit event")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    fs = array.sampling_frequency
    c_count = array.num_elements
    sc = field.scatterers
    xs, zs, amps = sc[:, 0], sc[:, 1], sc[:, 2]
    elem = array.element_positions
    # receive leg is event independent: distance element -> scatterer
    rx_dist = np.sqrt((elem[:, 0:1] - xs[None, :]) ** 2
                      + (elem[:, 1:2] - zs[None, :]) ** 2)

    # every echo's window has one fixed width, clipped to the trace: out to
    # where the largest echo the call can make falls below 2^-150
    peak = abs(pulse.amplitude) * float(np.max(np.abs(amps), initial=0.0))
    half = math.ceil(_visible_sigmas(peak) * pulse.sigma_t * fs) + 1
    width = min(2 * half + 1, nt)
    offsets = np.arange(width)
    # a block holds as many channels as keep one (channels, chunk, window)
    # temporary, their traces and the bincount sum within core.BLOCK_ELEMENTS
    chunk = min(_SCATTERER_CHUNK, len(field))
    samples = np.zeros((len(events), c_count, nt))
    # sender[c]: an earlier event that transmitted from element c's position
    sender = np.full(c_count, -1)
    for e, event in enumerate(events):
        tx_dist = transmit_distances(event, xs, zs)
        if len(field):
            tau_max = np.max(tx_dist[None, :] + rx_dist) / v
            if tau_max > (nt - 1) / fs:
                raise DepthExceedsWindowError(
                    f"depth-exceeds-window: max delay {tau_max:.3e}s needs "
                    f"Nt > {tau_max * fs + 1:.0f} at fs={fs:.3e}")
        own = _own_element(event, elem)
        sent = sender >= 0
        rows = np.flatnonzero(~sent) if own is not None else np.arange(c_count)
        for block in row_blocks(len(rows), chunk * width + 2 * nt):
            rb = rows[block]
            size = len(rb) * nt
            row_starts = np.arange(0, size, nt)[:, None, None]
            traces = None
            for lo in range(0, len(field), _SCATTERER_CHUNK):
                hi = min(lo + _SCATTERER_CHUNK, len(field))
                tau = (tx_dist[None, lo:hi] + rx_dist[rb, lo:hi]) / v  # (R, k)
                first = np.floor(tau * fs).astype(np.int64) - half
                np.clip(first, 0, nt - width, out=first)
                window = first[:, :, None] + offsets                   # (R, k, W)
                # sample times index / fs: the doubles np.arange(nt) / fs holds
                arg = window / fs
                arg -= tau[:, :, None]
                echoes = gaussian_pulse(pulse, arg)
                echoes *= amps[None, lo:hi, None]
                # bincount adds in input order: scatterers in order per sample;
                # its bins start at +0.0, so the first chunk's sum is the
                # traces and later chunks add to it
                window += row_starts
                summed = np.bincount(window.ravel(), echoes.ravel(), size)
                if traces is None:
                    traces = summed
                else:
                    traces += summed
            if traces is not None:      # an empty field leaves the zeros
                samples[e, rb] = traces.reshape(len(rb), nt)
        if own is not None:
            # reciprocity: trace (e, c) is trace (sender[c], own)
            mirrored = np.flatnonzero(sent)
            for block in row_blocks(len(mirrored), nt):
                ch = mirrored[block]
                samples[e, ch] = samples[sender[ch], own]
            sender[own] = e
    if noise_std > 0.0:
        for e in range(len(events)):
            for ch in range(c_count):
                samples[e, ch] += noise_std * _gauss_stream(
                    _noise_key(seed, e, ch), nt)
    return RfDataCube(_Handover(samples), fs, v, events)
