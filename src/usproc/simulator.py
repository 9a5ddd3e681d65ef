"""Linear point-scatterer forward model producing raw channel data.

The simulator realizes exactly the linear measurement model the estimators
downstream assume: impulse scatterers, a Gaussian-envelope transmit pulse
evaluated analytically at the exact two-way delay, constant speed of sound,
no attenuation or directivity, plus optional white Gaussian noise.  Noise is
drawn from a counter-based generator keyed per (event, channel) with
Box-Muller sampling, so results are bit-reproducible for a given seed
regardless of evaluation order.

Each echo is evaluated only near its delay.  The Gaussian envelope
exp(-x^2 / 2) of an offset of x standard deviations rounds to exactly 0.0 in
float64 once x^2 / 2 exceeds about 745.13 (x > 38.61), because the result
falls below half the smallest subnormal.  Samples further than
``_SUPPORT_SIGMAS`` = 38.7 sigma_t from the echo's delay would therefore add
exactly +-0.0, which leaves every nonzero partial sum unchanged, so the
windowed sum equals the whole-trace sum bit for bit as long as the echoes
of a scatterer chunk are still added in scatterer order and each chunk's sum
is then added to the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PLANE_WAVE,
    RfDataCube,
    ScattererField,
    TransducerArray,
    TransmitEvent,
    _Handover,
)
from .errors import DepthExceedsWindowError, EmptyEventsError

_SCATTERER_CHUNK = 32
# offset, in pulse standard deviations, beyond which the envelope is 0.0
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


def simulate(array: TransducerArray, events, field: ScattererField,
             pulse: PulseModel, v: float, nt: int, noise_std: float,
             seed: int) -> RfDataCube:
    """Synthesize an (E, C, Nt) RF data cube from point scatterers.

    sample[e, c, t] = sum_s amp_s * pulse(t/fs - tau(e, c, s)) + noise,
    with tau the two-way time of flight (plane-wave transmits use the planar
    arrival time x sin(theta) + z cos(theta) in place of a point-source
    distance).  Raises ``depth-exceeds-window`` if the deepest scatterer's
    round trip does not fit in the nt-sample window.
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

    t_axis = np.arange(nt) / fs
    # every echo's window has one fixed width, clipped to the trace
    half = math.ceil(_SUPPORT_SIGMAS * pulse.sigma_t * fs) + 1
    width = min(2 * half + 1, nt)
    offsets = np.arange(width)
    row_starts = (np.arange(c_count) * nt)[:, None, None]
    samples = np.zeros((len(events), c_count, nt))
    for e, event in enumerate(events):
        tx_dist = transmit_distances(event, xs, zs)
        if len(field):
            tau_max = np.max(tx_dist[None, :] + rx_dist) / v
            if tau_max > (nt - 1) / fs:
                raise DepthExceedsWindowError(
                    f"depth-exceeds-window: max delay {tau_max:.3e}s needs "
                    f"Nt > {tau_max * fs + 1:.0f} at fs={fs:.3e}")
        for lo in range(0, len(field), _SCATTERER_CHUNK):
            hi = min(lo + _SCATTERER_CHUNK, len(field))
            tau = (tx_dist[None, lo:hi] + rx_dist[:, lo:hi]) / v  # (C, k)
            first = np.floor(tau * fs).astype(np.int64) - half
            np.clip(first, 0, nt - width, out=first)
            window = first[:, :, None] + offsets                  # (C, k, W)
            arg = t_axis[window] - tau[:, :, None]
            echoes = gaussian_pulse(pulse, arg) * amps[None, lo:hi, None]
            # bincount adds in input order: scatterers in order per sample
            samples[e] += np.bincount(
                (window + row_starts).ravel(), echoes.ravel(),
                c_count * nt).reshape(c_count, nt)
    if noise_std > 0.0:
        for e in range(len(events)):
            for ch in range(c_count):
                samples[e, ch] += noise_std * _gauss_stream(
                    _noise_key(seed, e, ch), nt)
    return RfDataCube(_Handover(samples), fs, v, events)
