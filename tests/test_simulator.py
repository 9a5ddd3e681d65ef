"""Point-scatterer simulator: pulse shape, delays, noise determinism."""

import tracemalloc

import numpy as np
import pytest

from oracles import dft_direct, simulate_full_trace
from usproc.core import ScattererField, TransducerArray, TransmitEvent
from usproc.errors import DepthExceedsWindowError, EmptyEventsError
from usproc.simulator import PulseModel, gaussian_pulse, simulate

V = 1540.0
F0 = 5e6
FS = 40e6


def make_array(c=17):
    return TransducerArray.linear(c, V / F0 / 2, F0, FS)


class TestGaussianPulse:
    def test_peak_at_zero(self):
        pulse = PulseModel(F0, 0.6, amplitude=2.5)
        assert gaussian_pulse(pulse, 0.0) == pytest.approx(2.5, abs=1e-15)

    def test_even_symmetry(self):
        pulse = PulseModel(F0, 0.6)
        t = np.linspace(-1e-6, 1e-6, 101)
        assert np.allclose(gaussian_pulse(pulse, t), gaussian_pulse(pulse, -t),
                           atol=1e-15)

    def test_spectral_width_oracle(self):
        # Oracle: dense DFT of the sampled pulse.  Under the pulse's
        # sigma_t = sqrt(2 ln 2)/(pi f0 bw), the half-amplitude (-6 dB)
        # spectral width equals bw*f0; the -3 dB width is that over sqrt(2).
        bw = 0.6
        pulse = PulseModel(F0, bw)
        fs = 64 * F0
        n = 4096
        t = (np.arange(n) - n / 2) / fs
        spec = np.abs(dft_direct(gaussian_pulse(pulse, t)))
        freqs = np.arange(n) / n * fs
        pos = freqs < fs / 2

        def width_at(level):
            band = freqs[pos][spec[pos] >= level * spec[pos].max()]
            return band.max() - band.min()

        assert width_at(0.5) / F0 == pytest.approx(bw, rel=0.05)
        assert width_at(10 ** (-3 / 20)) / F0 == pytest.approx(bw / np.sqrt(2),
                                                               rel=0.05)


class TestSimulate:
    def test_zero_scatterers_zero_cube(self):
        arr = make_array()
        cube = simulate(arr, [TransmitEvent.plane_wave(0.0)],
                        ScattererField(np.zeros((0, 3))),
                        PulseModel(F0, 0.6), V, 64, 0.0, 0)
        assert not np.any(cube.samples)

    def test_on_axis_round_trip_peak(self):
        # scatterer at z = 5 mm, SA transmit from the center element at the
        # origin: the center channel peaks at 2*0.005/1540 = 6.4935 us
        arr = make_array(17)
        center = 8
        assert arr.element_positions[center, 0] == 0.0
        cube = simulate(arr, [TransmitEvent.synthetic_aperture(center, arr)],
                        ScattererField([[0.0, 5e-3, 1.0]]),
                        PulseModel(F0, 0.6), V, 600, 0.0, 0)
        t_peak = np.argmax(np.abs(cube.samples[0, center])) / FS
        assert t_peak == pytest.approx(2 * 5e-3 / V, abs=0.5 / FS)

    def test_same_seed_bit_identical(self):
        arr = make_array(5)
        field = ScattererField([[1e-3, 4e-3, 1.0]])
        kwargs = dict(v=V, nt=400, noise_std=0.3, seed=99)
        a = simulate(arr, [TransmitEvent.plane_wave(0.1)], field,
                     PulseModel(F0, 0.6), **kwargs)
        b = simulate(arr, [TransmitEvent.plane_wave(0.1)], field,
                     PulseModel(F0, 0.6), **kwargs)
        assert np.array_equal(a.samples, b.samples)

    def test_linearity_over_fields(self):
        arr = make_array(5)
        pulse = PulseModel(F0, 0.6)
        fa = ScattererField([[1e-3, 4e-3, 1.0], [0.0, 6e-3, -0.5]])
        fb = ScattererField([[-2e-3, 5e-3, 2.0]])
        fab = ScattererField(np.vstack([fa.scatterers, fb.scatterers]))
        ev = [TransmitEvent.plane_wave(0.0)]
        a = simulate(arr, ev, fa, pulse, V, 500, 0.0, 0).samples
        b = simulate(arr, ev, fb, pulse, V, 500, 0.0, 0).samples
        ab = simulate(arr, ev, fab, pulse, V, 500, 0.0, 0).samples
        assert np.max(np.abs(ab - (a + b))) <= 1e-12 * np.max(np.abs(ab))

    def test_amplitude_scaling(self):
        arr = make_array(5)
        pulse = PulseModel(F0, 0.6)
        base = ScattererField([[1e-3, 4e-3, 1.0], [0.0, 6e-3, 0.3]])
        scaled = ScattererField(base.scatterers * np.array([1.0, 1.0, 3.0]))
        ev = [TransmitEvent.plane_wave(0.0)]
        a = simulate(arr, ev, base, pulse, V, 500, 0.0, 0).samples
        b = simulate(arr, ev, scaled, pulse, V, 500, 0.0, 0).samples
        assert np.max(np.abs(b - 3.0 * a)) <= 1e-12 * max(np.max(np.abs(b)), 1)

    def test_channel_symmetry_on_axis(self):
        arr = make_array(8)
        cube = simulate(arr, [TransmitEvent.plane_wave(0.0)],
                        ScattererField([[0.0, 5e-3, 1.0]]),
                        PulseModel(F0, 0.6), V, 500, 0.0, 0)
        s = cube.samples[0]
        assert np.max(np.abs(s - s[::-1])) <= 1e-10

    def test_depth_exceeds_window(self):
        arr = make_array(5)
        with pytest.raises(DepthExceedsWindowError, match="depth-exceeds-window"):
            simulate(arr, [TransmitEvent.plane_wave(0.0)],
                     ScattererField([[0.0, 50e-3, 1.0]]),
                     PulseModel(F0, 0.6), V, 64, 0.0, 0)

    def test_empty_events(self):
        with pytest.raises(EmptyEventsError, match="empty-events"):
            simulate(make_array(5), [], ScattererField([[0.0, 5e-3, 1.0]]),
                     PulseModel(F0, 0.6), V, 64, 0.0, 0)

    def test_noise_statistics(self):
        arr = make_array(4)
        cube = simulate(arr, [TransmitEvent.plane_wave(0.0)],
                        ScattererField(np.zeros((0, 3))),
                        PulseModel(F0, 0.6), V, 20000, 0.7, 3)
        s = cube.samples
        assert abs(np.std(s) - 0.7) < 0.02
        assert abs(np.mean(s)) < 0.02


    def test_peak_memory_near_one_cube(self):
        # the cube simulate builds is handed to RfDataCube, not copied; one
        # event's temporaries stay a small share of a 16-event cube
        arr = make_array(16)
        events = [TransmitEvent.plane_wave(a) for a in np.linspace(-0.2, 0.2, 16)]
        field = ScattererField([[0.0, 5e-3, 1.0]])
        nt = 4000
        cube_bytes = len(events) * 16 * nt * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cube = simulate(arr, events, field, PulseModel(F0, 0.6), V, nt,
                            0.1, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert cube.samples.shape == (16, 16, nt)
        assert peak < 1.25 * cube_bytes, peak / cube_bytes


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def tight_nt(arr, events, field, v, margin=2):
    """Smallest window the depth check admits, plus ``margin`` samples."""
    fs = arr.sampling_frequency
    elem = arr.element_positions
    xs, zs = field.scatterers[:, 0], field.scatterers[:, 1]
    rx = np.hypot(elem[:, 0:1] - xs, elem[:, 1:2] - zs)
    tau = 0.0
    for ev in events:
        if ev.scheme == "plane_wave":
            tx = xs * np.sin(ev.angle) + zs * np.cos(ev.angle)
        else:
            tx = np.hypot(xs - ev.origin[0], zs - ev.origin[1])
        tau = max(tau, float(np.max(tx + rx)) / v)
    return int(np.ceil(tau * fs)) + margin


def random_field(rng, n, z_range=(0.3e-3, 6e-3)):
    return ScattererField(np.column_stack([
        rng.uniform(-3e-3, 3e-3, n), rng.uniform(*z_range, n),
        rng.standard_normal(n)]))


class TestWindowedEchoesMatchWholeTrace:
    """The windowed simulator is bit-identical to whole-trace evaluation."""

    @pytest.mark.parametrize("bw", [0.6, 0.02])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 75])
    def test_mixed_events(self, n, bw):
        # n > 32 spans several scatterer chunks; bw 0.02 makes every echo
        # window wider than the trace; shallow scatterers put windows across
        # sample 0 and the tight window puts the deepest across Nt - 1
        arr = make_array(6)
        events = [TransmitEvent.plane_wave(-0.4), TransmitEvent.plane_wave(0.25),
                  TransmitEvent.synthetic_aperture(1, arr)]
        field = random_field(np.random.default_rng(n), n)
        pulse = PulseModel(F0, bw, amplitude=1.7)
        nt = tight_nt(arr, events, field, V)
        cube = simulate(arr, events, field, pulse, V, nt, 0.0, 0)
        ref = simulate_full_trace(arr, events, field, pulse, V, nt)
        assert np.any(ref)
        assert np.array_equal(bits(cube.samples), bits(ref))

    def test_window_reaches_both_trace_ends(self):
        arr = make_array(4)
        events = [TransmitEvent.plane_wave(0.0)]
        field = ScattererField([[0.0, 0.1e-3, 1.0], [0.5e-3, 4e-3, -2.0]])
        pulse = PulseModel(F0, 0.6)
        nt = tight_nt(arr, events, field, V, margin=1)
        cube = simulate(arr, events, field, pulse, V, nt, 0.0, 0)
        ref = simulate_full_trace(arr, events, field, pulse, V, nt)
        # both the first and the last sample carry echo energy
        assert np.all(ref[0, :, 0] != 0) and np.all(ref[0, :, -1] != 0)
        assert np.array_equal(bits(cube.samples), bits(ref))

    def test_subnormal_far_tails_kept(self):
        # a lone echo in the middle of a long trace: its envelope reaches
        # subnormal values near 38.6 sigma_t before it rounds to 0, and the
        # window must keep them all
        arr = make_array(4)
        field = ScattererField([[0.0, 5.8e-3, 1.0]])
        pulse = PulseModel(F0, 0.6)
        events = [TransmitEvent.plane_wave(0.0)]
        cube = simulate(arr, events, field, pulse, V, 600, 0.0, 0)
        ref = simulate_full_trace(arr, events, field, pulse, V, 600)
        tails = (ref != 0) & (np.abs(ref) < 1e-310)
        assert np.all(np.any(tails, axis=-1))
        assert np.array_equal(bits(cube.samples), bits(ref))

    def test_noise_added_after_echoes(self):
        arr = make_array(5)
        events = [TransmitEvent.plane_wave(0.1), TransmitEvent.plane_wave(-0.1)]
        field = random_field(np.random.default_rng(7), 40)
        pulse = PulseModel(F0, 0.6)
        nt = tight_nt(arr, events, field, V)
        noisy = simulate(arr, events, field, pulse, V, nt, 0.05, 11)
        noise = simulate(arr, events, ScattererField(np.zeros((0, 3))), pulse,
                         V, nt, 0.05, 11)
        ref = simulate_full_trace(arr, events, field, pulse, V, nt) \
            + noise.samples
        assert np.array_equal(bits(noisy.samples), bits(ref))

    @pytest.mark.parametrize("nt", [1, 2, 64])
    def test_no_scatterers(self, nt):
        arr = make_array(3)
        empty = ScattererField(np.zeros((0, 3)))
        events = [TransmitEvent.plane_wave(0.0)]
        pulse = PulseModel(F0, 0.6)
        ref = simulate_full_trace(arr, events, empty, pulse, V, nt)
        assert np.array_equal(
            bits(simulate(arr, events, empty, pulse, V, nt, 0.0, 0).samples),
            bits(ref))
        noisy = simulate(arr, events, empty, pulse, V, nt, 0.3, 5).samples
        assert noisy.shape == (1, 3, nt) and np.all(noisy != 0)

    @pytest.mark.parametrize("bw", [0.6, 0.02])
    def test_two_sample_trace(self, bw):
        # a steered plane wave reaches a scatterer beside a tiny array at
        # about t = 0, so a 2-sample window holds its echo
        arr = TransducerArray.linear(2, 1e-5, F0, FS)
        events = [TransmitEvent.plane_wave(1.5)]
        field = ScattererField([[-2e-3, 1e-4, 1.0], [-2.2e-3, 1.2e-4, 0.5]])
        pulse = PulseModel(F0, bw)
        cube = simulate(arr, events, field, pulse, V, 2, 0.0, 0)
        ref = simulate_full_trace(arr, events, field, pulse, V, 2)
        assert np.all(ref != 0)
        assert np.array_equal(bits(cube.samples), bits(ref))
