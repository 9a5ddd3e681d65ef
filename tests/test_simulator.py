"""Point-scatterer simulator: pulse shape, delays, noise determinism."""

import numpy as np
import pytest

from conftest import assert_same_float32, traced_peak
from oracles import dft_direct, simulate_full_trace
from usproc import core, simulator
from usproc.core import (
    SYNTHETIC_APERTURE,
    ScattererField,
    TransducerArray,
    TransmitEvent,
)
from usproc.errors import (
    DepthExceedsWindowError,
    EmptyEventsError,
    NonFiniteSampleError,
)
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
        cube, peak = traced_peak(simulate, arr, events, field,
                                 PulseModel(F0, 0.6), V, nt, 0.1, 0)
        assert cube.samples.shape == (16, 16, nt)
        assert peak < 1.25 * cube_bytes, peak / cube_bytes


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# float32 rounds every magnitude below this to +-0
FLOAT32_ZERO = 2.0 ** -150


def assert_within_bound(samples, ref, n):
    """The windowed simulator's contract with the whole-trace sum ``ref`` of
    ``n`` scatterers: each dropped echo sample is below 2^-150, so a sample
    differs by at most n * 2^-150 plus a few float64 ulps of its kept sum,
    and the float32 samples URF1 would store agree."""
    atol = n * FLOAT32_ZERO + 4 * np.spacing(np.abs(ref))
    assert np.all(np.abs(samples - ref) <= atol)
    assert_same_float32(samples, ref)


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
    """The windowed simulator matches whole-trace evaluation within the
    float32 bound."""

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
        assert_within_bound(cube.samples, ref, n)

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

    def test_zero_where_float32_cannot_see(self):
        # a lone unit echo in the middle of a long trace: beyond
        # x = sqrt(2 * 150 ln 2) sigma_t of its delay the whole-trace sum is
        # below 2^-150, and past the window's rounding margin the simulator
        # leaves exact zeros where the oracle still has nonzero tails
        arr = make_array(4)
        field = ScattererField([[0.0, 5.8e-3, 1.0]])
        pulse = PulseModel(F0, 0.6)
        events = [TransmitEvent.plane_wave(0.0)]
        nt = 600
        cube = simulate(arr, events, field, pulse, V, nt, 0.0, 0)
        ref = simulate_full_trace(arr, events, field, pulse, V, nt)
        tau = (5.8e-3 + np.hypot(arr.element_positions[:, 0], 5.8e-3)) / V
        sigma_samples = pulse.sigma_t * FS
        dist = np.abs(np.arange(nt) - tau[:, None] * FS)      # (C, Nt) samples
        x = np.sqrt(2 * 150 * np.log(2))
        assert np.all(np.abs(ref[0][dist > x * sigma_samples]) < FLOAT32_ZERO)
        beyond = dist > x * sigma_samples + 3
        assert np.all(np.any(beyond & (ref[0] != 0), axis=-1))
        assert np.all(cube.samples[0][beyond] == 0)
        assert np.all(cube.samples[0][dist < x * sigma_samples - 3] != 0)
        assert_within_bound(cube.samples, ref, 1)

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


class TestEchoWindow:
    """Each call's echo half-width comes from its largest possible echo."""

    @pytest.mark.parametrize("amplitude,rows", [
        (0.0, [[0.0, 3e-3, 1.0]]), (1.0, [[0.0, 3e-3, 0.0], [1e-3, 2e-3, -0.0]]),
        (1.0, np.zeros((0, 3)))], ids=["zero_pulse", "zero_scatterers", "empty"])
    def test_zero_peak_gives_zero_cube(self, amplitude, rows):
        # no log(0) and no max over an empty table
        arr = make_array(5)
        events = [TransmitEvent.plane_wave(0.1)] + sa_events(arr, range(5))
        cube = simulate(arr, events, ScattererField(rows),
                        PulseModel(F0, 0.6, amplitude=amplitude), V, 200, 0.0, 0)
        assert cube.samples.shape == (6, 5, 200) and not np.any(cube.samples)

    def test_negative_amplitude_same_window(self):
        # a narrower window would drop samples the positive pulse keeps
        arr = make_array(6)
        events = [TransmitEvent.plane_wave(-0.2)] + sa_events(arr, [3, 0])
        field = random_field(np.random.default_rng(10), 40)
        pos, neg = (simulate(arr, events, field, PulseModel(F0, 0.6, amplitude=a),
                             V, 600, 0.0, 0).samples for a in (1.7, -1.7))
        assert np.any(pos) and np.array_equal(neg, -pos)

    @pytest.mark.parametrize("amplitude", [1e-47, 1e300])
    def test_extreme_peak_matches_oracle(self, amplitude):
        # below 2^-150 every sample is invisible to float32; far above 1 the
        # window stops at float64's own support
        arr = make_array(6)
        events = [TransmitEvent.plane_wave(0.3)] + sa_events(arr, [1, 4])
        field = random_field(np.random.default_rng(11), 40)
        pulse = PulseModel(F0, 0.6, amplitude=amplitude)
        nt = tight_nt(arr, events, field, V)
        cube = simulate(arr, events, field, pulse, V, nt, 0.0, 0)
        ref = simulate_full_trace(arr, events, field, pulse, V, nt)
        assert np.any(ref)
        assert_within_bound(cube.samples, ref, len(field))
        assert np.any(np.abs(cube.samples) >= FLOAT32_ZERO) == (amplitude > 1)

    def test_overflowing_peak_keeps_float64_support(self, monkeypatch):
        widths = []

        def recording_pulse(pulse, t):
            widths.append(np.shape(t)[-1])
            return gaussian_pulse(pulse, t)

        monkeypatch.setattr(simulator, "gaussian_pulse", recording_pulse)
        pulse = PulseModel(F0, 0.6, amplitude=1e300)
        # 1e300 * 1e10 overflows: no numpy warning is raised, and the
        # cube's check says it is not finite
        cube = simulate(make_array(4), [TransmitEvent.plane_wave(0.0)],
                        ScattererField([[0.0, 5.8e-3, 1e10]]), pulse, V, 900,
                        0.0, 0)
        with pytest.raises(NonFiniteSampleError):
            core.validate(cube)
        half = int(np.ceil(38.7 * pulse.sigma_t * FS)) + 1
        assert widths == [2 * half + 1]


def sa_events(arr, order):
    return [TransmitEvent.synthetic_aperture(i, arr) for i in order]


def assert_matches_oracle(arr, events, field, pulse=PulseModel(F0, 0.6)):
    nt = tight_nt(arr, events, field, V)
    cube = simulate(arr, events, field, pulse, V, nt, 0.0, 0)
    ref = simulate_full_trace(arr, events, field, pulse, V, nt)
    assert np.any(ref)
    assert_within_bound(cube.samples, ref, len(field))
    return cube


class TestReciprocity:
    """SA traces copied to their mirrored slot equal evaluated ones bit for
    bit, and every other event is simulated as before."""

    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    @pytest.mark.parametrize("n", [16, 75])
    def test_full_set(self, order, n):
        # 75 scatterers span three chunks
        arr = make_array(7)
        idx = {"forward": range(7), "reversed": range(6, -1, -1),
               "shuffled": np.random.default_rng(n).permutation(7)}[order]
        cube = assert_matches_oracle(arr, sa_events(arr, idx),
                                     random_field(np.random.default_rng(n), n))
        # reciprocity itself: trace (i -> j) equals trace (j -> i)
        pos = np.argsort(list(idx))
        full = cube.samples[pos]
        assert np.array_equal(bits(full), bits(full.transpose(1, 0, 2)))

    def test_subset_of_elements(self):
        arr = make_array(8)
        assert_matches_oracle(arr, sa_events(arr, [5, 1, 6, 2]),
                              random_field(np.random.default_rng(3), 40))

    def test_duplicated_events(self):
        arr = make_array(5)
        cube = assert_matches_oracle(arr, sa_events(arr, [2, 0, 2, 4, 0, 2]),
                                     random_field(np.random.default_rng(4), 33))
        assert np.array_equal(bits(cube.samples[0]), bits(cube.samples[2]))

    def test_mixed_with_plane_waves(self):
        arr = make_array(6)
        events = [TransmitEvent.plane_wave(0.2)] + sa_events(arr, [0, 3]) \
            + [TransmitEvent.plane_wave(-0.1)] + sa_events(arr, [5, 3, 1])
        assert_matches_oracle(arr, events,
                              random_field(np.random.default_rng(5), 50))

    def test_events_off_their_element_are_not_mirrored(self):
        # origins beside or on another element, and element indices outside
        # the array: all simulated from their origin, none raises IndexError
        arr = make_array(6)
        elem = arr.element_positions
        off = [TransmitEvent(SYNTHETIC_APERTURE, origin=(elem[2, 0] + 1e-4, 0.0),
                             element_index=2),
               TransmitEvent(SYNTHETIC_APERTURE, origin=tuple(elem[4]),
                             element_index=1),
               TransmitEvent(SYNTHETIC_APERTURE, origin=tuple(elem[0]),
                             element_index=6),
               TransmitEvent(SYNTHETIC_APERTURE, origin=tuple(elem[5]),
                             element_index=-1)]
        assert_matches_oracle(arr, sa_events(arr, range(6)) + off,
                              random_field(np.random.default_rng(6), 20))

    def test_noise_added_after_mirroring(self):
        arr = make_array(5)
        events = sa_events(arr, [0, 1, 2, 3, 4, 2])
        field = random_field(np.random.default_rng(8), 40)
        pulse = PulseModel(F0, 0.6)
        nt = tight_nt(arr, events, field, V)
        noisy = simulate(arr, events, field, pulse, V, nt, 0.05, 11).samples
        noise = simulate(arr, events, ScattererField(np.zeros((0, 3))), pulse,
                         V, nt, 0.05, 11).samples
        ref = simulate_full_trace(arr, events, field, pulse, V, nt) + noise
        assert np.array_equal(bits(noisy), bits(ref))
        # each (event, channel) gets its own noise, so mirrored slots differ
        assert not np.array_equal(noisy[0, 1], noisy[1, 0])

    def test_full_set_evaluates_half_the_traces(self, monkeypatch):
        evaluated = []

        def counting_pulse(pulse, t):
            evaluated.append(np.size(t))
            return gaussian_pulse(pulse, t)

        monkeypatch.setattr(simulator, "gaussian_pulse", counting_pulse)
        c = 9
        arr = make_array(c)
        field = random_field(np.random.default_rng(9), 40)
        pulse = PulseModel(F0, 0.6)
        elem = arr.element_positions

        def samples_evaluated(events):
            evaluated.clear()
            simulate(arr, events, field, pulse, V, 400, 0.0, 0)
            return sum(evaluated)

        one = samples_evaluated(sa_events(arr, [0]))        # all C traces
        assert one > 0
        full = samples_evaluated(sa_events(arr, range(c)))
        assert 2 * full == one * (c + 1)                    # C(C+1)/2 traces
        shifted = [TransmitEvent(SYNTHETIC_APERTURE, origin=(x + 1e-9, z),
                                 element_index=i)
                   for i, (x, z) in enumerate(elem)]
        assert samples_evaluated(shifted) == one * c        # C^2 traces


class TestChannelBlocks:
    """Channel blocks of any size match the whole-trace oracle, and give
    the same bits as one block."""

    # these fields' peaks near 2 give 149-sample echo windows, so
    # 3 * 32 * 149 values are three rows of a full chunk and 7 channels
    # split into uneven blocks
    @pytest.fixture(params=[1, 3 * 32 * 149, 2 ** 40],
                    ids=["one_row", "three_rows", "one_block"])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", request.param)

    @pytest.mark.parametrize("events", [
        "plane_waves", "full_set", "shuffled_set", "mixed"])
    def test_matches_oracle(self, block, events, monkeypatch):
        arr = make_array(7)
        events = {
            "plane_waves": [TransmitEvent.plane_wave(a) for a in (-0.3, 0.2)],
            "full_set": sa_events(arr, range(7)),
            "shuffled_set": sa_events(arr, np.random.default_rng(1).permutation(7)),
            "mixed": [TransmitEvent.plane_wave(0.1)] + sa_events(arr, [4, 0, 4]),
        }[events]
        field = random_field(np.random.default_rng(2), 70)
        cube = assert_matches_oracle(arr, events, field)
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 2 ** 40)
        whole = simulate(arr, events, field, PulseModel(F0, 0.6), V,
                         cube.num_samples, 0.0, 0)
        assert np.array_equal(bits(cube.samples), bits(whole.samples))

    def test_noise(self, block):
        arr = make_array(5)
        events = sa_events(arr, range(5)) + [TransmitEvent.plane_wave(0.2)]
        field = random_field(np.random.default_rng(3), 40)
        pulse = PulseModel(F0, 0.6)
        nt = tight_nt(arr, events, field, V)
        noisy = simulate(arr, events, field, pulse, V, nt, 0.05, 11).samples
        noise = simulate(arr, events, ScattererField(np.zeros((0, 3))), pulse,
                         V, nt, 0.05, 11).samples
        ref = simulate_full_trace(arr, events, field, pulse, V, nt) + noise
        assert np.array_equal(bits(noisy), bits(ref))


@pytest.mark.parametrize("scheme", ["plane_wave", "synthetic_aperture"])
def test_working_set_independent_of_channel_count(scheme):
    # beyond the cube it returns, simulate holds one block of channels'
    # temporaries and (C, S) distance tables: from 16 to 64 channels only
    # the tables grow, by far less than a quarter of one block
    field = random_field(np.random.default_rng(4), 40, z_range=(2e-3, 8e-3))
    beyond = {}
    for c in (16, 64):
        arr = make_array(c)
        events = ([TransmitEvent.plane_wave(a) for a in (-0.1, 0.0, 0.1)]
                  if scheme == "plane_wave" else sa_events(arr, range(c)))
        cube, peak = traced_peak(simulate, arr, events, field,
                                 PulseModel(F0, 0.6), V, 600, 0.0, 0)
        beyond[c] = peak - cube.samples.nbytes
    assert beyond[64] < beyond[16] + 8 * core.BLOCK_ELEMENTS // 4, beyond


def test_working_set_bounded_at_long_traces():
    # each block also holds its (channels, Nt) traces and their bincount sum:
    # at Nt = 50,000 two such rows exceed BLOCK_ELEMENTS, so a block is one
    # channel and the peak beyond the cube stays within three rows of Nt
    field = random_field(np.random.default_rng(4), 40, z_range=(2e-3, 8e-3))
    events = [TransmitEvent.plane_wave(a) for a in (-0.1, 0.0, 0.1)]
    nt = 50_000
    cube, peak = traced_peak(simulate, make_array(16), events, field,
                             PulseModel(F0, 0.6), V, nt, 0.0, 0)
    beyond = peak - cube.samples.nbytes
    assert beyond < 3 * nt * 8, beyond
